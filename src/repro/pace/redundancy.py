"""Phase 1 — Redundancy Removal (Section IV-A).

Shortlist sequence pairs sharing a maximal exact match of length >= psi,
align only those (overlap alignment), and remove every sequence that
Definition 1 declares contained in another.  When two sequences mutually
contain each other (near-identical), the shorter one is removed (ties:
the higher index), keeping results deterministic and order-independent.

The parallel driver distributes suffix buckets across workers (the
distributed-GST construction), streams unique promising pairs through
the master (which only deduplicates — there is no clustering filter in
this phase, which is why RR dominates the pipeline's run-time), and
dynamically balances the alignment work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro import obs
from repro.align.matrices import ScoringScheme, blosum62_scheme
from repro.align.predicates import CONTAINMENT_COVERAGE, CONTAINMENT_SIMILARITY
from repro.pace.cache import AlignmentCache
from repro.pace.costs import CostModel
from repro.parallel.masterworker import MasterWorkerConfig, run_master_worker
from repro.parallel.partition import balance_items
from repro.parallel.simulator import SimulationResult, VirtualCluster
from repro.sequence.record import SequenceSet
from repro.suffix.matches import MaximalMatchFinder


@dataclass
class RedundancyResult:
    """Outcome of the RR phase."""

    redundant: set[int]
    kept: list[int]
    n_promising_pairs: int = 0
    n_alignments: int = 0
    sim: SimulationResult | None = None
    containments: list[tuple[int, int]] = field(default_factory=list)
    """(contained, container) relations discovered."""

    @property
    def n_nonredundant(self) -> int:
        return len(self.kept)


def _decide(
    redundant: set[int],
    containments: list[tuple[int, int]],
    i: int,
    j: int,
    identity: float,
    cov_i: float,
    cov_j: float,
    len_i: int,
    len_j: int,
    similarity: float,
    coverage: float,
) -> None:
    """Apply Definition 1 to one aligned pair, updating the result state."""
    if identity < similarity:
        return
    i_in_j = cov_i >= coverage
    j_in_i = cov_j >= coverage
    if i_in_j and j_in_i:
        # Mutual containment: drop the shorter (ties: higher index).
        victim = i if (len_i, -i) < (len_j, -j) else j
        survivor = j if victim == i else i
        redundant.add(victim)
        containments.append((victim, survivor))
    elif i_in_j:
        redundant.add(i)
        containments.append((i, j))
    elif j_in_i:
        redundant.add(j)
        containments.append((j, i))


def _build_result(
    n: int,
    redundant: set[int],
    containments: list[tuple[int, int]],
    n_pairs: int,
    n_aligned: int,
    sim: SimulationResult | None,
) -> RedundancyResult:
    obs.count("rr.redundant", len(redundant))
    kept = [i for i in range(n) if i not in redundant]
    return RedundancyResult(
        redundant=redundant,
        kept=kept,
        n_promising_pairs=n_pairs,
        n_alignments=n_aligned,
        sim=sim,
        containments=sorted(containments),
    )


def parallel_redundancy_removal(
    sequences: SequenceSet,
    cluster: VirtualCluster,
    *,
    psi: int = 10,
    similarity: float = CONTAINMENT_SIMILARITY,
    coverage: float = CONTAINMENT_COVERAGE,
    scheme: ScoringScheme | None = None,
    cache: AlignmentCache | None = None,
    cost_model: CostModel | None = None,
    max_pairs_per_node: int | None = None,
    record_timeline: bool = False,
) -> RedundancyResult:
    """Simulated-parallel RR phase; scientifically identical to the
    host path (:func:`repro.runtime.phases.backend_redundancy_removal`).

    Workers own first-symbol suffix buckets (LPT-balanced by bucket
    size), generate promising pairs locally and align the deduplicated
    survivors; the master only merges verdicts.
    """
    if scheme is None:
        scheme = blosum62_scheme()
    costs = CostModel() if cost_model is None else cost_model
    encoded = [record.encoded for record in sequences]
    if cache is None:  # explicit None test: an empty cache is falsy
        cache = AlignmentCache(lambda k: encoded[k], scheme)
    finder = MaximalMatchFinder(
        encoded, min_length=psi, max_pairs_per_node=max_pairs_per_node
    )

    n_workers = max(cluster.n_ranks - 1, 1)
    symbols = finder.bucket_symbols()
    sizes = finder.bucket_sizes()
    assignment = balance_items([sizes[s] for s in symbols], n_workers)
    worker_symbols: list[set[int]] = [
        {symbols[i] for i in bucket} for bucket in assignment
    ]

    total_symbols = int(finder.gsa.text.size)

    def setup_cost(worker_index: int, n_w: int) -> float:
        # Each worker builds an O(n*l/p) share of the distributed GST
        # (construction is split by suffix count, not by bucket yield).
        return costs.index_symbol * total_symbols / n_w

    def make_generator(worker_index: int, n_w: int) -> Iterator[tuple[tuple[int, int], float]]:
        seen: set[tuple[int, int]] = set()
        for match in finder.matches_for_symbols(worker_symbols[worker_index]):
            if match.pair in seen:
                continue
            seen.add(match.pair)
            yield (match.pair, costs.generate_pair)

    master_seen: set[tuple[int, int]] = set()

    def filter_item(pair: tuple[int, int]):
        if pair in master_seen:
            return None
        master_seen.add(pair)
        obs.count("rr.pairs")
        return pair

    def execute_task(pair: tuple[int, int]):
        i, j = pair
        obs.count("rr.alignments")
        aln = cache.semiglobal(i, j)
        result = (
            i,
            j,
            aln.identity,
            aln.coverage_a(len(encoded[i])),
            aln.coverage_b(len(encoded[j])),
        )
        return result, costs.alignment(len(encoded[i]), len(encoded[j]))

    redundant: set[int] = set()
    containments: list[tuple[int, int]] = []

    def absorb_result(result) -> float:
        i, j, identity, cov_i, cov_j = result
        _decide(
            redundant,
            containments,
            i,
            j,
            identity,
            cov_i,
            cov_j,
            len(encoded[i]),
            len(encoded[j]),
            similarity,
            coverage,
        )
        return costs.merge

    config = MasterWorkerConfig(
        make_generator=make_generator,
        filter_item=filter_item,
        execute_task=execute_task,
        absorb_result=absorb_result,
        filter_cost=costs.dedup_pair,
        setup_cost=setup_cost,
    )
    outcome, sim = run_master_worker(cluster, config, record_timeline=record_timeline)
    return _build_result(
        len(sequences),
        redundant,
        containments,
        len(master_seen),
        outcome.tasks_executed,
        sim,
    )
