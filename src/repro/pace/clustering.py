"""Phase 2 — Connected Component Detection (Section IV-B).

PaCE-style clustering of the non-redundant sequences: promising pairs
(maximal match >= psi) stream in decreasing match-length order; the
master keeps a union-find over sequences and *filters out* every pair
whose endpoints are already co-clustered (the transitive-closure
heuristic that eliminates >99.9% of pairs); surviving pairs are aligned
by workers against Definition 2 (>=30% similarity over >=80% of the
longer sequence) and successes merge clusters.

Result invariance: the final clustering equals the connected components
of the graph {promising pairs that pass the overlap test}.  A filtered
pair is by construction already intra-component, so *which* pairs get
filtered (a function of message timing) never changes the output — the
serial backend and every processor count produce identical clusters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro import obs
from repro.align.matrices import ScoringScheme, blosum62_scheme
from repro.align.predicates import OVERLAP_COVERAGE, OVERLAP_SIMILARITY
from repro.graph.unionfind import UnionFind
from repro.pace.cache import AlignmentCache
from repro.pace.costs import CostModel
from repro.parallel.masterworker import MasterWorkerConfig, run_master_worker
from repro.parallel.partition import balance_items
from repro.parallel.simulator import SimulationResult, VirtualCluster
from repro.sequence.record import SequenceSet
from repro.suffix.matches import MaximalMatchFinder


@dataclass
class ClusteringResult:
    """Outcome of the CCD phase."""

    components: list[list[int]]
    """Connected components over *global* sequence indices, sorted by
    descending size; singletons included."""
    n_promising_pairs: int = 0
    n_filtered: int = 0
    n_alignments: int = 0
    n_merges: int = 0
    sim: SimulationResult | None = None

    def components_of_size(self, min_size: int) -> list[list[int]]:
        return [c for c in self.components if len(c) >= min_size]

    @property
    def work_reduction(self) -> float:
        """Fraction of promising pairs never aligned (the >99.9% figure)."""
        if self.n_promising_pairs == 0:
            return 0.0
        return 1.0 - self.n_alignments / self.n_promising_pairs


def _overlap_passes(
    aln, len_i: int, len_j: int, similarity: float, coverage: float
) -> bool:
    if aln.length == 0 or aln.identity < similarity:
        return False
    longer = max(len_i, len_j)
    span = max(aln.a_end - aln.a_start, aln.b_end - aln.b_start)
    return span / longer >= coverage


def _observe_clustering(uf: UnionFind, components: list[list[int]]) -> None:
    """Record the CCD phase's scientific counters (all drivers funnel
    here so the counts are defined once)."""
    obs.count("ccd.merges", uf.merge_count)
    obs.count("ccd.components", len(components))
    obs.gauge("ccd.components_now", len(components))


def _components_from_uf(kept: Sequence[int], uf: UnionFind) -> list[list[int]]:
    """Translate local union-find groups back to global indices."""
    groups: dict[int, list[int]] = {}
    for local, global_idx in enumerate(kept):
        groups.setdefault(uf.find(local), []).append(global_idx)
    out = [sorted(members) for members in groups.values()]
    out.sort(key=lambda c: (-len(c), c[0]))
    return out


def parallel_component_detection(
    sequences: SequenceSet,
    kept: Sequence[int],
    cluster: VirtualCluster,
    *,
    psi: int = 10,
    similarity: float = OVERLAP_SIMILARITY,
    coverage: float = OVERLAP_COVERAGE,
    scheme: ScoringScheme | None = None,
    cache: AlignmentCache | None = None,
    cost_model: CostModel | None = None,
    max_pairs_per_node: int | None = None,
    record_timeline: bool = False,
) -> ClusteringResult:
    """Simulated-parallel CCD phase.

    Workers stream bucket-local promising pairs longest-first; the
    master union-find filters and dynamically redistributes surviving
    alignments.  The aggressive filter starves workers at high p — the
    paper's Table II scaling collapse — while leaving the scientific
    output identical to
    :func:`repro.runtime.phases.backend_component_detection`.
    """
    if scheme is None:
        scheme = blosum62_scheme()
    costs = CostModel() if cost_model is None else cost_model
    encoded_all = [record.encoded for record in sequences]
    if cache is None:  # explicit None test: an empty cache is falsy
        cache = AlignmentCache(lambda k: encoded_all[k], scheme)
    local_encoded = [encoded_all[g] for g in kept]
    finder = MaximalMatchFinder(
        local_encoded, min_length=psi, max_pairs_per_node=max_pairs_per_node
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
        # O(n*l/p) distributed-GST construction share per worker.
        return costs.index_symbol * total_symbols / n_w

    def make_generator(worker_index: int, n_w: int) -> Iterator[tuple[tuple[int, int], float]]:
        for match in finder.matches_for_symbols(worker_symbols[worker_index]):
            yield (match.pair, costs.generate_pair)

    uf = UnionFind(len(kept))
    tested: set[tuple[int, int]] = set()
    counters = {"pairs": 0, "filtered": 0}

    def filter_item(pair: tuple[int, int]):
        counters["pairs"] += 1
        obs.count("ccd.pairs")
        if pair in tested or uf.same(pair[0], pair[1]):
            counters["filtered"] += 1
            obs.count("ccd.filtered")
            return None
        tested.add(pair)
        return pair

    def execute_task(pair: tuple[int, int]):
        obs.count("ccd.alignments")
        gi, gj = kept[pair[0]], kept[pair[1]]
        aln = cache.local(gi, gj)
        passes = _overlap_passes(
            aln,
            len(encoded_all[gi]),
            len(encoded_all[gj]),
            similarity,
            coverage,
        )
        return (pair, passes), costs.alignment(len(encoded_all[gi]), len(encoded_all[gj]))

    def absorb_result(result) -> float:
        pair, passes = result
        if passes:
            uf.union(pair[0], pair[1])
            return costs.merge
        return 0.0

    config = MasterWorkerConfig(
        make_generator=make_generator,
        filter_item=filter_item,
        execute_task=execute_task,
        absorb_result=absorb_result,
        filter_cost=costs.filter_pair,
        setup_cost=setup_cost,
    )
    outcome, sim = run_master_worker(cluster, config, record_timeline=record_timeline)
    components = _components_from_uf(kept, uf)
    _observe_clustering(uf, components)
    return ClusteringResult(
        components=components,
        n_promising_pairs=counters["pairs"],
        n_filtered=counters["filtered"],
        n_alignments=outcome.tasks_executed,
        n_merges=uf.merge_count,
        sim=sim,
    )
