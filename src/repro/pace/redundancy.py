"""Phase 1 — Redundancy Removal (Section IV-A).

Shortlist sequence pairs sharing a maximal exact match of length >= psi,
align only those (overlap alignment), and remove every sequence that
Definition 1 declares contained in another.  When two sequences mutually
contain each other (near-identical), the shorter one is removed (ties:
the higher index), keeping results deterministic and order-independent.

The phase is defined once, as
:class:`repro.runtime.phases.RedundancyPhase`.  Its simulated run
distributes suffix buckets across workers (the distributed-GST
construction), streams unique promising pairs through the master (which
only deduplicates — there is no clustering filter in this phase, which
is why RR dominates the pipeline's run-time), and dynamically balances
the alignment work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.align.matrices import ScoringScheme
from repro.align.predicates import CONTAINMENT_COVERAGE, CONTAINMENT_SIMILARITY
from repro.pace.cache import AlignmentCache
from repro.pace.costs import CostModel
from repro.parallel.simulator import SimulationResult, VirtualCluster
from repro.sequence.record import SequenceSet


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
    # Imported here: the phase definition imports this module.
    from repro.runtime.phases import RedundancyPhase, run_simulated

    return run_simulated(
        RedundancyPhase(sequences, similarity, coverage,
                        psi=psi, max_pairs_per_node=max_pairs_per_node),
        cluster,
        scheme=scheme,
        cache=cache,
        cost_model=cost_model,
        record_timeline=record_timeline,
    )
