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

The phase is defined once, as
:class:`repro.runtime.phases.ClusteringPhase`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.align.matrices import ScoringScheme
from repro.align.predicates import OVERLAP_COVERAGE, OVERLAP_SIMILARITY
from repro.pace.cache import AlignmentCache
from repro.pace.costs import CostModel
from repro.parallel.simulator import SimulationResult, VirtualCluster
from repro.sequence.record import SequenceSet


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
    # Imported here: the phase definition imports this module.
    from repro.runtime.phases import ClusteringPhase, run_simulated

    return run_simulated(
        ClusteringPhase(sequences, kept, similarity, coverage,
                        psi=psi, max_pairs_per_node=max_pairs_per_node),
        cluster,
        scheme=scheme,
        cache=cache,
        cost_model=cost_model,
        record_timeline=record_timeline,
    )
