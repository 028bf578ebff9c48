"""PaCE-style phases of the pipeline: results, verdicts, simulated runs.

Each phase is defined once, in :mod:`repro.runtime.phases`, and run by
one of two drivers: the host driver streams it through an execution
backend (the ``backend_*`` functions), the simulator driver runs it
through the master-worker protocol on a
:class:`repro.parallel.VirtualCluster`, aligning every pair with the
scalar kernels and yielding simulated run-times.  This package holds
the phases' result types, the Definition 2 overlap verdict, the
alignment cache, the cost model, and the ``parallel_*`` entry points
that call the simulator driver (DSD keeps its own simulated driver
here).  A key design invariant, verified by tests: simulated runs
produce byte-identical scientific results for every processor count,
and the same results as the host path, because the master's
transitive-closure filter only skips pairs whose outcome cannot affect
connectivity.
"""

from repro.pace.cache import AlignmentCache
from repro.pace.costs import CostModel
from repro.pace.redundancy import RedundancyResult, parallel_redundancy_removal
from repro.pace.clustering import ClusteringResult, parallel_component_detection
from repro.pace.bipartite_gen import (
    ComponentGraphs,
    parallel_generate_component_graphs,
)
from repro.pace.densesub import DsdResult, parallel_dense_subgraph_detection

__all__ = [
    "AlignmentCache",
    "CostModel",
    "RedundancyResult",
    "parallel_redundancy_removal",
    "ClusteringResult",
    "parallel_component_detection",
    "ComponentGraphs",
    "parallel_generate_component_graphs",
    "DsdResult",
    "parallel_dense_subgraph_detection",
]
