"""PaCE-style phases of the pipeline, as the simulator runs them.

Each phase is defined once for execution on the host: the
``backend_*`` functions of :mod:`repro.runtime.phases`, run by the
pipeline on a :class:`~repro.runtime.SerialBackend` by default.  This
package holds what those functions share (result types, the
Definition 1/2 verdicts, the alignment cache) and the *parallel*
drivers, which execute the same decisions through the master-worker
protocol on a :class:`repro.parallel.VirtualCluster`, aligning every
pair with the scalar kernels and yielding simulated run-times.  A key
design invariant, verified by tests: the parallel drivers produce
byte-identical scientific results for every processor count, and the
same results as the host path, because the master's transitive-closure
filter only skips pairs whose outcome cannot affect connectivity.
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
