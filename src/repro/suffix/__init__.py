"""Exact-match string indices.

The paper's pattern-matching heuristic rests on a generalized suffix tree
(GST) used to enumerate *maximal match* pairs of length >= psi.  This
package provides:

* :mod:`repro.suffix.suffix_array` — the production path: a vectorised
  rank-doubling suffix array + Kasai LCP over the sentinel-separated
  concatenation of all sequences (an enhanced suffix array is equivalent
  to a suffix tree for this task).
* :mod:`repro.suffix.intervals` — the LCP-interval tree (the suffix-tree
  node hierarchy recovered from SA+LCP).
* :mod:`repro.suffix.matches` — maximal-match pair generation in
  decreasing match-length order, exactly the PaCE "promising pair"
  stream.
* :mod:`repro.suffix.gst` — a direct compressed generalized suffix tree
  built by suffix insertion; quadratic worst case, used as the oracle in
  property tests and for small inputs.
* :mod:`repro.suffix.wmer` — the fixed-length w-mer incidence index for
  the domain-based bipartite reduction B_m.
"""

from repro.suffix.suffix_array import (
    GeneralizedSuffixArray,
    kasai_lcp,
    suffix_array,
)
from repro.suffix.intervals import LcpInterval, lcp_interval_tree
from repro.suffix.matches import MaximalMatch, MaximalMatchFinder
from repro.suffix.gst import GeneralizedSuffixTree
from repro.suffix.wmer import WmerIndex

__all__ = [
    "GeneralizedSuffixArray",
    "kasai_lcp",
    "suffix_array",
    "LcpInterval",
    "lcp_interval_tree",
    "MaximalMatch",
    "MaximalMatchFinder",
    "GeneralizedSuffixTree",
    "WmerIndex",
]
