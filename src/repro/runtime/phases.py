"""The pipeline's four phases, defined once for execution on the host.

Each function runs one phase of the paper, routing the alignment/Shingle
work through a :class:`~repro.runtime.base.Backend` stream and keeping
all decision state on the master.  The pipeline runs them on a
:class:`~repro.runtime.serial.SerialBackend` unless told otherwise.
Output equality across backends, and with the simulated ``parallel_*``
drivers of :mod:`repro.pace`, rests on the invariants the simulator
relies on too (see module docstrings in :mod:`repro.pace.redundancy`,
:mod:`repro.pace.clustering`, :mod:`repro.pace.bipartite_gen`):

* RR aligns a deterministic pair set and Definition 1 verdicts are
  per-pair, so absorption order is irrelevant;
* CCD's transitive-closure filter only drops already-intra-component
  pairs, so a *lagging* union–find (results absorbed asynchronously)
  can only align more pairs, never change the components;
* bipartite edges and dense subgraphs are canonically sorted before
  they feed the next stage.

Counters that describe *work done* (``n_filtered``, ``n_alignments``)
legitimately vary with backend concurrency, exactly as they vary with
processor count in the paper's Table II.
"""

from __future__ import annotations

from typing import Sequence

from repro import obs
from repro.graph.bipartite import duplicate_bipartite, wmer_bipartite
from repro.graph.unionfind import UnionFind
from repro.pace.bipartite_gen import ComponentGraphs
from repro.pace.cache import AlignmentCache
from repro.pace.clustering import (
    ClusteringResult,
    _components_from_uf,
    _observe_clustering,
    _overlap_passes,
)
from repro.pace.densesub import DsdResult
from repro.pace.redundancy import RedundancyResult, _build_result, _decide
from repro.runtime.base import Backend
from repro.sequence.record import SequenceSet
from repro.shingle.algorithm import ShingleParams
from repro.suffix.matches import MaximalMatchFinder


#: Pairs per RR submit_many chunk.  Sized for the batched containment
#: engine's sweet spot (the Myers sweep amortises across the pair axis);
#: RR has no master-side filter, so chunking costs no decision freshness.
RR_CHUNK = 512

#: Pairs per bipartite submit_many chunk (pure batched-DP path).
BIPARTITE_CHUNK = 128


def backend_redundancy_removal(
    sequences: SequenceSet,
    backend: Backend,
    cache: AlignmentCache,
    *,
    psi: int,
    similarity: float,
    coverage: float,
    max_pairs_per_node: int | None = None,
) -> RedundancyResult:
    """RR phase on a backend: all unique promising pairs are submitted in
    chunks to the containment stream and Definition 1 verdicts absorbed
    in completion order.

    The stream yields ``(identity, coverage_i, coverage_j)`` statistics
    rather than Alignments, so backends may answer pairs through the
    batched engine's alignment-free fast paths; the scientific counters
    (``rr.pairs``/``rr.alignments``) still count every pair whose
    Definition 1 verdict was evaluated, regardless of compute route.
    """
    encoded = [record.encoded for record in sequences]
    redundant: set[int] = set()
    containments: list[tuple[int, int]] = []
    n_pairs = 0

    def absorb(i: int, j: int, stats: tuple[float, float, float]) -> None:
        identity, cov_i, cov_j = stats
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

    with backend.phase("redundancy"):
        finder = MaximalMatchFinder(
            encoded, min_length=psi, max_pairs_per_node=max_pairs_per_node
        )
        stream = backend.containment_stream(
            cache, similarity=similarity, coverage=coverage
        )
        chunk: list[tuple[int, int]] = []
        for match in finder.unique_pairs():
            n_pairs += 1
            obs.count("rr.pairs")
            obs.count("rr.alignments")
            chunk.append(match.pair)
            if len(chunk) >= RR_CHUNK:
                stream.submit_many(chunk)
                chunk = []
                for i, j, stats in stream.ready():
                    absorb(i, j, stats)
        if chunk:
            stream.submit_many(chunk)
        for i, j, stats in stream.drain():
            absorb(i, j, stats)

    return _build_result(
        len(sequences), redundant, containments, n_pairs, n_pairs, None
    )


def backend_component_detection(
    sequences: SequenceSet,
    kept: Sequence[int],
    backend: Backend,
    cache: AlignmentCache,
    *,
    psi: int,
    similarity: float,
    coverage: float,
    max_pairs_per_node: int | None = None,
    journal=None,
    replay_unions: Sequence[tuple[int, int]] | None = None,
) -> ClusteringResult:
    """CCD phase on a backend.

    The master filters each promising pair against the union–find
    *before* dispatch and unions passing alignments as results stream
    back.  Under a concurrent backend the filter lags by the batch in
    flight, so slightly more pairs get aligned than on the serial
    backend — the components are provably identical (see
    module docstring), only the work counters move, as in the paper.

    Checkpointing: when a :class:`~repro.core.checkpoint.CheckpointJournal`
    is passed, every union that actually merges two clusters is
    journaled (global indices).  On resume, ``replay_unions`` pre-seeds
    the union–find with those journaled merges before the pair stream
    re-runs — a head start for the transitive-closure filter, which can
    only skip *more* intra-component pairs, never change the final
    components.  The replayed merges themselves are not re-journaled
    (``uf.union`` returns False for them), so the journal never holds
    duplicates.
    """
    encoded_all = [record.encoded for record in sequences]
    local_encoded = [encoded_all[g] for g in kept]
    local_of = {g: l for l, g in enumerate(kept)}
    uf = UnionFind(len(kept))
    if replay_unions:
        for gi, gj in replay_unions:
            li, lj = local_of.get(gi), local_of.get(gj)
            if li is not None and lj is not None:
                uf.union(li, lj)
    tested: set[tuple[int, int]] = set()
    n_pairs = 0
    n_filtered = 0
    n_aligned = 0

    def absorb(gi: int, gj: int, aln) -> None:
        if _overlap_passes(
            aln,
            len(encoded_all[gi]),
            len(encoded_all[gj]),
            similarity,
            coverage,
        ):
            if uf.union(local_of[gi], local_of[gj]) and journal is not None:
                journal.ccd_union(gi, gj)
            obs.gauge("ccd.components_now", len(kept) - uf.merge_count)

    with backend.phase("clustering"):
        finder = MaximalMatchFinder(
            local_encoded,
            min_length=psi,
            max_pairs_per_node=max_pairs_per_node,
        )
        stream = backend.alignment_stream("local", cache)
        for match in finder.matches():
            n_pairs += 1
            obs.count("ccd.pairs")
            pair = match.pair
            if pair in tested or uf.same(pair[0], pair[1]):
                n_filtered += 1
                obs.count("ccd.filtered")
                continue
            tested.add(pair)
            n_aligned += 1
            obs.count("ccd.alignments")
            stream.submit(kept[pair[0]], kept[pair[1]])
            for gi, gj, aln in stream.ready():
                absorb(gi, gj, aln)
        for gi, gj, aln in stream.drain():
            absorb(gi, gj, aln)

    components = _components_from_uf(kept, uf)
    _observe_clustering(uf, components)
    return ClusteringResult(
        components=components,
        n_promising_pairs=n_pairs,
        n_filtered=n_filtered,
        n_alignments=n_aligned,
        n_merges=uf.merge_count,
        sim=None,
    )


def backend_generate_component_graphs(
    sequences: SequenceSet,
    components: Sequence[Sequence[int]],
    backend: Backend,
    cache: AlignmentCache,
    *,
    reduction: str = "global",
    psi: int,
    edge_similarity: float,
    edge_coverage: float,
    w: int = 10,
    min_size: int,
    max_pairs_per_node: int | None = None,
) -> ComponentGraphs:
    """Bipartite generation on a backend.

    Components are independent; the global reduction aligns every unique
    intra-component promising pair (no clustering filter), collecting
    edges per component and sorting them canonically before the graphs
    are built, so edge *completion* order cannot leak into the output.
    """
    if reduction not in ("global", "domain"):
        raise ValueError(f"unknown reduction {reduction!r}")
    encoded_all = [record.encoded for record in sequences]
    qualifying = [sorted(c) for c in components if len(c) >= min_size]
    out = ComponentGraphs(components=[], graphs=[], reduction=reduction)

    with backend.phase("bipartite"):
        if reduction == "domain":
            for members in qualifying:
                graph = wmer_bipartite(
                    [encoded_all[g] for g in members],
                    w=w,
                    min_sequences=2,
                    sequence_labels=members,
                )
                out.components.append(members)
                out.graphs.append(graph)
                obs.count("bipartite.graphs")
            return out

        # Global index -> (component index, local index); components are
        # disjoint so the mapping is single-valued.
        position: dict[int, tuple[int, int]] = {
            g: (ci, li)
            for ci, members in enumerate(qualifying)
            for li, g in enumerate(members)
        }
        edges_per_component: dict[int, list[tuple[int, int]]] = {
            ci: [] for ci in range(len(qualifying))
        }
        n_alignments = 0

        def absorb(gi: int, gj: int, aln) -> None:
            if _overlap_passes(
                aln,
                len(encoded_all[gi]),
                len(encoded_all[gj]),
                edge_similarity,
                edge_coverage,
            ):
                obs.count("bipartite.edges")
                ci, li = position[gi]
                _, lj = position[gj]
                edges_per_component[ci].append((li, lj))
                out.neighbors.setdefault(gi, set()).add(gj)
                out.neighbors.setdefault(gj, set()).add(gi)

        stream = backend.alignment_stream("local", cache)
        chunk: list[tuple[int, int]] = []
        for ci, members in enumerate(qualifying):
            if len(members) < 2:
                continue
            finder = MaximalMatchFinder(
                [encoded_all[g] for g in members],
                min_length=psi,
                max_pairs_per_node=max_pairs_per_node,
            )
            for match in finder.unique_pairs():
                n_alignments += 1
                obs.count("bipartite.pairs")
                chunk.append((members[match.seq_a], members[match.seq_b]))
                if len(chunk) >= BIPARTITE_CHUNK:
                    stream.submit_many(chunk)
                    chunk = []
                    for gi, gj, aln in stream.ready():
                        absorb(gi, gj, aln)
        if chunk:
            stream.submit_many(chunk)
        for gi, gj, aln in stream.drain():
            absorb(gi, gj, aln)

        for ci, members in enumerate(qualifying):
            local_edges = sorted(edges_per_component[ci])
            out.n_edges += len(local_edges)
            out.components.append(members)
            out.graphs.append(
                duplicate_bipartite(len(members), local_edges, labels=members)
            )
            obs.count("bipartite.graphs")
        out.n_alignments = n_alignments
    return out


def backend_dense_subgraph_detection(
    component_graphs: ComponentGraphs,
    backend: Backend,
    *,
    params: ShingleParams | None = None,
    min_size: int = 5,
    tau: float = 0.5,
) -> DsdResult:
    """DSD phase on a backend: parallel map over component graphs."""
    if params is None:
        params = ShingleParams()
    with backend.phase("dense_subgraphs"):
        results = backend.map_components(
            component_graphs.graphs,
            component_graphs.reduction,
            params,
            min_size,
            tau,
        )
    out = DsdResult(subgraphs=[])
    for finals, raw, stats in results:
        out.subgraphs.extend(finals)
        out.raw.extend(raw)
        out.shingle_stats.append(stats)
    out.subgraphs.sort(key=lambda sg: (-len(sg), sg))
    return out
