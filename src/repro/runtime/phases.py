"""The pipeline's phases, each defined once, and the drivers that run them.

Redundancy removal, component detection and global-reduction bipartite
generation are one program in the paper (Section IV-B; IV-C applies
"only the maximal matching heuristic"): workers generate promising
pairs from suffix indices, the master filters them, workers align the
survivors and the master absorbs each verdict.  Each of the three is
one :class:`AlignmentPhase` here, holding what is specific to it:

* its *sources*, the global indices each suffix index is built over
  (every sequence for RR, the non-redundant ones for CCD, one source
  per component for bipartite generation);
* its master filter: deduplication, so every unique pair is aligned
  (RR, bipartite), or CCD's ``tested`` set and union–find;
* the per-pair verdict (Definition 1 statistics, or the Definition 2
  overlap test), the absorb step (with CCD's checkpoint journal and
  replay) and the result builder.

Two drivers run a definition:

* :func:`run_on_backend` streams it through a
  :class:`~repro.runtime.base.Backend`.  This is the host path; the
  pipeline runs it on a :class:`~repro.runtime.serial.SerialBackend`
  unless told otherwise.
* :func:`run_simulated` runs it through the master–worker protocol of
  :mod:`repro.parallel.masterworker` on a
  :class:`~repro.parallel.VirtualCluster`, aligning every pair with the
  scalar kernels and charging the :class:`~repro.pace.costs.CostModel`.
  The ``parallel_*`` functions of :mod:`repro.pace` call it.

DSD is a different program in each mode (a map over component graphs
here, batches gathered on the simulated Linux cluster in
:mod:`repro.pace.densesub`), so it keeps two drivers that share
:func:`repro.pace.densesub.dsd_result`.

Output equality across backends and processor counts rests on three
invariants:

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

from typing import Any, Sequence

from repro import obs
from repro.align.matrices import ScoringScheme, blosum62_scheme
from repro.graph.bipartite import duplicate_bipartite, wmer_bipartite
from repro.graph.unionfind import UnionFind
from repro.pace.bipartite_gen import ComponentGraphs
from repro.pace.cache import AlignmentCache
from repro.pace.clustering import ClusteringResult, _overlap_passes
from repro.pace.costs import CostModel
from repro.pace.densesub import DsdResult, dsd_result
from repro.pace.redundancy import RedundancyResult
from repro.parallel.masterworker import MasterWorkerConfig, run_master_worker
from repro.parallel.partition import balance_items
from repro.parallel.simulator import SimulationResult, VirtualCluster
from repro.runtime.base import Backend
from repro.sequence.record import SequenceSet
from repro.shingle.algorithm import ShingleParams
from repro.suffix.matches import MaximalMatch, MaximalMatchFinder


#: Pairs per RR submit_many chunk.  Sized for the batched containment
#: engine's sweet spot (the Myers sweep amortises across the pair axis);
#: RR has no master-side filter, so chunking costs no decision freshness.
RR_CHUNK = 512

#: Pairs per bipartite submit_many chunk (pure batched-DP path).
BIPARTITE_CHUNK = 128


class AlignmentPhase:
    """One alignment phase, run by :func:`run_on_backend` or
    :func:`run_simulated`.

    A pair is named by a *key*: ``(a, b)``, local indices into the
    phase's one source, or ``(s, a, b)`` when the phase has one source
    per component.
    """

    #: Backend phase name.
    name: str
    #: "containment" for Definition 1 statistics ``(identity,
    #: coverage_i, coverage_j)``, "local" for a local alignment.
    kernel = "local"
    #: True: the master deduplicates and every unique pair is aligned
    #: (simulated workers deduplicate their own streams first).  False:
    #: the master filters by clustering state.
    unique = True
    #: True: one source per component, and each simulated worker owns
    #: whole components.  False: one source, split across simulated
    #: workers by first-symbol suffix bucket.
    per_component = False
    #: Pairs per host ``submit_many``; None submits pair by pair so the
    #: master filter sees results as early as possible.
    chunk: int | None = None

    def __init__(
        self,
        sequences: SequenceSet,
        sources: Sequence[Sequence[int]],
        similarity: float,
        coverage: float,
        *,
        psi: int,
        max_pairs_per_node: int | None,
    ):
        self.encoded = [record.encoded for record in sequences]
        self.sources = sources
        self.similarity = similarity
        self.coverage = coverage
        self.psi = psi
        self.max_pairs_per_node = max_pairs_per_node
        self.admitted: set[tuple[int, ...]] = set()

    def index(self, source: Sequence[int]) -> MaximalMatchFinder:
        """The suffix index over one source; its matches name local
        indices into ``source``."""
        return MaximalMatchFinder(
            [self.encoded[g] for g in source],
            min_length=self.psi,
            max_pairs_per_node=self.max_pairs_per_node,
        )

    def key(self, source: int, match: MaximalMatch) -> tuple[int, ...]:
        """The key of ``match``, found in source number ``source``."""
        if self.per_component:
            return (source, match.seq_a, match.seq_b)
        return match.pair

    def pair(self, key: tuple[int, ...]) -> tuple[int, int]:
        """Global indices of the pair ``key`` names."""
        source = self.sources[key[0] if self.per_component else 0]
        return source[key[-2]], source[key[-1]]

    def admit(self, key: tuple[int, ...]) -> bool:
        """The master filter: whether to align this pair."""
        if key in self.admitted:
            return False
        self.admitted.add(key)
        return True

    def verdict(self, gi: int, gj: int, raw: Any) -> Any:
        """Definition 2: does the local alignment ``raw`` overlap?"""
        return _overlap_passes(
            raw,
            len(self.encoded[gi]),
            len(self.encoded[gj]),
            self.similarity,
            self.coverage,
        )

    def pack(self, key: tuple[int, ...], verdict: Any) -> Any:
        """The simulated result message; its shape sets the size the
        simulator charges for sending it."""
        return key, verdict

    def unpack(self, message: Any) -> tuple[tuple[int, ...], Any]:
        return message

    def absorb(self, gi: int, gj: int, verdict: Any) -> bool:
        """Apply one verdict to master state; True when the master
        merged it (the simulator charges a merge)."""
        raise NotImplementedError

    def result(self, sim: SimulationResult | None) -> Any:
        """The phase's result; ``sim`` is None on a backend."""
        raise NotImplementedError


class RedundancyPhase(AlignmentPhase):
    """RR (Section IV-A): Definition 1 on every unique promising pair.

    The verdict is the statistics themselves, so backends may answer
    pairs through the batched engine's alignment-free fast paths; the
    ``rr.pairs``/``rr.alignments`` counters still count every pair
    whose Definition 1 verdict was evaluated, whatever the route.
    """

    name = "redundancy"
    kernel = "containment"
    chunk = RR_CHUNK

    def __init__(self, sequences: SequenceSet, similarity: float,
                 coverage: float, *, psi: int,
                 max_pairs_per_node: int | None):
        super().__init__(sequences, [range(len(sequences))], similarity,
                         coverage, psi=psi,
                         max_pairs_per_node=max_pairs_per_node)
        self.redundant: set[int] = set()
        self.containments: list[tuple[int, int]] = []

    def admit(self, key: tuple[int, ...]) -> bool:
        if not super().admit(key):
            return False
        obs.count("rr.pairs")
        obs.count("rr.alignments")
        return True

    def verdict(self, gi: int, gj: int, raw: Any) -> Any:
        return raw

    def pack(self, key: tuple[int, ...], verdict: Any) -> Any:
        return (*key, *verdict)

    def unpack(self, message: Any) -> tuple[tuple[int, ...], Any]:
        return message[:2], message[2:]

    def absorb(self, gi: int, gj: int, verdict: Any) -> bool:
        """Definition 1: remove the contained sequence.  Under mutual
        containment the shorter one goes (ties: the higher index)."""
        identity, cov_i, cov_j = verdict
        if identity >= self.similarity:
            i_in_j = cov_i >= self.coverage
            j_in_i = cov_j >= self.coverage
            if i_in_j and j_in_i:
                # Mutual: only the shorter (ties: higher index) goes.
                len_i, len_j = len(self.encoded[gi]), len(self.encoded[gj])
                i_in_j = (len_i, -gi) < (len_j, -gj)
            if i_in_j:
                self.redundant.add(gi)
                self.containments.append((gi, gj))
            elif j_in_i:
                self.redundant.add(gj)
                self.containments.append((gj, gi))
        return True

    def result(self, sim: SimulationResult | None) -> RedundancyResult:
        obs.count("rr.redundant", len(self.redundant))
        return RedundancyResult(
            redundant=self.redundant,
            kept=[i for i in range(len(self.encoded))
                  if i not in self.redundant],
            n_promising_pairs=len(self.admitted),
            n_alignments=len(self.admitted),
            sim=sim,
            containments=sorted(self.containments),
        )


class ClusteringPhase(AlignmentPhase):
    """CCD (Section IV-B): a union–find over the non-redundant
    sequences.  The master drops every pair already co-clustered (the
    transitive-closure heuristic) or already tested; passing overlap
    verdicts merge clusters.

    Checkpointing: with a :class:`~repro.core.checkpoint.CheckpointJournal`,
    every union that actually merges two clusters is journaled (global
    indices).  On resume, ``replay_unions`` pre-seeds the union–find
    with those merges before the pair stream re-runs — a head start for
    the filter, which can only skip *more* intra-component pairs, never
    change the final components.  Replayed merges are not re-journaled
    (``uf.union`` returns False for them), so the journal never holds
    duplicates.
    """

    name = "clustering"
    unique = False

    def __init__(
        self,
        sequences: SequenceSet,
        kept: Sequence[int],
        similarity: float,
        coverage: float,
        journal=None,
        replay_unions: Sequence[tuple[int, int]] | None = None,
        *,
        psi: int,
        max_pairs_per_node: int | None,
    ):
        super().__init__(sequences, [kept], similarity, coverage, psi=psi,
                         max_pairs_per_node=max_pairs_per_node)
        self.local_of = {g: l for l, g in enumerate(kept)}
        self.uf = UnionFind(len(kept))
        self.journal = journal
        self.n_pairs = 0
        self.n_filtered = 0
        if replay_unions:
            for gi, gj in replay_unions:
                li, lj = self.local_of.get(gi), self.local_of.get(gj)
                if li is not None and lj is not None:
                    self.uf.union(li, lj)

    def admit(self, key: tuple[int, ...]) -> bool:
        self.n_pairs += 1
        obs.count("ccd.pairs")
        if key in self.admitted or self.uf.same(key[0], key[1]):
            self.n_filtered += 1
            obs.count("ccd.filtered")
            return False
        self.admitted.add(key)
        obs.count("ccd.alignments")
        return True

    def absorb(self, gi: int, gj: int, verdict: Any) -> bool:
        if verdict:
            merged = self.uf.union(self.local_of[gi], self.local_of[gj])
            if merged and self.journal is not None:
                self.journal.ccd_union(gi, gj)
            obs.gauge("ccd.components_now",
                      len(self.local_of) - self.uf.merge_count)
        return verdict

    def result(self, sim: SimulationResult | None) -> ClusteringResult:
        groups: dict[int, list[int]] = {}
        for local, g in enumerate(self.sources[0]):
            groups.setdefault(self.uf.find(local), []).append(g)
        components = sorted((sorted(members) for members in groups.values()),
                            key=lambda c: (-len(c), c[0]))
        obs.count("ccd.merges", self.uf.merge_count)
        obs.count("ccd.components", len(components))
        obs.gauge("ccd.components_now", len(components))
        return ClusteringResult(
            components=components,
            n_promising_pairs=self.n_pairs,
            n_filtered=self.n_filtered,
            n_alignments=len(self.admitted),
            n_merges=self.uf.merge_count,
            sim=sim,
        )


class BipartitePhase(AlignmentPhase):
    """Global-reduction bipartite generation (Section IV-C): align every
    unique promising pair inside each component and draw an edge per
    passing pair.  Edges are sorted per component before its graph is
    built, so completion order cannot leak into the output."""

    name = "bipartite"
    per_component = True
    chunk = BIPARTITE_CHUNK

    def __init__(self, sequences: SequenceSet,
                 components: Sequence[Sequence[int]], similarity: float,
                 coverage: float, *, psi: int,
                 max_pairs_per_node: int | None):
        super().__init__(sequences, components, similarity, coverage,
                         psi=psi, max_pairs_per_node=max_pairs_per_node)
        # Components are disjoint, so each global index has one position.
        self.position = {g: (ci, li) for ci, members in enumerate(components)
                         for li, g in enumerate(members)}
        self.edges: list[list[tuple[int, int]]] = [[] for _ in components]
        self.neighbors: dict[int, set[int]] = {}

    def admit(self, key: tuple[int, ...]) -> bool:
        if not super().admit(key):
            return False
        obs.count("bipartite.pairs")
        return True

    def pack(self, key: tuple[int, ...], verdict: Any) -> Any:
        return (*key, verdict)

    def unpack(self, message: Any) -> tuple[tuple[int, ...], Any]:
        return message[:3], message[3]

    def absorb(self, gi: int, gj: int, verdict: Any) -> bool:
        if verdict:
            obs.count("bipartite.edges")
            ci, li = self.position[gi]
            self.edges[ci].append((li, self.position[gj][1]))
            self.neighbors.setdefault(gi, set()).add(gj)
            self.neighbors.setdefault(gj, set()).add(gi)
        return verdict

    def result(self, sim: SimulationResult | None) -> ComponentGraphs:
        out = ComponentGraphs(components=[], graphs=[],
                              neighbors=self.neighbors, sim=sim)
        for members, edges in zip(self.sources, self.edges):
            edges.sort()
            out.n_edges += len(edges)
            out.components.append(list(members))
            out.graphs.append(
                duplicate_bipartite(len(members), edges, labels=members))
            obs.count("bipartite.graphs")
        out.n_alignments = len(self.admitted)
        return out


def run_on_backend(
    phase: AlignmentPhase,
    backend: Backend,
    cache: AlignmentCache,
) -> Any:
    """Host driver: stream ``phase`` through ``backend``.

    Each source's suffix index is built inside the backend phase when
    the pair stream reaches it.  Admitted pairs are submitted in chunks
    of ``phase.chunk`` (or one by one), and finished results are
    absorbed after every submit, so the master filter lags the workers
    by at most the work in flight.
    """
    with backend.phase(phase.name):
        if phase.kernel == "containment":
            stream = backend.containment_stream(
                cache, similarity=phase.similarity, coverage=phase.coverage)
        else:
            stream = backend.alignment_stream("local", cache)

        def absorb(results) -> None:
            for gi, gj, raw in results:
                phase.absorb(gi, gj, phase.verdict(gi, gj, raw))

        chunk: list[tuple[int, int]] = []
        for s, source in enumerate(phase.sources):
            if len(source) < 2:
                continue
            for match in phase.index(source).matches():
                key = phase.key(s, match)
                if not phase.admit(key):
                    continue
                if phase.chunk is None:
                    stream.submit(*phase.pair(key))
                else:
                    chunk.append(phase.pair(key))
                    if len(chunk) < phase.chunk:
                        continue
                    stream.submit_many(chunk)
                    chunk = []
                absorb(stream.ready())
        if chunk:
            stream.submit_many(chunk)
        absorb(stream.drain())
        return phase.result(None)


def run_simulated(
    phase: AlignmentPhase,
    cluster: VirtualCluster,
    *,
    scheme: ScoringScheme | None,
    cache: AlignmentCache | None,
    cost_model: CostModel | None,
    record_timeline: bool,
) -> Any:
    """Simulator driver: run ``phase`` through the master–worker
    protocol on ``cluster``.

    A one-source phase splits its suffix index across workers by
    first-symbol bucket (the distributed GST, LPT-balanced by bucket
    size), each worker charging an equal share of the build.  A
    per-component phase gives each worker whole components
    (LPT-balanced by squared size), each charging its components'
    residues.  Workers also charge every generated pair and alignment;
    the master charges every filtered pair and merged verdict.
    """
    if scheme is None:
        scheme = blosum62_scheme()
    costs = CostModel() if cost_model is None else cost_model
    encoded = phase.encoded
    if cache is None:  # explicit None test: an empty cache is falsy
        cache = AlignmentCache(lambda k: encoded[k], scheme)
    n_workers = max(cluster.n_ranks - 1, 1)

    if phase.per_component:
        finders = [phase.index(source) if len(source) > 1 else None
                   for source in phase.sources]
        owned = balance_items([len(source) ** 2 for source in phase.sources],
                              n_workers)

        def setup_cost(worker, n_w):
            return costs.index_symbol * sum(
                len(encoded[g]) for s in owned[worker]
                for g in phase.sources[s])

        def keys(worker):
            for s in owned[worker]:
                if finders[s] is not None:
                    for match in finders[s].matches():
                        yield phase.key(s, match)
    else:
        (source,) = phase.sources
        finder = phase.index(source)
        symbols = finder.bucket_symbols()
        sizes = finder.bucket_sizes()
        shares = [{symbols[i] for i in bucket} for bucket in
                  balance_items([sizes[s] for s in symbols], n_workers)]
        total_symbols = int(finder.gsa.text.size)

        def setup_cost(worker, n_w):
            return costs.index_symbol * total_symbols / n_w

        def keys(worker):
            for match in finder.matches_for_symbols(shares[worker]):
                yield phase.key(0, match)

    def make_generator(worker, n_w):
        seen = set()
        for key in keys(worker):
            if phase.unique:
                if key in seen:
                    continue
                seen.add(key)
            yield key, costs.generate_pair

    def execute_task(key):
        gi, gj = phase.pair(key)
        len_i, len_j = len(encoded[gi]), len(encoded[gj])
        if phase.kernel == "containment":
            aln = cache.semiglobal(gi, gj)
            raw = (aln.identity, aln.coverage_a(len_i), aln.coverage_b(len_j))
        else:
            raw = cache.local(gi, gj)
        verdict = phase.verdict(gi, gj, raw)
        return phase.pack(key, verdict), costs.alignment(len_i, len_j)

    def absorb_result(message):
        key, verdict = phase.unpack(message)
        return costs.merge if phase.absorb(*phase.pair(key), verdict) else 0.0

    config = MasterWorkerConfig(
        make_generator=make_generator,
        filter_item=lambda key: key if phase.admit(key) else None,
        execute_task=execute_task,
        absorb_result=absorb_result,
        filter_cost=costs.dedup_pair if phase.unique else costs.filter_pair,
        setup_cost=setup_cost,
    )
    _, sim = run_master_worker(cluster, config, record_timeline=record_timeline)
    return phase.result(sim)


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
    """RR phase on a backend (see :class:`RedundancyPhase`)."""
    return run_on_backend(
        RedundancyPhase(sequences, similarity, coverage, psi=psi,
                        max_pairs_per_node=max_pairs_per_node),
        backend, cache)


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
    """CCD phase on a backend (see :class:`ClusteringPhase`).  Under a
    concurrent backend the filter lags by the pairs in flight, so
    slightly more pairs get aligned than on the serial backend; the
    components are identical."""
    return run_on_backend(
        ClusteringPhase(sequences, kept, similarity, coverage, journal,
                        replay_unions, psi=psi,
                        max_pairs_per_node=max_pairs_per_node),
        backend, cache)


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
    """Bipartite generation on a backend, for the components of at least
    ``min_size`` members: :class:`BipartitePhase` for the global
    reduction, shared ``w``-mers for the domain reduction."""
    if reduction not in ("global", "domain"):
        raise ValueError(f"unknown reduction {reduction!r}")
    qualifying = [sorted(c) for c in components if len(c) >= min_size]
    if reduction == "global":
        return run_on_backend(
            BipartitePhase(sequences, qualifying, edge_similarity,
                           edge_coverage, psi=psi,
                           max_pairs_per_node=max_pairs_per_node),
            backend, cache)
    out = ComponentGraphs(components=[], graphs=[], reduction=reduction)
    with backend.phase("bipartite"):
        for members in qualifying:
            out.components.append(members)
            out.graphs.append(wmer_bipartite(
                [sequences[g].encoded for g in members],
                w=w,
                min_sequences=2,
                sequence_labels=members,
            ))
            obs.count("bipartite.graphs")
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
    return dsd_result(results, None)
