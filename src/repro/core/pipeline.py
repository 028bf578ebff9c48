"""The four-phase protein-family identification pipeline (Figure 2).

``ProteinFamilyPipeline`` orchestrates redundancy removal, connected
component detection, bipartite graph generation, and dense subgraph
detection.  Each phase is defined once, in :mod:`repro.runtime.phases`,
and one of two drivers runs it:

* the host driver, on an execution backend (:mod:`repro.runtime`): the
  in-process :class:`~repro.runtime.SerialBackend` by default, or
  worker processes that spread the alignment and Shingle work over the
  host's cores.  It reports *measured* wall-clock timings.
* the simulator driver, through the ``parallel_*`` functions of
  :mod:`repro.pace`, when the phase is given a simulated cluster (the
  paper used BlueGene/L for RR and CCD and a Linux cluster for DSD).
  It reports simulated timings.

The scientific results are identical in every mode.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.config import PipelineConfig
from repro.eval.report import Table1Row, table1_row
from repro.obs import (
    DEFAULT_INTERVAL,
    Recorder,
    TelemetrySampler,
    record_simulation,
    recording,
)
from repro.pace.bipartite_gen import (
    ComponentGraphs,
    parallel_generate_component_graphs,
)
from repro.pace.cache import AlignmentCache
from repro.pace.clustering import ClusteringResult, parallel_component_detection
from repro.pace.costs import CostModel
from repro.pace.densesub import DsdResult, parallel_dense_subgraph_detection
from repro.pace.redundancy import RedundancyResult, parallel_redundancy_removal
from repro.parallel.simulator import VirtualCluster
from repro.runtime import Backend, RuntimeStats, SerialBackend, make_backend
from repro.runtime.phases import (
    backend_component_detection,
    backend_dense_subgraph_detection,
    backend_generate_component_graphs,
    backend_redundancy_removal,
)
from repro.sequence.record import SequenceSet


@dataclass
class PhaseTimings:
    """Simulated seconds per phase (zero for a phase run on a backend)."""

    redundancy: float = 0.0
    clustering: float = 0.0
    bipartite: float = 0.0
    dense_subgraphs: float = 0.0

    @property
    def rr_ccd(self) -> float:
        """The combined RR + CCD figure of Figures 6-7."""
        return self.redundancy + self.clustering

    @property
    def total(self) -> float:
        return (
            self.redundancy
            + self.clustering
            + self.bipartite
            + self.dense_subgraphs
        )


@dataclass
class PipelineResult:
    """Everything a pipeline run produces."""

    config: PipelineConfig
    n_input: int
    redundancy: RedundancyResult
    clustering: ClusteringResult
    graphs: ComponentGraphs
    dense: DsdResult
    timings: PhaseTimings = field(default_factory=PhaseTimings)
    runtime: RuntimeStats | None = None
    """Measured wall-clock stats when run on an execution backend."""
    obs: Recorder | None = None
    """The run's observability recorder: phase/task spans, scientific and
    work counters, and (in simulated mode) the virtual-time timeline.
    Export with :func:`repro.obs.write_chrome_trace` /
    :func:`repro.obs.write_counters_json`."""

    @property
    def families(self) -> list[tuple[int, ...]]:
        """Final dense subgraphs as tuples of global sequence indices."""
        return self.dense.subgraphs

    def family_ids(self, sequences: SequenceSet) -> list[list[str]]:
        """Families as lists of sequence id strings."""
        return [[sequences[i].id for i in family] for family in self.families]

    def table1(self) -> Table1Row:
        """The paper's Table I summary row for this run."""
        return table1_row(
            n_input=self.n_input,
            n_nonredundant=self.redundancy.n_nonredundant,
            components=self.clustering.components,
            subgraphs=self.dense.subgraphs,
            neighbors=self.graphs.neighbors,
            min_component_size=self.config.min_component_size,
        )


class ProteinFamilyPipeline:
    """End-to-end pipeline runner.

    >>> pipeline = ProteinFamilyPipeline(PipelineConfig())
    >>> result = pipeline.run(sequences)                 # SerialBackend
    >>> result = pipeline.run(sequences, cluster=c512)   # simulated parallel
    >>> result = pipeline.run(sequences, backend="process", workers=4)
    """

    def __init__(self, config: PipelineConfig | None = None):
        self.config = PipelineConfig() if config is None else config

    def _make_cache(self, sequences: SequenceSet) -> AlignmentCache:
        encoded = [record.encoded for record in sequences]
        return AlignmentCache(lambda k: encoded[k], self.config.scheme)

    def _run_meta(
        self, sequences: SequenceSet, *, mode: str, workers: int
    ) -> dict:
        """Run-identifying metadata stamped on the recorder (and thence
        into every export)."""
        return {
            "mode": mode,
            "workers": workers,
            "n_input": len(sequences),
            "psi": self.config.psi,
            "reduction": self.config.reduction,
        }

    def _open_journal(
        self,
        sequences: SequenceSet,
        run_dir: str | Path | None,
        resume: bool,
    ):
        """Open the checkpoint journal for this run, or None."""
        if run_dir is None and not resume:
            return None
        if resume and run_dir is None:
            raise ValueError("resume requires run_dir")
        from repro.core import checkpoint
        from repro.faults.plan import FaultInjector

        injector = None
        if self.config.fault_plan is not None and self.config.fault_plan:
            injector = FaultInjector(self.config.fault_plan)
        opener = checkpoint.CheckpointJournal.resume if resume \
            else checkpoint.CheckpointJournal.start
        return opener(
            run_dir,
            config_dig=checkpoint.config_digest(self.config),
            input_dig=checkpoint.input_digest(sequences),
            n_input=len(sequences),
            injector=injector,
        )

    def run(
        self,
        sequences: SequenceSet,
        *,
        cluster: VirtualCluster | None = None,
        dsd_cluster: VirtualCluster | None = None,
        cache: AlignmentCache | None = None,
        cost_model: CostModel | None = None,
        backend: Backend | str | None = None,
        workers: int | None = None,
        recorder: Recorder | None = None,
        observe: bool = True,
        telemetry_dir: str | Path | None = None,
        telemetry_interval: float = DEFAULT_INTERVAL,
        run_dir: str | Path | None = None,
        resume: bool = False,
    ) -> PipelineResult:
        """Run all four phases.

        With no simulated cluster the phases run on an execution
        backend: ``backend`` ("serial", "process", or a
        :class:`~repro.runtime.Backend` instance; default:
        ``config.backend``, itself :class:`~repro.runtime.SerialBackend`
        unless configured otherwise).  Measured wall-clock stats land in
        ``result.runtime``.

        ``cluster`` (if given) simulates the RR, CCD and global-reduction
        bipartite phases on that machine; ``dsd_cluster`` does the same
        for the dense-subgraph phase.  A phase left without a cluster
        runs the same backend phase functions on a ``SerialBackend``.
        Simulated runs report virtual timings in ``result.timings`` and
        no ``result.runtime``; a simulated cluster and an explicit
        ``backend`` are mutually exclusive.  Every mode returns
        identical ``families``/Table I output.

        ``cache`` may be shared across runs on the same sequence set to
        avoid recomputing identical alignments (host-side only;
        simulated costs are unaffected).

        Every run records spans and counters into a
        :class:`repro.obs.Recorder` (pass ``recorder`` to supply your
        own, e.g. to accumulate several runs); it is returned as
        ``result.obs``.  ``observe=False`` runs bare — no ambient
        recorder, no sampler — which is what the observability-overhead
        benchmark compares against.  ``telemetry_dir`` additionally
        starts a :class:`repro.obs.TelemetrySampler` streaming live
        snapshots (every ``telemetry_interval`` seconds) to
        ``<telemetry_dir>/telemetry.jsonl`` for ``repro top``.

        ``run_dir`` additionally journals phase checkpoints to
        ``<run_dir>/checkpoint.jsonl`` (crash-consistent, CRC-framed;
        see :mod:`repro.core.checkpoint`); ``resume=True`` reopens that
        journal, skips phases it records as done, and replays CCD from
        the last checkpointed union.  Checkpointing the simulator's
        virtual timeline is not supported.
        """
        config = self.config
        simulated = cluster is not None or dsd_cluster is not None
        if simulated:
            if backend is not None:
                raise ValueError(
                    "a simulated cluster and an execution backend are "
                    "mutually exclusive; pass one or the other"
                )
            if run_dir is not None or resume:
                raise ValueError(
                    "checkpointing (run_dir/resume) requires an execution "
                    "backend, not a simulated cluster"
                )
            host: Backend | None = SerialBackend()
        else:
            if workers is None and config.workers:
                workers = config.workers
            host = make_backend(
                config.backend if backend is None else backend,
                workers,
                fault_plan=config.fault_plan,
                task_deadline=config.task_deadline,
                respawn_budget=config.respawn_budget,
            )
        assert host is not None  # a name or an instance always resolves
        if cache is None:  # explicit None test: an empty cache is falsy
            cache = self._make_cache(sequences)
        journal = self._open_journal(sequences, run_dir, resume)
        if recorder is None:
            if simulated:
                ranks = max(c.n_ranks for c in (cluster, dsd_cluster)
                            if c is not None)
                meta = self._run_meta(sequences, mode="simulated",
                                      workers=ranks)
            else:
                meta = self._run_meta(sequences, mode=host.name,
                                      workers=host.workers)
            recorder = Recorder(meta=meta)
        try:
            with self._observing(recorder, observe, telemetry_dir,
                                 telemetry_interval, cache,
                                 None if simulated else host):
                result = self._run_phases(
                    sequences, host, cache, recorder,
                    cluster, dsd_cluster, cost_model, journal,
                )
        finally:
            if journal is not None:
                journal.close()
        if not simulated:
            result.runtime = host.stats
        result.obs = recorder if observe else None
        return result

    @contextlib.contextmanager
    def _observing(
        self,
        recorder: Recorder,
        observe: bool,
        telemetry_dir: str | Path | None,
        telemetry_interval: float,
        cache: AlignmentCache,
        backend: Backend | None = None,
    ):
        """Install the ambient recorder — and, when ``telemetry_dir`` is
        given, the sampling thread — around one run.  A run that raises
        still gets its telemetry end record (status "error"), so a
        monitored crash is distinguishable from a SIGKILL."""
        if not observe:
            yield
            return
        with recording(recorder):
            if telemetry_dir is None:
                yield
                return
            sampler = TelemetrySampler(
                recorder,
                telemetry_dir,
                interval=telemetry_interval,
                probes={"cache": cache.stats},
            )
            if backend is not None:
                sampler.add_probe("runtime", backend.telemetry_probe)
            with sampler:
                yield

    def _run_phases(
        self,
        sequences: SequenceSet,
        host: Backend,
        cache: AlignmentCache,
        recorder: Recorder,
        cluster: VirtualCluster | None,
        dsd_cluster: VirtualCluster | None,
        cost_model: CostModel | None,
        journal,
    ) -> PipelineResult:
        """Run the four phases in order, each on its simulated cluster
        when one is given and on ``host`` otherwise.

        Simulated phases are stacked end-to-end on the virtual-time
        track, mirroring the paper's sequential phase execution.

        With a checkpoint ``journal``: each phase is bracketed by
        ``phase_start``/``phase_done`` records, and on resume a phase
        the journal records as done is *rebuilt from its payload* —
        skipped entirely (its counters are not re-emitted; see
        :mod:`repro.core.checkpoint`).  A half-finished CCD resumes by
        replaying the journaled unions into the fresh union–find before
        re-running the phase.
        """
        from repro.core import checkpoint as ckpt

        config = self.config
        state = journal.resume_state if journal is not None else None
        timings = PhaseTimings()
        sim_offset = 0.0

        def run(phase: str, rebuild, payload, on: VirtualCluster | None,
                on_host, simulated):
            """One phase: rebuilt by ``rebuild`` from the journal when it
            records the phase as done; else ``simulated(on)`` when the
            phase has a simulated cluster ``on``, else ``on_host()``,
            journaled through ``payload``.  A simulated phase stacks its
            virtual timeline after the previous phase's."""
            nonlocal sim_offset
            if state is not None and state.has(phase):
                recorder.count("checkpoint.phases_skipped")
                return rebuild(state.payload(phase))
            if journal is not None:
                journal.phase_start(phase)
            cache.set_phase(phase)
            if on is None:
                result = on_host()
            else:
                with recorder.span(phase, cat="phase"):
                    result = simulated(on)
                setattr(timings, phase, result.sim.elapsed)
                sim_offset = record_simulation(
                    recorder, result.sim, phase, offset=sim_offset
                )
            # A None payload (the domain reduction's alignment-free
            # graphs) is cheaper to recompute on resume than to store.
            stored = payload(result) if journal is not None else None
            if stored is not None:
                journal.phase_done(phase, stored)
            return result

        matching: dict[str, Any] = dict(
            psi=config.psi, max_pairs_per_node=config.max_pairs_per_node)
        simulated: dict[str, Any] = dict(
            scheme=config.scheme, cache=cache, cost_model=cost_model)
        with host.session(sequences, config.scheme):
            rr_args = dict(matching,
                           similarity=config.containment_similarity,
                           coverage=config.containment_coverage)
            rr = run(
                "redundancy",
                lambda payload: ckpt.redundancy_from_payload(
                    payload, len(sequences)),
                ckpt.redundancy_payload,
                cluster,
                lambda: backend_redundancy_removal(
                    sequences, host, cache, **rr_args),
                lambda on: parallel_redundancy_removal(
                    sequences, on, **simulated, **rr_args),
            )

            ccd_args = dict(matching, similarity=config.overlap_similarity,
                            coverage=config.overlap_coverage)
            ccd = run(
                "clustering",
                ckpt.clustering_from_payload,
                ckpt.clustering_payload,
                cluster,
                lambda: backend_component_detection(
                    sequences, rr.kept, host, cache, **ccd_args,
                    journal=journal,
                    replay_unions=(state.ccd_unions
                                   if state is not None else None)),
                lambda on: parallel_component_detection(
                    sequences, rr.kept, on, **simulated, **ccd_args),
            )

            qualifying = ccd.components_of_size(config.min_component_size)
            bgg_args = dict(matching,
                            edge_similarity=config.edge_similarity,
                            edge_coverage=config.edge_coverage,
                            min_size=config.min_component_size)
            graphs = run(
                "bipartite",
                ckpt.bipartite_from_payload,
                ckpt.bipartite_payload,
                cluster if config.reduction == "global" else None,
                lambda: backend_generate_component_graphs(
                    sequences, qualifying, host, cache, **bgg_args,
                    reduction=config.reduction, w=config.w),
                lambda on: parallel_generate_component_graphs(
                    sequences, qualifying, on, **simulated, **bgg_args),
            )

            dsd_args: dict[str, Any] = dict(
                params=config.shingle, min_size=config.min_subgraph_size,
                tau=config.tau)
            dense = run(
                "dense_subgraphs",
                ckpt.dense_from_payload,
                ckpt.dense_payload,
                dsd_cluster,
                lambda: backend_dense_subgraph_detection(
                    graphs, host, **dsd_args),
                lambda on: parallel_dense_subgraph_detection(
                    graphs, on, cost_model=cost_model, **dsd_args),
            )
        host.stats.cache = cache.stats()
        cache.record_observations(recorder)
        return PipelineResult(
            config=config,
            n_input=len(sequences),
            redundancy=rr,
            clustering=ccd,
            graphs=graphs,
            dense=dense,
            timings=timings,
        )
