"""Execution-backend tests: result invariance, crash safety, stats.

The central guarantee of :mod:`repro.runtime` is that ``families`` and
the Table I row are bit-identical across backends for a fixed config;
these tests check it end to end on a seeded generated workload, plus
the operational contracts (clean worker-crash propagation, shared-store
round-trips, wall-clock stats bookkeeping).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.align.matrices import blosum62_scheme
from repro.core.config import PipelineConfig
from repro.core.pipeline import ProteinFamilyPipeline
from repro.pace.cache import AlignmentCache
from repro.parallel.simulator import VirtualCluster
from repro.runtime import (
    BackendError,
    ProcessBackend,
    SerialBackend,
    SharedSequenceStore,
    WorkerCrashError,
    default_worker_count,
    make_backend,
    runtime_info,
)
from repro.shingle.algorithm import ShingleParams


@pytest.fixture(scope="module")
def workload(tiny_metagenome):
    config = PipelineConfig(
        shingle=ShingleParams(s1=3, c1=40, s2=3, c2=13),
        min_component_size=4,
        min_subgraph_size=4,
    )
    return tiny_metagenome.sequences, config


@pytest.fixture(scope="module")
def reference(workload):
    sequences, config = workload
    return ProteinFamilyPipeline(config).run(sequences)


class TestResultInvariance:
    def test_serial_backend_matches_reference(self, workload, reference):
        sequences, config = workload
        result = ProteinFamilyPipeline(config).run(sequences, backend="serial")
        assert result.families == reference.families
        assert result.table1() == reference.table1()
        # The serial backend also reproduces the reference work counters.
        assert result.clustering.n_alignments == reference.clustering.n_alignments
        assert result.redundancy.containments == reference.redundancy.containments

    def test_process_backend_matches_reference(self, workload, reference):
        sequences, config = workload
        backend = ProcessBackend(workers=2, batch_size=8)
        result = ProteinFamilyPipeline(config).run(sequences, backend=backend)
        assert result.families == reference.families
        assert result.table1() == reference.table1()
        assert result.redundancy.kept == reference.redundancy.kept
        assert result.clustering.components == reference.clustering.components
        assert result.graphs.n_edges == reference.graphs.n_edges
        assert result.graphs.neighbors == reference.graphs.neighbors

    def test_process_backend_matches_simulator(self, workload, reference):
        """Simulator and runtime agree: the same families at any scale."""
        sequences, config = workload
        sim = ProteinFamilyPipeline(config).run(
            sequences, cluster=VirtualCluster(8), dsd_cluster=VirtualCluster(4)
        )
        assert sim.families == reference.families

    def test_config_backend_field(self, workload, reference):
        sequences, config = workload
        from dataclasses import replace

        configured = replace(config, backend="process", workers=2)
        result = ProteinFamilyPipeline(configured).run(sequences)
        assert result.runtime is not None
        assert result.runtime.backend == "process"
        assert result.families == reference.families

    def test_backend_and_cluster_are_exclusive(self, workload):
        sequences, config = workload
        with pytest.raises(ValueError, match="mutually exclusive"):
            ProteinFamilyPipeline(config).run(
                sequences, cluster=VirtualCluster(4), backend="serial"
            )


class TestRuntimeStats:
    def test_phases_and_utilization(self, workload):
        sequences, config = workload
        result = ProteinFamilyPipeline(config).run(sequences, backend="serial")
        stats = result.runtime
        assert stats is not None
        assert stats.backend == "serial"
        assert set(stats.phases) == {
            "redundancy", "clustering", "bipartite", "dense_subgraphs",
        }
        assert stats.total_wall > 0.0
        assert 0.0 <= stats.utilization() <= 1.0
        for phase in stats.phases.values():
            assert phase.wall_seconds >= 0.0
            assert 0.0 <= phase.utilization(stats.workers) <= 1.0
        assert stats.cache["misses"] > 0
        assert any("backend=serial" in line for line in stats.summary_lines())

    def test_phase_walls_cover_the_suffix_build(self, workload, monkeypatch):
        """The RR and CCD suffix-index builds count as phase time: a
        slow build shows up in the phases' wall-clock stats and spans."""
        from repro.runtime import phases

        delay = 0.3

        class SlowFinder(phases.MaximalMatchFinder):
            def __init__(self, *args, **kwargs):
                time.sleep(delay)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(phases, "MaximalMatchFinder", SlowFinder)
        sequences, config = workload
        result = ProteinFamilyPipeline(config).run(sequences, backend="serial")
        spans = result.obs.phase_seconds()
        for name in ("redundancy", "clustering"):
            assert result.runtime.phases[name].wall_seconds >= delay, name
            assert spans[name] >= delay, name

    def test_default_run_reports_serial_backend(self, reference):
        """A run given no backend runs on the serial backend."""
        assert reference.runtime is not None
        assert reference.runtime.backend == "serial"
        assert set(reference.runtime.phases) == {
            "redundancy", "clustering", "bipartite", "dense_subgraphs",
        }


class TestCrashSafety:
    def test_worker_exception_propagates(self, workload):
        """A raising worker surfaces a WorkerCrashError — no hang."""
        sequences, config = workload
        backend = ProcessBackend(workers=1, batch_size=1)
        encoded = [r.encoded for r in sequences]
        cache = AlignmentCache(lambda k: encoded[k], config.scheme)
        with backend.session(sequences, config.scheme):
            stream = backend.alignment_stream("local", cache)
            stream.submit(0, len(sequences) + 5)  # out-of-range index
            with pytest.raises(WorkerCrashError, match="out of range"):
                list(stream.drain())
        # close() ran via session(); the backend is reusable afterwards.
        with backend.session(sequences, config.scheme):
            stream = backend.alignment_stream("local", cache)
            stream.submit(0, 1)
            assert [(i, j) for i, j, _ in stream.drain()] == [(0, 1)]

    def test_poisoned_job_raises_deterministically(self, workload):
        """A task of unknown kind (protocol poison) surfaces the worker's
        original ValueError inside a WorkerCrashError — same message
        every run, no hang, and the worker loop survives to serve the
        next task."""
        sequences, config = workload
        backend = ProcessBackend(workers=1, batch_size=1)
        encoded = [r.encoded for r in sequences]
        cache = AlignmentCache(lambda k: encoded[k], config.scheme)
        with backend.session(sequences, config.scheme):
            backend._submit(("poison", 99))
            with pytest.raises(WorkerCrashError, match="unknown task kind"):
                backend._pump(block=True)
            # The worker caught the poison and is still serving.
            stream = backend.alignment_stream("local", cache)
            stream.submit(0, 1)
            assert [(i, j) for i, j, _ in stream.drain()] == [(0, 1)]

    def test_liveness_sweep_respawns_killed_worker(self, workload):
        """A worker killed by signal (no error message possible) is
        caught by the recovery sweep, which respawns it under the
        respawn budget; subsequent work lands on the replacement and
        the stream completes normally."""
        sequences, config = workload
        backend = ProcessBackend(workers=1, batch_size=1)
        encoded = [r.encoded for r in sequences]
        cache = AlignmentCache(lambda k: encoded[k], config.scheme)
        with backend.session(sequences, config.scheme):
            victim = backend._procs[0]
            victim.kill()
            victim.join(timeout=5.0)
            assert not victim.is_alive()
            backend._sweep()
            probe = backend.telemetry_probe()
            assert probe["respawns"] == 1
            assert backend._procs[0].is_alive()
            stream = backend.alignment_stream("local", cache)
            stream.submit(0, 1)
            assert [(i, j) for i, j, _ in stream.drain()] == [(0, 1)]

    def test_closed_backend_rejects_work(self, workload):
        sequences, config = workload
        backend = ProcessBackend(workers=1)
        encoded = [r.encoded for r in sequences]
        cache = AlignmentCache(lambda k: encoded[k], config.scheme)
        with pytest.raises(BackendError, match="not open"):
            backend.alignment_stream("local", cache)

    def test_telemetry_survives_sigkilled_worker(self, workload, tmp_path):
        """The sampler keeps emitting through a worker SIGKILL, the
        liveness probe reports the corpse before the recovery sweep
        replaces it, work submitted before the sweep completes
        in-master instead of raising, and ``repro top`` renders the
        end-less file as a degraded view instead of refusing it."""
        from repro.obs import Recorder, TelemetrySampler, read_telemetry, recording
        from repro.obs.top import render_screen

        sequences, config = workload
        backend = ProcessBackend(workers=1, batch_size=1)
        encoded = [r.encoded for r in sequences]
        cache = AlignmentCache(lambda k: encoded[k], config.scheme)
        recorder = Recorder(meta={"mode": "process", "workers": 1})
        sampler = TelemetrySampler(
            recorder,
            tmp_path,
            interval=0.01,
            probes={"runtime": backend.telemetry_probe, "cache": cache.stats},
        )
        with recording(recorder), backend.session(sequences, config.scheme):
            with recorder.span("clustering", cat="phase"):
                sampler.open()
                stream = backend.alignment_stream("local", cache)
                stream.submit(0, 1)
                list(stream.drain())  # healthy batch: heartbeat flows
                healthy = sampler.sample_now()

                victim = backend._procs[0]
                victim.kill()
                victim.join(timeout=5.0)
                assert not victim.is_alive()

                # Sampling does not stop — nor raise — on a dead backend,
                # and neither does the stream: with no live worker and no
                # sweep yet, the batch is computed in-master.
                degraded = sampler.sample_now()
                stream.submit(0, 2)
                assert [(i, j) for i, j, _ in stream.drain()] == [(0, 2)]
                post_crash = sampler.sample_now()
        # Run dies without sampler.stop(): no end record, like a SIGKILL
        # of the whole process tree.

        assert healthy["probes"]["runtime"]["workers"][0]["alive"] is True
        assert healthy["gauges"].get("worker.0.last_seen") is not None
        assert degraded["probes"]["runtime"]["workers"][0]["alive"] is False
        assert degraded["probes"]["runtime"]["workers"][0]["exitcode"] == -9
        assert post_crash["seq"] == healthy["seq"] + 2

        meta, samples, end = read_telemetry(tmp_path)
        assert end is None
        assert [s["seq"] for s in samples] == [1, 2, 3]
        screen = "\n".join(render_screen(meta, samples, end))
        assert "no end record" in screen
        assert "LOST" in screen


class _DegradedProcessBackend(ProcessBackend):
    """Computes every task in-master, as after losing its last worker
    with the respawn budget spent."""

    def open(self, sequences, scheme) -> None:
        super().open(sequences, scheme)
        self._degraded = True


class TestStreamConformance:
    """Every backend answers the same stream calls with the same results,
    the same cache counters and the same per-phase work accounting."""

    LOCAL = [(0, 1), (3, 2), (4, 5), (1, 6), (7, 2)]
    REPEAT = [(2, 3), (8, 9), (1, 0), (9, 10), (5, 4)]
    # Pairs 0-21 and 4-22 are redundant copies (answered without a DP).
    CONTAIN = [(21, 0), (4, 22)] + [
        (i, j) for i in range(6) for j in range(i + 1, 9)]

    def _run(self, backend, sequences, scheme):
        encoded = [r.encoded for r in sequences]
        cache = AlignmentCache(lambda k: encoded[k], scheme)
        results = {}
        with backend.session(sequences, scheme):
            cache.set_phase("submit")
            with backend.phase("submit"):
                stream = backend.alignment_stream("local", cache)
                got = []
                for i, j in self.LOCAL:
                    stream.submit(i, j)
                    got += stream.ready()
                results["submit"] = set(got + list(stream.drain()))
            cache.set_phase("submit_many")
            with backend.phase("submit_many"):
                stream = backend.alignment_stream("local", cache)
                stream.submit_many(self.REPEAT)
                results["submit_many"] = set(stream.drain())
            cache.set_phase("containment")
            with backend.phase("containment"):
                stream = backend.containment_stream(
                    cache, similarity=0.5, coverage=0.5)
                stream.submit_many(self.CONTAIN[:10])
                got = list(stream.drain())
                stream.submit_many(self.CONTAIN)
                results["containment"] = set(got + list(stream.drain()))
        work = {name: (p.tasks, p.cache_hits)
                for name, p in backend.stats.phases.items()}
        return results, cache.stats(), work

    @pytest.mark.parametrize("make", [
        SerialBackend,
        lambda: ProcessBackend(1, batch_size=1),
        lambda: ProcessBackend(2, batch_size=8),
        lambda: _DegradedProcessBackend(1),
    ], ids=["serial", "process-1x1", "process-2x8", "process-degraded"])
    def test_backends_agree(self, workload, make):
        sequences, config = workload
        reference = self._run(SerialBackend(), sequences, config.scheme)
        results, stats, work = self._run(make(), sequences, config.scheme)
        assert results == reference[0]
        assert stats == reference[1]
        assert work == reference[2]
        # Tasks count pairs shipped to the backend; cache hits never ship.
        assert work["submit"] == (5, 0)
        assert work["submit_many"] == (2, 3)
        assert stats["local_misses"] == 7
        assert stats["semiglobal_misses"] > 0
        assert stats["semiglobal_hits"] > 0


class TestStartMethods:
    def test_spawn_workers_give_serial_families(self, workload, reference):
        sequences, config = workload
        backend = ProcessBackend(workers=1, start_method="spawn")
        result = ProteinFamilyPipeline(config).run(sequences, backend=backend)
        assert result.families == reference.families
        assert result.table1() == reference.table1()


class TestSharedSequenceStore:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        encoded = [
            rng.integers(0, 20, size=n).astype(np.uint8) for n in (5, 1, 17, 3)
        ]
        with SharedSequenceStore.create(encoded) as store:
            spec = store.spec()
            assert spec.n_sequences == 4
            assert spec.total_symbols == 26
            for k, seq in enumerate(encoded):
                np.testing.assert_array_equal(store.get(k), seq)
            with pytest.raises(IndexError):
                store.get(4)

    def test_attach_sees_owner_data(self):
        encoded = [np.arange(7, dtype=np.uint8)]
        owner = SharedSequenceStore.create(encoded)
        try:
            attached = SharedSequenceStore.attach(owner.spec())
            np.testing.assert_array_equal(attached.get(0), encoded[0])
            attached.close()
        finally:
            owner.close()

    def test_close_is_idempotent(self):
        store = SharedSequenceStore.create([np.zeros(3, dtype=np.uint8)])
        store.close()
        store.close()


class TestBackendFactory:
    def test_make_backend(self):
        assert make_backend(None) is None
        assert isinstance(make_backend("serial"), SerialBackend)
        process = make_backend("process", workers=3)
        assert isinstance(process, ProcessBackend)
        assert process.workers == 3
        passthrough = SerialBackend()
        assert make_backend(passthrough) is passthrough
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("threads")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ProcessBackend(workers=-1)
        with pytest.raises(ValueError):
            ProcessBackend(workers=1, batch_size=0)
        with pytest.raises(ValueError):
            PipelineConfig(backend="gpu")
        with pytest.raises(ValueError):
            PipelineConfig(workers=-2)

    def test_runtime_info_shape(self):
        info = runtime_info()
        assert info["cpu_count"] >= 1
        assert info["usable_cpus"] >= 1
        assert info["default_workers"] == default_worker_count() >= 1
        assert info["backends"]["serial"] is True
        assert isinstance(info["backends"]["process"], bool)


class TestCacheStats:
    def test_hits_and_misses_are_tracked(self, workload):
        sequences, config = workload
        encoded = [r.encoded for r in sequences]
        cache = AlignmentCache(lambda k: encoded[k], blosum62_scheme())
        cache.local(0, 1)
        cache.local(1, 0)  # canonical key: a hit
        cache.semiglobal(0, 2)
        stats = cache.stats()
        assert stats["local_misses"] == 1
        assert stats["local_hits"] == 1
        assert stats["semiglobal_misses"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 2
        assert stats["entries"] == 2
        assert stats["hit_rate"] == pytest.approx(1 / 3)

    def test_peek_and_insert(self, workload):
        sequences, config = workload
        encoded = [r.encoded for r in sequences]
        cache = AlignmentCache(lambda k: encoded[k], blosum62_scheme())
        assert cache.peek("local", 0, 1) is None
        aln = cache.local(0, 1)
        assert cache.peek("local", 1, 0) is aln  # no counter change
        assert cache.stats()["local_hits"] == 0
        cache.insert("semiglobal", 0, 1, aln)
        assert cache.peek("semiglobal", 0, 1) is aln
        assert cache.stats()["semiglobal_misses"] == 1
        with pytest.raises(ValueError, match="unknown alignment kind"):
            cache.peek("banded", 0, 1)
