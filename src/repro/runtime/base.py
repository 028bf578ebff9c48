"""Execution-backend interface: real wall-clock parallelism.

The :mod:`repro.parallel` simulator *models* the paper's BlueGene/L runs
(virtual seconds, message counts, memory ceilings) while executing every
algorithm in-process.  This package is its physical counterpart: a
:class:`Backend` actually distributes the pipeline's hot work — pair
alignment for the RR/CCD/bipartite phases, the per-component Shingle
runs of the DSD phase — across real cores, and reports *measured*
wall-clock timings and worker utilisation instead of simulated ones.

Two contracts every backend honours:

1. **Result invariance.**  For a fixed configuration, ``families`` and
   the Table I row are bit-identical across backends.  The phases
   guarantee this the same way the simulator does: the RR and bipartite
   phases align a deterministic pair set with order-independent
   decisions, the CCD transitive-closure filter only ever skips pairs
   that are already intra-component, and all collected edge/verdict
   sets are canonically sorted before use.
2. **Master-side state.**  The union–find, the dedup sets, and the
   :class:`~repro.pace.cache.AlignmentCache` live only on the master
   (mirroring the paper's PaCE master); workers are stateless alignment
   engines over a shared read-only sequence store.

Both sides of that split are written once, here.
:class:`AlignmentStream` is the master side: it answers cached pairs,
gathers the misses into tasks and absorbs their results.
:func:`run_task` is the worker side: it computes one task wherever the
backend runs it.  A backend decides only that: where and when a task
runs (:class:`~repro.runtime.serial.SerialBackend` inline, before the
submitting call returns; :class:`~repro.runtime.process.ProcessBackend`
in a worker process, through its fault-tolerant task ledger).
"""

from __future__ import annotations

import abc
import contextlib
import math
import multiprocessing
import os
import platform
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from repro import obs
from repro.align.batch import batch_align, batch_containment
from repro.align.pairwise import local_align, semiglobal_align
from repro.util.timing import monotonic_now

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    import numpy as np

    from repro.align.matrices import ScoringScheme
    from repro.align.pairwise import Alignment
    from repro.graph.bipartite import BipartiteGraph
    from repro.pace.cache import AlignmentCache
    from repro.sequence.record import SequenceSet
    from repro.shingle.algorithm import ShingleParams


class BackendError(RuntimeError):
    """A backend failed to execute work."""


class WorkerCrashError(BackendError):
    """A worker process raised or died; the master surfaces it cleanly."""


@dataclass
class PhaseStats:
    """Measured execution statistics for one pipeline phase.

    ``tasks`` counts work items shipped to the backend (alignments or
    component Shingle runs); ``cache_hits`` counts alignments answered
    from the master-side memo without dispatch; ``busy_seconds`` is the
    summed compute time across workers, so ``busy / (wall * workers)``
    is the classic utilisation figure.
    """

    name: str
    wall_seconds: float = 0.0
    tasks: int = 0
    cache_hits: int = 0
    busy_seconds: float = 0.0

    def utilization(self, workers: int) -> float:
        if self.wall_seconds <= 0.0 or workers <= 0:
            return 0.0
        return min(self.busy_seconds / (self.wall_seconds * workers), 1.0)


@dataclass
class RuntimeStats:
    """Measured wall-clock counterpart of the simulator's PhaseTimings."""

    backend: str
    workers: int
    phases: dict[str, PhaseStats] = field(default_factory=dict)
    cache: dict[str, float] = field(default_factory=dict)
    """Snapshot of ``AlignmentCache.stats()`` at end of run."""

    @property
    def total_wall(self) -> float:
        return sum(p.wall_seconds for p in self.phases.values())

    @property
    def total_tasks(self) -> int:
        return sum(p.tasks for p in self.phases.values())

    def utilization(self) -> float:
        """Busy-time fraction over all phases (1.0 = perfectly packed)."""
        wall = self.total_wall
        if wall <= 0.0 or self.workers <= 0:
            return 0.0
        busy = sum(p.busy_seconds for p in self.phases.values())
        return min(busy / (wall * self.workers), 1.0)

    def summary_lines(self) -> list[str]:
        """Human-readable per-phase report for the CLI."""
        lines = [
            f"backend={self.backend} workers={self.workers} "
            f"wall={self.total_wall:.3f}s utilization={self.utilization():.0%}"
        ]
        for stats in self.phases.values():
            lines.append(
                f"  {stats.name:<16s} {stats.wall_seconds:>9.3f}s  "
                f"tasks={stats.tasks:<8d} cache_hits={stats.cache_hits:<8d} "
                f"util={stats.utilization(self.workers):.0%}"
            )
        return lines


#: Scalar kernel per alignment kernel name, for tasks of one pair.
_SCALAR = {"local": local_align, "semiglobal": semiglobal_align}


def run_task(body: tuple, scheme: "ScoringScheme",
             get: Callable[[int], "np.ndarray"]) -> Any:
    """Compute one task body; every backend runs its tasks through here.

    ``get`` maps a global index to its encoded sequence.  Bodies and
    results:

    * ``("align", kernel, pairs)`` -> one ``(None, Alignment)`` per pair.
      A lone pair runs the scalar kernel, which is faster than a
      one-pair batch; more pairs run :func:`~repro.align.batch.batch_align`.
      Both give equal alignments.
    * ``("contain", similarity, coverage, pairs)`` -> one ``(stats,
      Alignment or None)`` per pair from
      :func:`~repro.align.batch.batch_containment`; the alignment is None
      where no DP ran (Myers-rejected or exact-certified pairs).
    * ``("shingle", graph, reduction, params, min_size, tau)`` -> the
      ``(finals, raw, stats)`` triple of
      :func:`~repro.pace.densesub.shingle_component`.

    The function never touches the alignment cache: the master's stream
    inserts what comes back, whichever process computed it.
    """
    kind = body[0]
    if kind == "shingle":
        from repro.pace.densesub import shingle_component

        return shingle_component(*body[1:])
    if kind not in ("align", "contain"):
        raise ValueError(f"unknown task kind {kind!r}")
    seqs = [(get(i), get(j)) for i, j in body[-1]]
    if kind == "contain":
        res = batch_containment(seqs, scheme=scheme, similarity=body[1],
                                coverage=body[2])
        return list(zip(res.stats, res.alignments))
    if len(seqs) == 1:
        return [(None, _SCALAR[body[1]](*seqs[0], scheme))]
    return [(None, aln) for aln in batch_align(seqs, scheme, mode=body[1])]


class AlignmentStream:
    """Streaming pair channel between a phase driver and a backend.

    The master submits ``(i, j)`` global index pairs; results come back
    as ``(i, j, result)`` through :meth:`ready` (non-blocking) or
    :meth:`drain` (blocking flush), in an unspecified order.  Phase
    drivers interleave ``submit`` with ``ready`` so master-side state
    (e.g. the CCD union–find filter) advances while workers align.

    ``kernel`` is "local" or "semiglobal" (``result`` is an
    :class:`~repro.align.pairwise.Alignment`), or "containment":
    ``result`` is the Definition 1 statistics ``(identity, coverage_i,
    coverage_j)``.  RR verdicts consume only these three floats, so a
    pair *proven* unable to pass Definition 1 in either direction comes
    back as ``(0.0, 0.0, 0.0)`` with no alignment behind it, and the
    decision is unchanged.

    This is the master side of the paper's master–worker split, written
    once for every backend.  Each pair is put in ``i < j`` order.  A
    cached pair is answered on the master, counting the hit through the
    cache accessor and in the phase's ``cache_hits``.  The misses are
    collected into a task of the backend's task size; the backend
    decides only where a task runs.  Absorbing a task inserts every
    alignment it computed into the cache.  A pair must not be submitted
    again while it is in flight.
    """

    def __init__(self, backend: "Backend", stream_id: int, kernel: str,
                 cache: "AlignmentCache", phase: PhaseStats,
                 params: tuple = ()):
        self._backend = backend
        self.stream_id = stream_id
        self.kernel = kernel
        self._cache = cache
        self.phase = phase
        self._params = params
        self._cached = "semiglobal" if kernel == "containment" else kernel
        self._flush_at = backend._task_size(kernel)
        self._batch: list[tuple[int, int]] = []
        self.in_flight = 0
        self._done: list[tuple[int, int, Any]] = []
        obs.gauge(f"stream.{stream_id}.kind", kernel)

    def submit(self, i: int, j: int) -> None:
        """Request the result for global sequence pair (i, j)."""
        self.submit_many(((i, j),))

    def submit_many(self, pairs: Sequence[tuple[int, int]]) -> None:
        """Request results for many pairs at once."""
        if not pairs:
            return
        cache = self._cache
        for i, j in pairs:
            if i > j:
                i, j = j, i
            if cache.peek(self._cached, i, j) is None:
                self._batch.append((i, j))
                self.phase.tasks += 1
                if len(self._batch) >= self._flush_at:
                    self.flush_batch()
                continue
            if self._cached == "local":
                aln = cache.local(i, j)
            else:
                aln = cache.semiglobal(i, j)
            self.phase.cache_hits += 1
            obs.count(f"runtime.pairs_done.{self.phase.name}")
            self._done.append((i, j, self._result(i, j, None, aln)))
        self._backend._settle(self)

    def flush_batch(self) -> None:
        """Hand the collected misses to the backend as one task."""
        if not self._batch:
            return
        if self.kernel == "containment":
            body: tuple = ("contain", *self._params, self._batch)
        else:
            body = ("align", self.kernel, self._batch)
        pairs, self._batch = self._batch, []
        self.in_flight += 1
        obs.gauge(f"stream.{self.stream_id}.in_flight", self.in_flight)
        self._backend._submit(
            body, lambda results, busy: self.absorb(pairs, results, busy))

    def absorb(self, pairs: list[tuple[int, int]], results: list[tuple],
               busy: float) -> None:
        """Take in one computed task: :func:`run_task`'s ``results`` for
        ``pairs``, computed in ``busy`` seconds (backend hook, called
        exactly once per task)."""
        self.in_flight -= 1
        obs.gauge(f"stream.{self.stream_id}.in_flight", self.in_flight)
        self.phase.busy_seconds += busy
        obs.count(f"runtime.pairs_done.{self.phase.name}", len(pairs))
        for (i, j), (stats, aln) in zip(pairs, results):
            if aln is not None:
                self._cache.insert(self._cached, i, j, aln)
            self._done.append((i, j, self._result(i, j, stats, aln)))

    def _result(self, i: int, j: int, stats, aln: "Alignment") -> Any:
        if self.kernel != "containment":
            return aln
        if stats is not None:
            return stats
        return (aln.identity,
                aln.coverage_a(len(self._cache.encoded(i))),
                aln.coverage_b(len(self._cache.encoded(j))))

    def ready(self) -> list[tuple[int, int, Any]]:
        """Completed results available now, without blocking."""
        self._backend._pump(block=False)
        out, self._done = self._done, []
        return out

    def drain(self) -> Iterator[tuple[int, int, Any]]:
        """Flush: block until every submitted pair has a result."""
        self.flush_batch()
        while self.in_flight > 0:
            self._backend._pump(block=True)
        yield from self.ready()


class Backend(abc.ABC):
    """Abstract execution backend.

    Lifecycle::

        backend = ProcessBackend(workers=4)
        with backend.session(sequences, scheme):
            stream = backend.alignment_stream("local", cache)
            ...
        backend.stats  # RuntimeStats, populated per phase
    """

    name: str = "abstract"
    workers: int = 1

    def __init__(self) -> None:
        self.stats = RuntimeStats(backend=self.name, workers=self.workers)
        self._current_phase: PhaseStats | None = None
        self._next_stream_id = 0

    # -- lifecycle ---------------------------------------------------------

    @abc.abstractmethod
    def open(self, sequences: "SequenceSet", scheme: "ScoringScheme") -> None:
        """Bind the backend to a sequence set (builds stores / pools)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release every resource; idempotent."""

    @contextlib.contextmanager
    def session(self, sequences: "SequenceSet", scheme: "ScoringScheme"):
        self.open(sequences, scheme)
        try:
            yield self
        finally:
            self.close()

    # -- phase bookkeeping -------------------------------------------------

    @contextlib.contextmanager
    def phase(self, name: str):
        """Record wall-clock time of a pipeline phase under ``name``.

        Besides the backend's own :class:`PhaseStats`, the interval is
        mirrored as a phase span on the ambient :mod:`repro.obs`
        recorder (when one is installed), so backend runs and serial
        runs share one timeline vocabulary.
        """
        stats = self.stats.phases.setdefault(name, PhaseStats(name))
        previous = self._current_phase
        self._current_phase = stats
        start = monotonic_now()
        try:
            with obs.span(name, cat="phase", backend=self.name,
                          workers=self.workers):
                yield stats
        finally:
            stats.wall_seconds += monotonic_now() - start
            self._current_phase = previous

    def _phase_stats(self) -> PhaseStats:
        if self._current_phase is None:
            # Work outside an explicit phase is still accounted for.
            return self.stats.phases.setdefault("adhoc", PhaseStats("adhoc"))
        return self._current_phase

    # -- telemetry ---------------------------------------------------------

    def telemetry_probe(self) -> dict:
        """Live backend state for the telemetry sampler (thread-safe).

        Backends with worker processes override this to report queue
        depth and per-worker liveness; the default describes an
        in-process backend where the lone "worker" is the master itself.
        """
        return {
            "outstanding": 0,
            "workers": [{"index": 0, "alive": True, "exitcode": None}],
        }

    # -- work primitives ---------------------------------------------------

    def alignment_stream(
        self, kind: str, cache: "AlignmentCache"
    ) -> AlignmentStream:
        """Open a stream of ``kind`` ("local" or "semiglobal") alignments."""
        if kind not in ("local", "semiglobal"):
            raise ValueError(f"unknown alignment kind {kind!r}")
        return self._open_stream(kind, cache)

    def containment_stream(
        self,
        cache: "AlignmentCache",
        *,
        similarity: float,
        coverage: float,
    ) -> AlignmentStream:
        """Open a Definition 1 statistics stream for the RR phase.

        Its tasks run the batched containment engine, whose decisions
        are provably identical to a full semiglobal alignment per pair;
        ``similarity``/``coverage`` parameterise its sound rejection
        threshold.
        """
        return self._open_stream("containment", cache, (similarity, coverage))

    def _open_stream(self, kernel: str, cache: "AlignmentCache",
                     params: tuple = ()) -> AlignmentStream:
        self._require_open()
        self._next_stream_id += 1
        return AlignmentStream(self, self._next_stream_id - 1, kernel, cache,
                               self._phase_stats(), params)

    @abc.abstractmethod
    def map_components(
        self,
        graphs: Sequence["BipartiteGraph"],
        reduction: str,
        params: "ShingleParams",
        min_size: int,
        tau: float,
    ) -> list[tuple[list[tuple[int, ...]], list, object]]:
        """Run the Shingle phase over independent component graphs.

        Returns one ``(finals, raw, stats)`` triple per graph, in input
        order (components are independent, so any execution order gives
        identical results).
        """

    # -- task placement (the hooks an AlignmentStream calls) ---------------

    def _require_open(self) -> None:
        """Raise :class:`BackendError` if work cannot be accepted."""

    def _task_size(self, kernel: str) -> float:
        """Pairs per task: a stream flushes its misses at this size.  The
        default sets no size; the backend flushes in :meth:`_settle`."""
        return math.inf

    @abc.abstractmethod
    def _submit(self, body: tuple,
                sink: Callable[[Any, float], None] | None = None) -> None:
        """Run the :func:`run_task` body ``body``, now or later; call
        ``sink(result, busy_seconds)`` exactly once when it is done."""

    def _settle(self, stream: AlignmentStream) -> None:
        """Called at the end of every ``submit``/``submit_many`` call."""

    def _pump(self, *, block: bool) -> None:
        """Take in finished tasks; with ``block``, wait for at least one."""


def default_worker_count() -> int:
    """Workers to use when the user does not say: usable cores minus one
    (the master needs a core for pair generation and union–find)."""
    return max(1, usable_cpu_count() - 1)


def usable_cpu_count() -> int:
    """Cores this process may schedule on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def preferred_start_method() -> str:
    """``fork`` where available (cheap, inherits imports), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def shared_memory_available() -> bool:
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - stdlib always has it on 3.8+
        return False
    return True


def runtime_info() -> dict:
    """Environment report for the ``repro runtime-info`` subcommand."""
    return {
        "python": platform.python_version(),
        "platform": platform.system().lower(),
        "cpu_count": os.cpu_count() or 1,
        "usable_cpus": usable_cpu_count(),
        "default_workers": default_worker_count(),
        "start_methods": multiprocessing.get_all_start_methods(),
        "preferred_start_method": preferred_start_method(),
        "shared_memory": shared_memory_available(),
        "backends": {
            "serial": True,
            "process": shared_memory_available(),
        },
    }
