"""The reference in-process backend, and the pipeline's default.

Executes every task synchronously on the master — the measured
baseline every other backend is compared (and result-checked) against.
A stream's misses run through :func:`~repro.runtime.base.run_task`
before each ``submit``/``submit_many`` call returns, so the CCD
union–find filter never lags and the work counters are the serial ones.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence

from repro import obs
from repro.runtime.base import AlignmentStream, Backend, run_task
from repro.util.timing import monotonic_now

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.faults.plan import FaultPlan


class SerialBackend(Backend):
    """Single-process reference backend.

    A :class:`~repro.faults.plan.FaultPlan` may be attached; it is
    checked once per submit call and per Shingle component.  ``delay``
    faults targeting worker 0 sleep in-line (there is only the master),
    while kill/poison faults are unsatisfiable here — there is no
    process to lose — and are recorded as skipped events instead.  The
    run's results are unaffected either way, which keeps the serial
    reference usable as the chaos baseline.
    """

    name = "serial"

    def __init__(self, *, fault_plan: "FaultPlan | None" = None) -> None:
        self.workers = 1
        super().__init__()
        self._scheme = None
        self._encoded: list = []
        self._injector = None
        if fault_plan is not None and fault_plan:
            from repro.faults.plan import FaultInjector

            self._injector = FaultInjector(fault_plan)

    def _apply_fault(self, phase: str) -> None:
        if self._injector is None:
            return
        marker = self._injector.marker_for_send(phase, 0)
        if marker is None:
            return
        if marker[0] == "delay":
            obs.count("faults.injected")
            obs.event("fault.injected", kind="delay_task", worker=0,
                      phase=phase)
            time.sleep(marker[1])
        else:
            obs.event("fault.skipped", kind="kill_worker", phase=phase,
                      reason="serial backend has no worker to kill")

    def open(self, sequences, scheme) -> None:
        self._scheme = scheme
        self._encoded = [record.encoded for record in sequences]

    def close(self) -> None:
        self._encoded = []

    def _submit(self, body, sink=None) -> None:
        start = monotonic_now()
        result = run_task(body, self._scheme, self._encoded.__getitem__)
        if sink is not None:
            sink(result, monotonic_now() - start)

    def _settle(self, stream: AlignmentStream) -> None:
        self._apply_fault(stream.phase.name)
        start = monotonic_now()
        stream.flush_batch()
        obs.heartbeat(0, monotonic_now() - start)

    def map_components(
        self,
        graphs: Sequence,
        reduction: str,
        params,
        min_size: int,
        tau: float,
    ) -> list[tuple]:
        phase = self._phase_stats()
        out = []
        for graph in graphs:
            self._apply_fault(phase.name)
            start = monotonic_now()
            out.append(run_task(
                ("shingle", graph, reduction, params, min_size, tau),
                self._scheme, self._encoded.__getitem__))
            elapsed = monotonic_now() - start
            phase.busy_seconds += elapsed
            phase.tasks += 1
            obs.heartbeat(0, elapsed)
        return out
