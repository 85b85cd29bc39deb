"""The machine-queue executor behind every HC simulator.

:class:`QueueExecutor` runs one simulation over a
:class:`~repro.sim.engine.Simulator` and owns, once, what the static,
fault-tolerant, dynamic and rolling drivers share: per-machine FIFO
queues with epoch-invalidated ``task-finish`` events, the
``machine-fail/recover/slow/restore`` handlers, retry with bounded
backoff or drop, the jump to the next planned recovery when every
machine is down, the pending batch with its ``last + interval`` mapping
timer, the ``completed + dropped == total`` accounting check and one
``max_events`` runaway guard.

Tasks are integer indices into :attr:`QueueExecutor.rows` (index ->
per-machine ETC row); labels are built only for traces, drops and trace
events.  A driver seeds the first events and plugs in only what
differs: where tasks come from and how a batch is mapped.  The failure
semantics are described in docs/robustness.md#failure-semantics.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError
from repro.obs.tracer import get_tracer
from repro.sim.engine import Simulator
from repro.sim.faults import FaultPlan
from repro.sim.trace import ExecutionTrace, TaskExecution

__all__ = ["RECOVERY_POLICIES", "Recovery", "QueueExecutor", "check_plan_machines"]

#: Recovery policies for tasks interrupted by a machine failure.
RECOVERY_POLICIES = ("requeue", "remap")

#: Mapping-timer event kind.
BATCH_EVENT = "batch-event"


@dataclass(frozen=True)
class Recovery:
    """Validated recovery options: policy, retry budget and backoff
    (``backoff_cap`` defaults to ``32 * backoff_base``)."""

    policy: str = "requeue"
    retry_budget: int = 3
    backoff_base: float = 1.0
    backoff_cap: float | None = None

    def __post_init__(self) -> None:
        if self.policy not in RECOVERY_POLICIES:
            raise ConfigurationError(
                f"unknown recovery policy {self.policy!r}; "
                f"choose from {RECOVERY_POLICIES}"
            )
        if self.retry_budget < 0:
            raise ConfigurationError(
                f"retry_budget must be >= 0, got {self.retry_budget}"
            )
        if self.backoff_base <= 0:
            raise ConfigurationError(
                f"backoff_base must be positive, got {self.backoff_base}"
            )
        cap = 32.0 * self.backoff_base if self.backoff_cap is None else self.backoff_cap
        if cap < self.backoff_base:
            raise ConfigurationError(
                f"backoff_cap {cap} must be >= backoff_base {self.backoff_base}"
            )
        object.__setattr__(self, "retry_budget", int(self.retry_budget))
        object.__setattr__(self, "backoff_base", float(self.backoff_base))
        object.__setattr__(self, "backoff_cap", float(cap))

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based): bounded doubling."""
        return min(self.backoff_base * 2.0 ** (attempt - 1), self.backoff_cap)


def check_plan_machines(plan: FaultPlan | None, machines: Sequence[str]) -> None:
    """Reject a fault plan over a different machine set."""
    if plan is not None and set(plan.machines) != set(machines):
        raise ConfigurationError(
            f"fault plan machine set {sorted(plan.machines)} does not match "
            f"the simulated machines {sorted(machines)}"
        )


class QueueExecutor:
    """One simulation run: machine queues, faults, retries and batches.

    ``label(idx)`` names task ``idx``.  A driver fills :attr:`rows` (and
    :attr:`arrival`, for arriving tasks), may preload :attr:`queues` and
    start machine ``j`` with a ``machine-ready`` event carrying ``j``.
    With ``map_batch``, :meth:`submit` collects tasks into a batch that
    the timer hands to ``map_batch(batch, live)`` (task and live-machine
    indices), which places them with :meth:`dispatch`; a ``remap``
    recovery then also goes to the next batch instead of straight to
    the MCT machine.  Completions are recorded in ``trace`` when one is
    given; ``note`` is called after every completion, failure and
    mapping event.
    """

    def __init__(
        self,
        machines: Sequence[str],
        label: Callable[[int], str],
        total: int,
        *,
        plan: FaultPlan | None = None,
        recovery: Recovery | None = None,
        map_batch: Callable[[list[int], list[int]], None] | None = None,
        batch_interval: float = 1.0,
        trace: ExecutionTrace | None = None,
        note: Callable[[], None] | None = None,
    ) -> None:
        num_machines = len(machines)
        self.machines = tuple(machines)
        self.label = label
        self.total = total
        self.recovery = recovery or Recovery()
        self.map_batch = map_batch
        self.batch_interval = batch_interval
        self.trace = trace
        self.note = note
        self.sim = Simulator()
        self._tracer = get_tracer()
        self._index = {m: j for j, m in enumerate(self.machines)}
        self._faults = plan.events if plan is not None else ()
        self._recovery_times = sorted(
            e.time for e in self._faults if e.kind == "recover"
        )
        #: Recover events not yet processed; with none left and every
        #: machine down, nothing can run again.
        self._recoveries_left = len(self._recovery_times)

        self.rows: dict[int, Sequence[float]] = {}
        self.arrival: dict[int, float] = {}
        self.queues: list[deque[int]] = [deque() for _ in range(num_machines)]
        #: (task, start, expected finish) of the task each machine runs.
        self.running: list[tuple[int, float, float] | None] = [None] * num_machines
        self.up = [True] * num_machines
        self.factor = [1.0] * num_machines
        self.epoch = [0] * num_machines
        self.expected_free = np.zeros(num_machines, dtype=np.float64)
        self.pending: list[int] = []
        self._batch_armed = False
        self._last_batch = -np.inf
        self._attempts: dict[int, int] = {}
        #: Failure time of each retried task, kept only while tracing
        #: (for the ``sim.requeue_latency`` histogram).
        self._last_failure: dict[int, float] = {}
        self.dropped: list[str] = []
        self.completed = self.dispatches = self.batches = self.batch_max = 0
        self.failures = self.recoveries = self.slowdowns = 0
        self.aborted = self.retries = self.requeues = 0
        self.sum_wait = self.max_wait = self.sum_flow = self.makespan = 0.0

        on = self.sim.on
        on("machine-ready", self._on_ready)
        on("task-finish", self._on_finish)
        on("task-retry", self._on_retry)
        on("machine-fail", self._on_fail)
        on("machine-recover", self._on_recover)
        on("machine-slow", self._on_slow)
        on("machine-restore", self._on_restore)
        on(BATCH_EVENT, self._on_batch)

    # -- task intake ---------------------------------------------------
    def submit(self, idx: int) -> None:
        """Add task ``idx`` to the pending batch and arm the timer."""
        self.pending.append(idx)
        self._arm_batch()

    def dispatch(self, idx: int, j: int) -> None:
        """Place task ``idx`` at the back of machine ``j``'s queue."""
        now = self.sim.now
        self.queues[j].append(idx)
        free = self.expected_free
        free[j] = max(free[j], now) + self.rows[idx][j] * self.factor[j]
        self.dispatches += 1
        wait = now - self.arrival[idx]
        self.sum_wait += wait
        if wait > self.max_wait:
            self.max_wait = wait
        self._start(j)

    def run(self, progress=None, progress_every: int = 1000) -> None:
        """Inject the fault plan, run to quiescence, check accounting."""
        sim = self.sim
        # Faults run at a lower priority than same-instant task finishes:
        # a task completing exactly when its machine dies still counts.
        for fault in self._faults:
            sim.schedule_at(fault.time, f"machine-{fault.kind}", fault, priority=10)
        sim.run(
            max_events=20 * (self.total + 1) * (self.recovery.retry_budget + 2)
            + 6 * len(self._faults) + 2 * len(self.machines) + 50_000,
            progress=progress,
            progress_every=progress_every,
        )
        if self.completed + len(self.dropped) != self.total:
            raise SimulationError(
                f"simulation stalled: completed {self.completed} + dropped "
                f"{len(self.dropped)} of {self.total} tasks"
            )

    # -- machine queues ------------------------------------------------
    def _start(self, j: int) -> None:
        if not self.up[j] or self.running[j] is not None:
            return
        queue = self.queues[j]
        if not queue:
            return
        idx = queue.popleft()
        now = self.sim.now
        duration = self.rows[idx][j] * self.factor[j]
        self.running[j] = (idx, now, now + duration)
        if self._last_failure:
            failed_at = self._last_failure.pop(idx, None)
            if failed_at is not None:
                self._tracer.observe("sim.requeue_latency", now - failed_at)
        self.sim.schedule(duration, "task-finish", (idx, j, now, self.epoch[j]))

    def _enqueue(self, idx: int, j: int, front: bool = False) -> None:
        """Put a recovered task back on machine ``j``."""
        self.requeues += 1
        if self._tracer.enabled:
            self._tracer.count("sim.requeues")
        queue = self.queues[j]
        (queue.appendleft if front else queue.append)(idx)
        self._start(j)

    def _on_ready(self, event) -> None:
        self._start(event.payload)

    def _on_finish(self, event) -> None:
        idx, j, start, start_epoch = event.payload
        if start_epoch != self.epoch[j]:
            return  # stale: the machine failed after this was scheduled
        self.running[j] = None
        now = self.sim.now
        arrived = self.arrival.pop(idx, 0.0)
        del self.rows[idx]
        self.completed += 1
        self.sum_flow += now - arrived
        if now > self.makespan:
            self.makespan = now
        if self._attempts:
            self._attempts.pop(idx, None)
        if self.trace is not None:
            self.trace.add(
                TaskExecution(self.label(idx), self.machines[j], start, now, arrived)
            )
        self._start(j)
        if self.note is not None:
            self.note()

    # -- faults and recovery -------------------------------------------
    def _mct_target(self, idx: int) -> int | None:
        """Live machine with the earliest expected completion of ``idx``
        from actual run/queue state (lowest index on ties); ``None`` if
        every machine is down."""
        now = self.sim.now
        rows = self.rows
        best, best_completion = None, np.inf
        for j, queue in enumerate(self.queues):
            if not self.up[j]:
                continue
            factor = self.factor[j]
            load = now
            run = self.running[j]
            if run is not None:
                load = max(load, run[2])
            for queued in queue:
                load += rows[queued][j] * factor
            completion = load + rows[idx][j] * factor
            if completion < best_completion:
                best, best_completion = j, completion
        return best

    def _after_next_recovery(self, kind: str, payload) -> None:
        """Re-fire ``kind`` once the next planned recovery has run
        (priority 20 orders it after that instant's recover events).  A
        recovery due now but queued behind this event is polled for."""
        times = self._recovery_times
        index = bisect_right(times, self.sim.now)
        if index < len(times):
            self.sim.schedule_at(times[index], kind, payload, priority=20)
        else:
            self.sim.schedule(self.recovery.backoff_base, kind, payload)

    def _retry_or_drop(self, idx: int, j: int) -> None:
        tracer = self._tracer
        now = self.sim.now
        attempt = self._attempts.get(idx, 0) + 1
        self._attempts[idx] = attempt
        if tracer.enabled:
            self._last_failure[idx] = now
        if attempt > self.recovery.retry_budget:
            label = self.label(idx)
            self.dropped.append(label)
            self.rows.pop(idx)
            self.arrival.pop(idx, None)
            if tracer.enabled:
                tracer.count("sim.dropped")
                tracer.event("sim.fault.drop", task=label, time=now)
            return
        self.retries += 1
        delay = self.recovery.delay(attempt)
        if tracer.enabled:
            tracer.count("sim.retries")
            tracer.event(
                "sim.fault.retry", task=self.label(idx), attempt=attempt, delay=delay
            )
        self.sim.schedule(delay, "task-retry", (idx, j))

    def _on_retry(self, event) -> None:
        idx, j = event.payload
        if self.recovery.policy == "requeue":
            self._enqueue(idx, j, front=True)
        elif self.map_batch is not None:
            self.submit(idx)
        else:
            target = self._mct_target(idx)
            if target is None:
                # No budget charge: the task did not fail again.
                self._after_next_recovery("task-retry", event.payload)
            else:
                self._enqueue(idx, target)

    def _on_fail(self, event) -> None:
        j = self._index[event.payload.machine]
        if not self.up[j]:
            return
        self.up[j] = False
        self.epoch[j] += 1
        self.failures += 1
        victim = self.running[j]
        self.running[j] = None
        queue = self.queues[j]
        tracer = self._tracer
        if tracer.enabled:
            tracer.count("sim.failures")
            tracer.event(
                "sim.fault.fail", machine=self.machines[j], time=self.sim.now,
                running=self.label(victim[0]) if victim else None,
                queued=len(queue),
            )
        if self.recovery.policy == "remap" and queue:
            # Queued tasks never failed themselves: they move on at once
            # and keep their retry budgets.
            stranded = list(queue)
            queue.clear()
            if self.map_batch is not None:
                self.pending.extend(stranded)
                self._arm_batch()
            else:
                for idx in stranded:
                    target = self._mct_target(idx)
                    if target is None:
                        queue.append(idx)  # everyone is down; wait here
                    else:
                        self._enqueue(idx, target)
        if victim is not None:
            self.aborted += 1
            self._retry_or_drop(victim[0], j)
        if not self._recoveries_left and not any(self.up):
            stranded = self.total - self.completed - len(self.dropped)
            if stranded:
                raise SimulationError(
                    f"all {len(self.machines)} machines are down and no machine "
                    f"recovers: {stranded} tasks stranded at t={self.sim.now:g}"
                )
        if self.note is not None:
            self.note()

    def _on_recover(self, event) -> None:
        self._recoveries_left -= 1
        j = self._index[event.payload.machine]
        if self.up[j]:
            return
        self.up[j] = True
        self.recoveries += 1
        if self._tracer.enabled:
            self._tracer.count("sim.recoveries")
            self._tracer.event(
                "sim.fault.recover", machine=self.machines[j], time=self.sim.now
            )
        self._start(j)

    def _on_slow(self, event) -> None:
        fault = event.payload
        self.factor[self._index[fault.machine]] = fault.factor
        self.slowdowns += 1
        if self._tracer.enabled:
            self._tracer.count("sim.slowdowns")
            self._tracer.event(
                "sim.fault.slow", machine=fault.machine, time=self.sim.now,
                factor=fault.factor,
            )

    def _on_restore(self, event) -> None:
        self.factor[self._index[event.payload.machine]] = 1.0

    # -- batches -------------------------------------------------------
    def _arm_batch(self) -> None:
        """Schedule a mapping event at ``last + interval`` (or now, if
        that has passed) unless one is due.  It fires on a timer, so a
        task arriving just after a mapping event waits at most one
        interval, and after same-instant arrivals (priority 10), so a
        burst is mapped as one batch."""
        if self._batch_armed:
            return
        due = max(self.sim.now, self._last_batch + self.batch_interval)
        self.sim.schedule_at(due, BATCH_EVENT, priority=10)
        self._batch_armed = True

    def _on_batch(self, event) -> None:
        self._batch_armed = False
        self._last_batch = self.sim.now
        if self.pending:
            live = [j for j, up in enumerate(self.up) if up]
            if live:
                batch, self.pending = self.pending, []
                self.batches += 1
                self.batch_max = max(self.batch_max, len(batch))
                self.map_batch(batch, live)
            else:
                self._after_next_recovery(BATCH_EVENT, None)
                self._batch_armed = True
        if self.note is not None:
            self.note()
