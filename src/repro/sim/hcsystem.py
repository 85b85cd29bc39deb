"""Simulated heterogeneous computing suite.

Three drivers over the shared machine-queue executor
(:mod:`repro.sim.executor`):

* **static** (:class:`HCSystem`) — execute a complete, precomputed
  mapping: each machine runs its tasks one at a time in assignment
  order from its initial ready time.  This independently *measures* the
  finishing times that the analytic Eq. (1) bookkeeping predicts; the
  property suite asserts they agree for every heuristic (DESIGN.md E25).

* **dynamic** (:class:`DynamicHCSimulation`) — tasks arrive over time
  (the environment SWA, K-percent Best and Sufferage were designed for
  in Maheswaran et al.).  *Immediate mode* maps each task the moment it
  arrives using an :class:`OnlinePolicy`; *batch mode* collects pending
  tasks and remaps them with a full batch heuristic at every mapping
  event (fixed-interval cadence).

* **faulty** (:class:`FaultTolerantHCSystem`) — execute a static
  mapping while a seeded :class:`~repro.sim.faults.FaultPlan` injects
  machine failures, recoveries and slowdowns (docs/robustness.md).

The static case is the faulty one with no faults.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.schedule import Mapping, ready_time_vector
from repro.core.ties import DeterministicTieBreaker, TieBreaker, tied_argmin
from repro.etc.matrix import ETCMatrix
from repro.exceptions import ConfigurationError, SimulationError
from repro.heuristics.base import Heuristic
from repro.heuristics.kpb import kpb_subset_size
from repro.heuristics.swa import balance_index
from repro.sim.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from repro.sim.executor import (
    RECOVERY_POLICIES,
    QueueExecutor,
    Recovery,
    check_plan_machines,
)
from repro.sim.faults import FaultPlan
from repro.sim.trace import ExecutionTrace

__all__ = [
    "HCSystem",
    "ArrivalWorkload",
    "poisson_workload",
    "bursty_workload",
    "trace_replay_workload",
    "workload_from_process",
    "OnlinePolicy",
    "MCTOnline",
    "METOnline",
    "OLBOnline",
    "KPBOnline",
    "SWAOnline",
    "DynamicHCSimulation",
    "RECOVERY_POLICIES",
    "FaultyExecution",
    "FaultTolerantHCSystem",
]


# ----------------------------------------------------------------------
# Static execution
# ----------------------------------------------------------------------
def _execute_mapping(
    etc: ETCMatrix,
    mapping: Mapping,
    initial_ready: np.ndarray,
    plan: FaultPlan | None = None,
    recovery: Recovery | None = None,
) -> QueueExecutor:
    """Run a static ``mapping`` to completion (under ``plan``, if any)."""
    if mapping.etc is not etc and mapping.etc != etc:
        raise SimulationError("mapping was built for a different ETC matrix")
    executor = QueueExecutor(
        etc.machines, etc.tasks.__getitem__, mapping.num_assigned,
        plan=plan, recovery=recovery, trace=ExecutionTrace(etc.machines),
    )
    executor.rows.update(enumerate(etc.values.tolist()))
    for j, machine in enumerate(etc.machines):
        executor.queues[j].extend(map(etc.task_index, mapping.machine_tasks(machine)))
        executor.sim.schedule_at(float(initial_ready[j]), "machine-ready", j)
    executor.run()
    return executor


class HCSystem:
    """Executes a complete static mapping and measures the timeline."""

    def __init__(
        self,
        etc: ETCMatrix,
        initial_ready: MappingABC[str, float] | Sequence[float] | None = None,
    ) -> None:
        self.etc = etc
        self._initial_ready = ready_time_vector(etc, initial_ready)

    def execute(self, mapping: Mapping) -> ExecutionTrace:
        """Run ``mapping`` to completion; returns the measured trace."""
        return _execute_mapping(self.etc, mapping, self._initial_ready).trace

    def measured_finish_times(self, mapping: Mapping) -> dict[str, float]:
        """Per-machine measured finishing times (idle machines keep
        their initial ready time, matching ``Mapping`` semantics)."""
        trace = self.execute(mapping)
        base = dict(zip(self.etc.machines, self._initial_ready.tolist()))
        return trace.machine_finish_times(initial_ready=base)


# ----------------------------------------------------------------------
# Fault-tolerant execution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultyExecution:
    """Outcome of one fault-injected run of a static mapping.

    ``trace`` records the *successful* execution of every task (the
    final attempt only); ``aborted`` counts attempts killed mid-run by a
    machine failure; ``dropped`` lists tasks whose retry budget ran out
    (empty when the system recovered everything).
    """

    trace: ExecutionTrace
    plan: FaultPlan
    policy: str
    failures: int
    recoveries: int
    slowdowns: int
    aborted: int
    retries: int
    requeues: int
    dropped: tuple[str, ...]

    @property
    def completed(self) -> int:
        return len(self.trace)

    @property
    def makespan(self) -> float:
        return self.trace.makespan()

    def finish_times(self, initial_ready=None) -> dict[str, float]:
        return self.trace.machine_finish_times(initial_ready=initial_ready)


class FaultTolerantHCSystem:
    """Executes a static mapping under an injected :class:`FaultPlan`.

    A failure aborts the running task, which is retried with bounded
    exponential backoff until its ``retry_budget`` runs out and is then
    dropped (reported, never lost); slowdowns stretch tasks *started*
    on the degraded machine.  ``policy`` ``"requeue"`` puts the victim
    back at the head of its machine's queue; ``"remap"`` moves it, and
    the failed machine's queued tasks, onto the live machine with the
    earliest expected completion (the MCT rule, lowest index on ties).
    See docs/robustness.md#failure-semantics.  Fault counters and the
    ``sim.requeue_latency`` histogram flow through the :mod:`repro.obs`
    tracer.
    """

    def __init__(
        self,
        etc: ETCMatrix,
        plan: FaultPlan,
        policy: str = "requeue",
        retry_budget: int = 3,
        backoff_base: float = 1.0,
        backoff_cap: float | None = None,
        initial_ready: MappingABC[str, float] | Sequence[float] | None = None,
    ) -> None:
        self._recovery = Recovery(policy, retry_budget, backoff_base, backoff_cap)
        check_plan_machines(plan, etc.machines)
        self.etc = etc
        self.plan = plan
        self.policy = policy
        self._initial_ready = ready_time_vector(etc, initial_ready)

    def backoff_delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based): bounded doubling."""
        return self._recovery.delay(attempt)

    def execute(self, mapping: Mapping) -> FaultyExecution:
        """Run ``mapping`` to completion under the fault plan."""
        run = _execute_mapping(
            self.etc, mapping, self._initial_ready, self.plan, self._recovery
        )
        return FaultyExecution(
            trace=run.trace,
            plan=self.plan,
            policy=self.policy,
            failures=run.failures,
            recoveries=run.recoveries,
            slowdowns=run.slowdowns,
            aborted=run.aborted,
            retries=run.retries,
            requeues=run.requeues,
            dropped=tuple(run.dropped),
        )


# ----------------------------------------------------------------------
# Dynamic workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArrivalWorkload:
    """Tasks with arrival times over an ETC matrix.

    ``arrivals[i]`` is the arrival time of ``etc.tasks[i]``; arrivals
    need not be sorted (the simulator orders them).
    """

    etc: ETCMatrix
    arrivals: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.arrivals) != self.etc.num_tasks:
            raise ConfigurationError(
                f"{len(self.arrivals)} arrival times for {self.etc.num_tasks} tasks"
            )
        if any(a < 0 or a != a for a in self.arrivals):
            raise ConfigurationError("arrival times must be finite and non-negative")

    def arrival_of(self, task: str) -> float:
        return self.arrivals[self.etc.task_index(task)]


def poisson_workload(
    etc: ETCMatrix,
    rate: float,
    rng: np.random.Generator | int | None = None,
) -> ArrivalWorkload:
    """Poisson arrivals: exponential inter-arrival times with ``rate``."""
    return workload_from_process(etc, PoissonArrivals(rate), rng)


def workload_from_process(
    etc: ETCMatrix,
    process: ArrivalProcess,
    rng: np.random.Generator | int | None = None,
) -> ArrivalWorkload:
    """Arrivals drawn from any :mod:`repro.sim.arrivals` process."""
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    process.reset()
    gaps = process.gaps(etc.num_tasks, gen)
    return ArrivalWorkload(etc=etc, arrivals=tuple(np.cumsum(gaps).tolist()))


def bursty_workload(
    etc: ETCMatrix,
    rate: float,
    rng: np.random.Generator | int | None = None,
    *,
    burst_factor: float = 8.0,
    burst_fraction: float = 0.5,
    mean_burst: float = 16.0,
) -> ArrivalWorkload:
    """Bursty arrivals with an unchanged overall mean ``rate``
    (see :class:`repro.sim.arrivals.BurstyArrivals`)."""
    process = BurstyArrivals(
        rate,
        burst_factor=burst_factor,
        burst_fraction=burst_fraction,
        mean_burst=mean_burst,
    )
    return workload_from_process(etc, process, rng)


def trace_replay_workload(
    etc: ETCMatrix,
    trace_gaps: Sequence[float],
) -> ArrivalWorkload:
    """Replay recorded inter-arrival gaps (cycling if the workload
    outlives the trace; see :class:`repro.sim.arrivals.TraceArrivals`)."""
    process = TraceArrivals(trace_gaps)
    return workload_from_process(etc, process, rng=0)


# ----------------------------------------------------------------------
# Immediate-mode policies (Maheswaran et al. on-line heuristics)
# ----------------------------------------------------------------------
class OnlinePolicy:
    """Chooses a machine for one task the moment it arrives.

    ``expected_free[j]`` is when machine ``j`` will have drained its
    current queue (the on-line analogue of the ready time).
    """

    name: str = ""

    def __init__(self, tie_breaker: TieBreaker | None = None) -> None:
        self.tie_breaker = tie_breaker or DeterministicTieBreaker()

    def choose(self, etc_row: np.ndarray, expected_free: np.ndarray, now: float) -> int:
        raise NotImplementedError

    def reset(self) -> None:
        """Clear per-run state.  :meth:`DynamicHCSimulation.run` calls
        this at the start of every run so one policy instance can be
        reused across runs (paired comparisons) without state leaking
        from the previous workload.  Stateless policies inherit this
        no-op."""


class MCTOnline(OnlinePolicy):
    """On-line MCT: minimise expected completion time."""

    name = "mct-online"

    def choose(self, etc_row: np.ndarray, expected_free: np.ndarray, now: float) -> int:
        completion = np.maximum(expected_free, now) + etc_row
        return self.tie_breaker.choose(tied_argmin(completion))


class METOnline(OnlinePolicy):
    """On-line MET: fastest machine regardless of load."""

    name = "met-online"

    def choose(self, etc_row: np.ndarray, expected_free: np.ndarray, now: float) -> int:
        return self.tie_breaker.choose(tied_argmin(etc_row))


class OLBOnline(OnlinePolicy):
    """On-line OLB: machine expected free soonest."""

    name = "olb-online"

    def choose(self, etc_row: np.ndarray, expected_free: np.ndarray, now: float) -> int:
        return self.tie_breaker.choose(tied_argmin(np.maximum(expected_free, now)))


class KPBOnline(OnlinePolicy):
    """On-line K-percent Best: MCT within the k% fastest machines."""

    name = "kpb-online"

    def __init__(
        self, percent: float = 50.0, tie_breaker: TieBreaker | None = None
    ) -> None:
        super().__init__(tie_breaker)
        if not 0.0 < percent <= 100.0:
            raise ConfigurationError(f"percent must be in (0, 100], got {percent}")
        self.percent = float(percent)

    def choose(self, etc_row: np.ndarray, expected_free: np.ndarray, now: float) -> int:
        size = kpb_subset_size(etc_row.size, self.percent)
        subset = np.sort(np.argsort(etc_row, kind="stable")[:size])
        completion = np.maximum(expected_free[subset], now) + etc_row[subset]
        pick = self.tie_breaker.choose(tied_argmin(completion))
        return int(subset[pick])


class SWAOnline(OnlinePolicy):
    """On-line Switching Algorithm: MCT/MET toggled by the balance index."""

    name = "swa-online"

    def __init__(
        self,
        low: float = 0.40,
        high: float = 0.49,
        tie_breaker: TieBreaker | None = None,
    ) -> None:
        super().__init__(tie_breaker)
        if not 0.0 <= low < high <= 1.0:
            raise ConfigurationError(
                f"thresholds must satisfy 0 <= low < high <= 1, got {low}, {high}"
            )
        self.low = float(low)
        self.high = float(high)
        self._current = "mct"

    def reset(self) -> None:
        # The MCT/MET toggle is per-run state: without this reset a
        # reused instance would start run N+1 in whatever mode run N
        # ended in, breaking paired comparisons.
        self._current = "mct"

    def choose(self, etc_row: np.ndarray, expected_free: np.ndarray, now: float) -> int:
        load = np.maximum(expected_free, now)
        bi = balance_index(load)
        if bi == bi:  # not NaN
            if bi > self.high:
                self._current = "met"
            elif bi < self.low:
                self._current = "mct"
        if self._current == "met":
            return self.tie_breaker.choose(tied_argmin(etc_row))
        return self.tie_breaker.choose(tied_argmin(load + etc_row))


# ----------------------------------------------------------------------
# Dynamic simulation
# ----------------------------------------------------------------------
class DynamicHCSimulation:
    """Simulates a dynamic HC system under an on-line or batch policy.

    Exactly one of ``policy`` (immediate mode) or ``batch_heuristic``
    (batch mode) must be given.  In batch mode a *mapping event* fires
    at the interval boundary ``last_batch + batch_interval`` once a task
    is pending — immediately for the first arrival of a cycle past the
    boundary, on a timer otherwise (Maheswaran et al.'s interval-based
    batch mode).  A batch heuristic that leaves tasks unmapped stalls
    the run, which raises :class:`~repro.exceptions.SimulationError`.
    """

    def __init__(
        self,
        workload: ArrivalWorkload,
        policy: OnlinePolicy | None = None,
        batch_heuristic: Heuristic | None = None,
        batch_interval: float = 1.0,
        tie_breaker: TieBreaker | None = None,
    ) -> None:
        if (policy is None) == (batch_heuristic is None):
            raise ConfigurationError(
                "provide exactly one of policy (immediate) or batch_heuristic"
            )
        if batch_heuristic is not None and batch_interval <= 0:
            raise ConfigurationError(
                f"batch_interval must be positive, got {batch_interval}"
            )
        self.workload = workload
        self.policy = policy
        self.batch_heuristic = batch_heuristic
        self.batch_interval = float(batch_interval)
        self.tie_breaker = tie_breaker or DeterministicTieBreaker()

    # ------------------------------------------------------------------
    def run(self, progress=None, progress_every: int = 1000) -> ExecutionTrace:
        """Execute the workload; ``progress`` is forwarded to the engine
        (see :meth:`repro.sim.engine.Simulator.run`)."""
        etc = self.workload.etc
        values = etc.values
        policy = self.policy
        if policy is not None:
            policy.reset()

        def map_batch(batch: list[int], live: list[int]) -> None:
            sub = etc.submatrix(tasks=[etc.tasks[idx] for idx in batch])
            ready = np.maximum(executor.expected_free, executor.sim.now)
            mapping = self.batch_heuristic.map_tasks(
                sub, ready.tolist(), self.tie_breaker
            )
            for a in mapping.assignments:
                executor.dispatch(etc.task_index(a.task), etc.machine_index(a.machine))

        executor = QueueExecutor(
            etc.machines, etc.tasks.__getitem__, etc.num_tasks,
            map_batch=None if policy is not None else map_batch,
            batch_interval=self.batch_interval,
            trace=ExecutionTrace(etc.machines),
        )
        executor.rows.update(enumerate(values.tolist()))
        executor.arrival.update(enumerate(self.workload.arrivals))

        def on_arrival(event) -> None:
            idx = event.payload
            if policy is None:
                executor.submit(idx)
                return
            now = executor.sim.now
            j = policy.choose(values[idx], executor.expected_free, now)
            executor.dispatch(idx, int(j))

        sim = executor.sim
        sim.on("task-arrival", on_arrival)
        for idx, arrival in enumerate(self.workload.arrivals):
            sim.schedule_at(arrival, "task-arrival", idx)
        executor.run(progress=progress, progress_every=progress_every)
        return executor.trace
