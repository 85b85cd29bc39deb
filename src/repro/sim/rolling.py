"""Rolling-horizon online serving simulation.

This is the layer that turns the reproduction into a *serving system*:
tasks arrive continuously (Poisson, bursty, or trace-replay gaps from
:mod:`repro.sim.arrivals`), and every ``horizon`` time units the batch
of tasks that arrived since the previous mapping event is mapped by a
pluggable heuristic and then **refined by the paper's iterative
technique** (:class:`~repro.core.iterative.IterativeScheduler`) before
being dispatched to per-machine FIFO queues of the shared
:class:`~repro.sim.executor.QueueExecutor`.  A seeded
:class:`~repro.sim.faults.FaultPlan` may inject failures, recoveries
and slowdowns live during the run (docs/robustness.md#failure-semantics;
``remap`` sends interrupted tasks to the next batch).

Task definitions stream in bounded windows from a
:class:`TaskSource` — either generated on the fly
(:class:`EnsembleTaskSource`, wrapping ``stream_ensemble``) or
memory-mapped out of an :class:`~repro.etc.store.ETCStore`
(:class:`StoreTaskSource`) — so a million-task run holds one window of
definitions plus the live backlog, never the whole workload.

Observability: ``rolling.horizon`` spans (one per mapping event, with
batch size and live-machine count) nest under a ``rolling.run`` phase
for ``repro obs timeline``, and an optional :class:`RollingSampler`
writes a ``repro-timeseries/1`` throughput log (``tasks_scheduled`` /
``tasks_per_s`` headline, backlog, RSS).  See docs/rolling.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.core.iterative import IterativeScheduler
from repro.core.ties import DeterministicTieBreaker, TieBreaker
from repro.etc.generation import (
    DEFAULT_STREAM_WINDOW,
    Consistency,
    Heterogeneity,
    stream_ensemble,
)
from repro.etc.matrix import ETCMatrix
from repro.exceptions import ConfigurationError, SimulationError
from repro.heuristics.base import Heuristic
from repro.obs.timeseries import TIMESERIES_SCHEMA, TimeSeriesLog, rss_bytes
from repro.obs.tracer import get_tracer
from repro.sim.arrivals import ArrivalProcess, PoissonArrivals
from repro.sim.executor import QueueExecutor, Recovery, check_plan_machines
from repro.sim.faults import FaultPlan

__all__ = [
    "TaskSource",
    "EnsembleTaskSource",
    "StoreTaskSource",
    "calibrate_rate",
    "RollingResult",
    "RollingSampler",
    "RollingSimulation",
    "DEFAULT_UTILIZATION",
]

#: Target fraction of aggregate machine capacity consumed by arrivals
#: when the rate is calibrated from the workload instead of given.
DEFAULT_UTILIZATION = 0.7


# ----------------------------------------------------------------------
# Task sources (windowed, out-of-core)
# ----------------------------------------------------------------------
class TaskSource:
    """Streams task ETC rows in bounded windows.

    ``chunks()`` yields C-ordered float64 arrays of shape
    ``(B, num_machines)`` — one row per task, in arrival order — whose
    row counts sum to ``num_tasks``.  Implementations must keep peak
    memory at one window regardless of the total.
    """

    num_tasks: int
    num_machines: int

    def chunks(self) -> Iterator[np.ndarray]:
        raise NotImplementedError


class EnsembleTaskSource(TaskSource):
    """Generates task rows on the fly via ``stream_ensemble``.

    Instances of shape ``(tasks_per_instance, num_machines)`` are drawn
    from the seeded RNG stream in :func:`~repro.etc.generation.generate_ensemble`
    order, flattened row-major into the arrival sequence, and trimmed
    to ``num_tasks`` (the last instance may be partially consumed).
    """

    def __init__(
        self,
        num_tasks: int,
        num_machines: int,
        *,
        tasks_per_instance: int = 64,
        heterogeneity: Heterogeneity = Heterogeneity.HIHI,
        consistency: Consistency = Consistency.INCONSISTENT,
        method: str = "range",
        rng: np.random.Generator | int | None = None,
        window: int = DEFAULT_STREAM_WINDOW,
    ) -> None:
        if num_tasks < 1:
            raise ConfigurationError(f"num_tasks must be >= 1, got {num_tasks}")
        if num_machines < 1:
            raise ConfigurationError(
                f"num_machines must be >= 1, got {num_machines}"
            )
        if tasks_per_instance < 1:
            raise ConfigurationError(
                f"tasks_per_instance must be >= 1, got {tasks_per_instance}"
            )
        self.num_tasks = int(num_tasks)
        self.num_machines = int(num_machines)
        self.tasks_per_instance = int(tasks_per_instance)
        self.heterogeneity = heterogeneity
        self.consistency = consistency
        self.method = method
        self._rng = rng
        self.window = int(window)

    def chunks(self) -> Iterator[np.ndarray]:
        count = -(-self.num_tasks // self.tasks_per_instance)
        blocks = stream_ensemble(
            count,
            self.tasks_per_instance,
            self.num_machines,
            heterogeneity=self.heterogeneity,
            consistency=self.consistency,
            method=self.method,
            rng=self._rng,
            window=self.window,
        )
        return _task_rows(blocks, self.num_tasks, self.num_machines)


class StoreTaskSource(TaskSource):
    """Streams task rows out of a committed :class:`~repro.etc.store.ETCStore`
    entry, one instance-window at a time (memory-mapped reads, copied a
    window at a time so resident memory stays bounded)."""

    def __init__(
        self,
        store,
        key: str,
        *,
        num_tasks: int | None = None,
        window: int = DEFAULT_STREAM_WINDOW,
    ) -> None:
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        batch = store.batch(key)
        count, tasks_per_instance, num_machines = batch.values.shape
        available = count * tasks_per_instance
        if num_tasks is None:
            num_tasks = available
        if not 1 <= num_tasks <= available:
            raise ConfigurationError(
                f"num_tasks must be in [1, {available}] for entry {key!r}, "
                f"got {num_tasks}"
            )
        self._batch = batch
        self.num_tasks = int(num_tasks)
        self.num_machines = int(num_machines)
        self.tasks_per_instance = int(tasks_per_instance)
        self.window = int(window)

    def chunks(self) -> Iterator[np.ndarray]:
        values = self._batch.values
        blocks = (
            np.array(values[start : start + self.window], dtype=np.float64)
            for start in range(0, values.shape[0], self.window)
        )
        return _task_rows(blocks, self.num_tasks, self.num_machines)


def _task_rows(blocks, num_tasks: int, num_machines: int) -> Iterator[np.ndarray]:
    """Flatten instance blocks into task rows, trimmed to ``num_tasks``."""
    emitted = 0
    for block in blocks:
        rows = block.reshape(-1, num_machines)
        take = min(rows.shape[0], num_tasks - emitted)
        if take <= 0:
            return
        yield np.ascontiguousarray(rows[:take])
        emitted += take


def calibrate_rate(
    chunk: np.ndarray, utilization: float = DEFAULT_UTILIZATION
) -> float:
    """Arrival rate that loads the system to ``utilization``.

    A task's best-case service time is its row minimum; with ``M``
    machines draining in parallel the saturation rate is roughly
    ``M / mean(row minima)``, so the calibrated rate is that times the
    requested utilization — computed from the first streamed window so
    no extra randomness is consumed.
    """
    if not 0.0 < utilization:
        raise ConfigurationError(
            f"utilization must be positive, got {utilization}"
        )
    mean_min = float(np.mean(np.min(chunk, axis=1)))
    if mean_min <= 0:
        raise ConfigurationError("task rows must have positive service times")
    return utilization * chunk.shape[1] / mean_min


# ----------------------------------------------------------------------
# Result / sampler
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RollingResult:
    """Aggregate outcome of one rolling-horizon run.

    Only aggregates are kept — a million-task run must not hold a
    per-task trace.  Accounting closes by construction:
    ``completed + len(dropped) == total_tasks`` (enforced with a
    :class:`~repro.exceptions.SimulationError` otherwise).
    """

    total_tasks: int
    completed: int
    dropped: tuple[str, ...]
    arrival_rate: float
    horizon: float
    refine_iterations: int | None
    horizons: int
    dispatches: int
    batch_max: int
    makespan: float
    sim_end: float
    mean_queue_wait: float
    max_queue_wait: float
    mean_flow: float
    peak_backlog: int
    failures: int
    recoveries: int
    slowdowns: int
    aborted: int
    retries: int

    @property
    def mean_batch(self) -> float:
        return self.dispatches / self.horizons if self.horizons else 0.0


class RollingSampler:
    """Throttled throughput sampler for rolling runs.

    Mirrors :class:`~repro.obs.timeseries.GridSampler`: fed from the
    simulation's event handlers, writes a ``repro-timeseries/1`` line
    at most every ``interval_s`` wall-clock seconds plus one forced
    final sample on :meth:`close`.  ``tasks_scheduled`` counts
    *dispatches* (tasks handed to a machine queue, the serving-loop
    headline) and ``tasks_per_s`` is its wall-clock rate.
    """

    def __init__(
        self,
        path,
        *,
        total_tasks: int,
        label: str = "",
        interval_s: float = 0.5,
        clock=time.perf_counter,
        rss_fn=rss_bytes,
    ) -> None:
        if interval_s < 0:
            raise ConfigurationError(
                f"sample interval must be >= 0, got {interval_s}"
            )
        self.log = TimeSeriesLog(path, label=label, clock=clock)
        self.total_tasks = total_tasks
        self.interval_s = interval_s
        self._clock = clock
        self._rss_fn = rss_fn
        self._last_sample: float | None = None
        self.tasks_arrived = 0
        self.tasks_scheduled = 0
        self.tasks_completed = 0
        self.tasks_dropped = 0
        self.failures = 0
        self.pending = 0
        self.backlog = 0
        self.sim_time = 0.0

    def metrics(self) -> dict:
        elapsed = self.log.elapsed()
        rate = 1.0 / elapsed if elapsed > 0 else 0.0
        return {
            "tasks_arrived": self.tasks_arrived,
            "tasks_scheduled": self.tasks_scheduled,
            "tasks_completed": self.tasks_completed,
            "tasks_dropped": self.tasks_dropped,
            "tasks_total": self.total_tasks,
            "tasks_per_s": self.tasks_scheduled * rate,
            "pending": self.pending,
            "backlog": self.backlog,
            "failures": self.failures,
            "rss_bytes": self._rss_fn(),
            "sim_time": self.sim_time,
        }

    def note(self) -> None:
        """Consider writing a sample (throttled by ``interval_s``)."""
        now = self._clock()
        if (
            self._last_sample is not None
            and now - self._last_sample < self.interval_s
        ):
            return
        self._last_sample = now
        self.log.sample(self.metrics())

    def summary(self) -> dict:
        """Headline numbers for the run ledger entry."""
        metrics = self.metrics()
        return {
            "schema": TIMESERIES_SCHEMA,
            "path": str(self.log.path),
            "samples": self.log.samples_written,
            "duration_s": self.log.elapsed(),
            "tasks_scheduled": metrics["tasks_scheduled"],
            "tasks_per_s": metrics["tasks_per_s"],
            "peak_rss_bytes": metrics["rss_bytes"],
        }

    def close(self) -> None:
        """Force a final sample and close the file (idempotent)."""
        if self.log._handle is not None:
            self._last_sample = None
            self.note()
            self.log.close()


# ----------------------------------------------------------------------
# The rolling-horizon simulation
# ----------------------------------------------------------------------
class RollingSimulation:
    """Serves a streamed workload with periodic refine-then-dispatch.

    Parameters
    ----------
    source:
        Windowed :class:`TaskSource` for task ETC rows.
    heuristic:
        Batch heuristic that maps each horizon's pending tasks.
    horizon:
        Mapping-event cadence in simulation time units.  Each event
        maps every task that arrived since the previous one.
    arrival:
        An :class:`~repro.sim.arrivals.ArrivalProcess`, a callable
        ``rate -> ArrivalProcess`` (built with the calibrated rate), or
        ``None`` for Poisson arrivals at the calibrated rate.
    utilization:
        Target load for rate calibration (ignored when ``arrival`` is
        a ready process); see :func:`calibrate_rate`.
    refine_iterations:
        Cap forwarded to :meth:`IterativeScheduler.run` —
        ``1`` dispatches the plain heuristic mapping, ``None`` runs the
        paper's technique to completion, ``k`` stops after ``k``
        iterations (original mapping included).
    plan / recovery / retry_budget / backoff_base / backoff_cap:
        Live fault injection with the shared failure semantics
        (docs/robustness.md#failure-semantics); ``remap`` sends
        interrupted and stranded tasks to the *next horizon batch*.
    """

    def __init__(
        self,
        source: TaskSource,
        heuristic: Heuristic,
        *,
        horizon: float = 1.0,
        arrival: ArrivalProcess | Callable[[float], ArrivalProcess] | None = None,
        utilization: float = DEFAULT_UTILIZATION,
        refine_iterations: int | None = 2,
        rng: np.random.Generator | int | None = None,
        plan: FaultPlan | None = None,
        recovery: str = "remap",
        retry_budget: int = 3,
        backoff_base: float = 1.0,
        backoff_cap: float | None = None,
        tie_breaker: TieBreaker | None = None,
    ) -> None:
        if horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {horizon}")
        if refine_iterations is not None and refine_iterations < 1:
            raise ConfigurationError(
                f"refine_iterations must be >= 1 or None, got {refine_iterations}"
            )
        self._recovery = Recovery(recovery, retry_budget, backoff_base, backoff_cap)
        self.machines = [f"m{j}" for j in range(source.num_machines)]
        check_plan_machines(plan, self.machines)
        self.source = source
        self.heuristic = heuristic
        self.horizon = float(horizon)
        self.arrival = arrival
        self.utilization = float(utilization)
        self.refine_iterations = refine_iterations
        self._rng = rng
        self.plan = plan
        self.recovery = recovery
        self.tie_breaker = tie_breaker or DeterministicTieBreaker()

    # ------------------------------------------------------------------
    def backoff_delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based): bounded doubling."""
        return self._recovery.delay(attempt)

    def _make_process(self, first_chunk: np.ndarray) -> tuple[ArrivalProcess, float]:
        rate = calibrate_rate(first_chunk, self.utilization)
        if self.arrival is None:
            return PoissonArrivals(rate), rate
        if isinstance(self.arrival, ArrivalProcess):
            process = self.arrival
            return process, getattr(process, "rate", rate)
        process = self.arrival(rate)
        return process, getattr(process, "rate", rate)

    # ------------------------------------------------------------------
    def run(
        self,
        sampler: RollingSampler | None = None,
        progress=None,
        progress_every: int = 10_000,
    ) -> RollingResult:
        """Serve the whole workload; returns aggregate statistics."""
        source = self.source
        total = source.num_tasks
        machines = self.machines
        tracer = get_tracer()
        gen = np.random.default_rng(self._rng)  # a Generator passes through
        scheduler = IterativeScheduler(self.heuristic, tie_breaker=self.tie_breaker)
        chunk_iter = source.chunks()
        try:
            first_chunk = next(chunk_iter)
        except StopIteration:  # pragma: no cover - sources forbid 0 tasks
            raise SimulationError("task source yielded no chunks")
        process, arrival_rate = self._make_process(first_chunk)
        process.reset()

        peak_backlog = next_task_idx = 0
        chunk_last_idx = -1

        def sample() -> None:
            # Arrived tasks stay in ``executor.arrival`` until they finish
            # or drop: its size is the backlog (pending + queued + running).
            backlog = len(executor.arrival)
            done = executor.completed + len(executor.dropped)
            sampler.tasks_arrived = backlog + done
            sampler.tasks_scheduled = executor.dispatches
            sampler.tasks_completed = executor.completed
            sampler.tasks_dropped = len(executor.dropped)
            sampler.failures = executor.failures
            sampler.pending = len(executor.pending)
            sampler.backlog = backlog
            sampler.sim_time = executor.sim.now
            sampler.note()

        def map_batch(batch: list[int], live: list[int]) -> None:
            rows = executor.rows
            with tracer.phase(
                "rolling.horizon",
                index=executor.batches,
                batch=len(batch),
                live=len(live),
            ):
                values = np.array([rows[idx] for idx in batch])[:, live]
                values *= np.array(
                    [executor.factor[j] for j in live], dtype=np.float64
                )
                sub = ETCMatrix(
                    values,
                    tasks=[f"t{idx}" for idx in batch],
                    machines=[machines[j] for j in live],
                )
                now = executor.sim.now
                ready = [max(float(executor.expected_free[j]), now) for j in live]
                result = scheduler.run(
                    sub, ready_times=ready, max_iterations=self.refine_iterations
                )
                for assignment in result.final_mapping().assignments:
                    executor.dispatch(
                        int(assignment.task[1:]), int(assignment.machine[1:])
                    )

        executor = QueueExecutor(
            machines, "t{}".format, total,
            plan=self.plan,
            recovery=self._recovery,
            map_batch=map_batch,
            batch_interval=self.horizon,
            note=None if sampler is None else sample,
        )
        sim = executor.sim

        def schedule_chunk(chunk: np.ndarray) -> None:
            nonlocal next_task_idx, chunk_last_idx
            count = chunk.shape[0]
            base = next_task_idx
            executor.rows.update(zip(range(base, base + count), chunk.tolist()))
            gaps = process.gaps(count, gen)
            times = (float(sim.now) + np.cumsum(gaps)).tolist()
            for i, time_ in enumerate(times):
                sim.schedule_at(time_, "task-arrival", base + i)
            next_task_idx = base + count
            chunk_last_idx = next_task_idx - 1

        def on_arrival(event) -> None:
            nonlocal peak_backlog
            idx = event.payload
            executor.arrival[idx] = sim.now
            executor.submit(idx)
            peak_backlog = max(peak_backlog, len(executor.arrival))
            if idx == chunk_last_idx:
                chunk = next(chunk_iter, None)
                if chunk is not None:
                    schedule_chunk(chunk)
            if sampler is not None:
                sample()

        sim.on("task-arrival", on_arrival)
        with tracer.phase(
            "rolling.run",
            tasks=total,
            machines=len(machines),
            horizon=self.horizon,
            heuristic=self.heuristic.name,
        ):
            schedule_chunk(first_chunk)
            executor.run(progress=progress, progress_every=progress_every)

        if sampler is not None:
            sample()
        dispatches = executor.dispatches
        return RollingResult(
            total_tasks=total,
            completed=executor.completed,
            dropped=tuple(executor.dropped),
            arrival_rate=float(arrival_rate),
            horizon=self.horizon,
            refine_iterations=self.refine_iterations,
            horizons=executor.batches,
            dispatches=dispatches,
            batch_max=executor.batch_max,
            makespan=executor.makespan,
            sim_end=sim.now,
            mean_queue_wait=executor.sum_wait / dispatches if dispatches else 0.0,
            max_queue_wait=executor.max_wait,
            mean_flow=(
                executor.sum_flow / executor.completed if executor.completed else 0.0
            ),
            peak_backlog=peak_backlog,
            failures=executor.failures,
            recoveries=executor.recoveries,
            slowdowns=executor.slowdowns,
            aborted=executor.aborted,
            retries=executor.retries,
        )
