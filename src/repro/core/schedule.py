"""Mappings, ready times and completion times (paper Section 2).

A *mapping* assigns each task to one machine.  Machines execute their
tasks one at a time in assignment order starting from their *initial
ready time*; the completion time of a new task ``t`` on machine ``m`` is

    CT(t, m) = ETC(t, m) + RT(m)                         (paper Eq. 1)

where ``RT(m)`` is the machine's current ready time given the tasks
already assigned to it.  A machine's *finishing time* is its ready time
after all of its tasks; the *makespan* is the largest finishing time and
the *makespan machine* is the machine attaining it.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.ties import DeterministicTieBreaker, TieBreaker, tied_argmax
from repro.etc.matrix import ETCMatrix
from repro.exceptions import MappingError, UnmappedTaskError

__all__ = [
    "Assignment",
    "Mapping",
    "ready_time_vector",
    "finish_times_for_vector",
]


@dataclass(frozen=True)
class Assignment:
    """One task-to-machine assignment with its timing.

    ``order`` is the global position in the heuristic's assignment
    sequence (0-based); ``start`` is the machine ready time at assignment
    and ``completion = start + ETC(task, machine)``.
    """

    task: str
    machine: str
    start: float
    completion: float
    order: int


def ready_time_vector(
    etc: ETCMatrix,
    ready_times: MappingABC[str, float] | Sequence[float] | None,
) -> np.ndarray:
    """Normalise initial ready times to a float vector over ``etc.machines``.

    ``None`` means all zeros (the common simplifying assumption used in
    the paper's proofs and examples).
    """
    if ready_times is None:
        return np.zeros(etc.num_machines, dtype=np.float64)
    if isinstance(ready_times, MappingABC):
        unknown = set(ready_times) - set(etc.machines)
        if unknown:
            raise MappingError(f"ready times reference unknown machines {sorted(unknown)}")
        vec = np.array(
            [float(ready_times.get(m, 0.0)) for m in etc.machines], dtype=np.float64
        )
    else:
        vec = np.asarray(ready_times, dtype=np.float64)
        if vec.shape != (etc.num_machines,):
            raise MappingError(
                f"ready time vector has shape {vec.shape}, "
                f"expected ({etc.num_machines},)"
            )
        vec = vec.copy()
    if np.any(vec < 0) or not np.all(np.isfinite(vec)):
        raise MappingError("ready times must be finite and non-negative")
    return vec


class Mapping:
    """A (possibly partial) resource allocation under construction.

    Heuristics create a ``Mapping`` over a (restricted) ETC matrix and
    call :meth:`assign` once per task; the object maintains machine ready
    times incrementally so each ``CT`` query is O(1).

    The class intentionally supports *only* append-style construction —
    the heuristics in the paper never migrate an already-committed task
    (Sufferage's within-pass preemption is tentative state inside the
    heuristic, committed per pass).

    State is kept in index space: the machine column of every task row,
    the committed rows with their start times in commit order, and the
    live ready-time vector.  :class:`Assignment` records and labels are
    built at the API boundary on first read (:attr:`assignments`,
    :meth:`assignment_of`) and cached until the next commit.
    """

    __slots__ = (
        "_etc",
        "_initial_ready",
        "_ready",
        "_col",
        "_order",
        "_starts",
        "_count",
        "_records",
        "_by_task",
    )

    def __init__(
        self,
        etc: ETCMatrix,
        ready_times: MappingABC[str, float] | Sequence[float] | None = None,
    ) -> None:
        self._etc = etc
        self._initial_ready = ready_time_vector(etc, ready_times)
        self._ready = self._initial_ready.copy()
        num_tasks = etc.num_tasks
        # Machine column of each task row, -1 while unmapped.
        self._col = np.full(num_tasks, -1, dtype=np.int64)
        # Committed task rows and their start times, in commit order;
        # the first ``_count`` entries are live.
        self._order = np.empty(num_tasks, dtype=np.int64)
        self._starts = np.empty(num_tasks, dtype=np.float64)
        self._count = 0
        # Lazily built Assignment records and their by-task index.
        self._records: tuple[Assignment, ...] | None = None
        self._by_task: dict[str, Assignment] | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def etc(self) -> ETCMatrix:
        return self._etc

    @property
    def machines(self) -> tuple[str, ...]:
        return self._etc.machines

    @property
    def tasks(self) -> tuple[str, ...]:
        """All tasks of the underlying ETC matrix (mapped or not)."""
        return self._etc.tasks

    @property
    def assignments(self) -> tuple[Assignment, ...]:
        """Assignments in the order they were made."""
        records = self._records
        if records is None:
            etc = self._etc
            tasks, machines = etc.tasks, etc.machines
            n = self._count
            rows = self._order[:n]
            cols = self._col[rows]
            starts = self._starts[:n]
            completions = starts + etc.values[rows, cols]
            records = self._records = tuple(
                Assignment(tasks[r], machines[c], s, e, k)
                for k, (r, c, s, e) in enumerate(
                    zip(
                        rows.tolist(),
                        cols.tolist(),
                        starts.tolist(),
                        completions.tolist(),
                    )
                )
            )
        return records

    @property
    def num_assigned(self) -> int:
        return self._count

    def is_complete(self) -> bool:
        """True when every task of the ETC matrix has been assigned."""
        return self._count == self._etc.num_tasks

    def is_assigned(self, task: str) -> bool:
        etc = self._etc
        return etc.has_task(task) and bool(self._col[etc.task_index(task)] >= 0)

    def unmapped_tasks(self) -> tuple[str, ...]:
        """Tasks not yet assigned, in ETC row order."""
        tasks = self._etc.tasks
        return tuple(tasks[r] for r in np.flatnonzero(self._col < 0).tolist())

    def assignment_of(self, task: str) -> Assignment:
        by_task = self._by_task
        if by_task is None:
            by_task = self._by_task = {a.task: a for a in self.assignments}
        try:
            return by_task[task]
        except KeyError:
            raise UnmappedTaskError(f"task {task!r} is not mapped") from None

    def machine_of(self, task: str) -> str:
        etc = self._etc
        col = int(self._col[etc.task_index(task)]) if etc.has_task(task) else -1
        if col < 0:
            raise UnmappedTaskError(f"task {task!r} is not mapped")
        return etc.machines[col]

    def machine_tasks(self, machine: str) -> tuple[str, ...]:
        """Tasks on ``machine`` in execution (assignment) order."""
        col = self._etc.machine_index(machine)
        rows = self._order[: self._count]
        tasks = self._etc.tasks
        return tuple(tasks[r] for r in rows[self._col[rows] == col].tolist())

    # ------------------------------------------------------------------
    # Timing queries — Eq. (1)
    # ------------------------------------------------------------------
    def ready_time(self, machine: str) -> float:
        """Current ready time ``RT(m)`` given tasks assigned so far."""
        return float(self._ready[self._etc.machine_index(machine)])

    def ready_times(self) -> np.ndarray:
        """Copy of the current ready-time vector over ``self.machines``."""
        return self._ready.copy()

    def ready_times_view(self) -> np.ndarray:
        """The *live* internal ready-time vector (no copy).

        Fast path for heuristic kernels that read ready times every
        round: the array mutates as assignments are committed.  Callers
        must treat it as read-only and never hold it across mappings.
        """
        return self._ready

    def initial_ready_times(self) -> np.ndarray:
        """Copy of the initial ready-time vector."""
        return self._initial_ready.copy()

    def completion_time_if(self, task: str, machine: str) -> float:
        """``CT(t, m) = ETC(t, m) + RT(m)`` without committing (Eq. 1)."""
        return self._etc.etc(task, machine) + self.ready_time(machine)

    def completion_times_if(self, task: str) -> np.ndarray:
        """Vector of ``CT(task, m)`` over all machines (vectorised Eq. 1)."""
        return self._etc.task_row(task) + self._ready

    def completion_time(self, task: str) -> float:
        """Committed completion time of an assigned task."""
        return self.assignment_of(task).completion

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def assign(self, task: str, machine: str) -> Assignment:
        """Commit ``task`` to ``machine`` at the machine's ready time."""
        etc = self._etc
        ti = etc.task_index(task)
        if self._col[ti] >= 0:
            raise MappingError(f"task {task!r} is already assigned")
        mi = etc.machine_index(machine)
        start = float(self._ready[mi])
        completion = self._commit(ti, mi)
        return Assignment(task, machine, start, completion, self._count - 1)

    def assign_index(self, task_index: int, machine_index: int) -> float:
        """Index-space :meth:`assign` fast path for heuristic kernels.

        Skips the label→index dictionary lookups and builds no
        :class:`Assignment`; returns the completion time.  Indices refer
        to the ETC matrix's row/column order and must be in range
        (out-of-range indices raise ``IndexError``).  Timing arithmetic
        is identical to :meth:`assign`.
        """
        if self._col[task_index] >= 0:
            raise MappingError(
                f"task {self._etc.tasks[task_index]!r} is already assigned"
            )
        return self._commit(task_index, machine_index)

    def _commit(self, ti: int, mi: int) -> float:
        start = float(self._ready[mi])
        completion = start + float(self._etc.values[ti, mi])
        n = self._count
        self._order[n] = ti
        self._starts[n] = start
        self._col[ti] = mi
        self._ready[mi] = completion
        self._count = n + 1
        self._records = self._by_task = None
        return completion

    def _commit_run(
        self, rows: np.ndarray, cols: np.ndarray, starts: np.ndarray
    ) -> None:
        """Adopt a whole run's commits at once (compiled kernels).

        ``rows``, ``cols`` and ``starts`` are the task rows, machine
        columns and start times in commit order, covering every task of
        an empty mapping whose live ready vector (:meth:`ready_times_view`)
        the caller has already advanced to the run's final ready times.
        """
        self._order = rows
        self._starts = starts
        self._col[rows] = cols
        self._count = rows.shape[0]
        self._records = self._by_task = None

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def machine_finish_times(self) -> dict[str, float]:
        """Finishing time of every machine (its final ready time).

        A machine with no tasks finishes at its initial ready time.
        """
        return dict(zip(self._etc.machines, self._ready.tolist()))

    def finish_time_vector(self) -> np.ndarray:
        """Finishing times as a vector over ``self.machines``."""
        return self._ready.copy()

    def makespan(self) -> float:
        """Largest machine finishing time."""
        return float(self._ready.max())

    def makespan_machine(self, tie_breaker: TieBreaker | None = None) -> str:
        """The machine attaining the makespan.

        Finishing-time ties are resolved by ``tie_breaker`` (default:
        deterministic lowest index, so iterative runs are reproducible).
        """
        breaker = tie_breaker or DeterministicTieBreaker()
        idx = breaker.choose(tied_argmax(self._ready))
        return self._etc.machines[idx]

    def assignment_vector(self) -> np.ndarray:
        """Machine index per task row; ``-1`` for unmapped tasks."""
        return self._col.copy()

    def to_dict(self) -> dict[str, str]:
        """``{task: machine}`` for all assigned tasks, in commit order."""
        tasks, machines = self._etc.tasks, self._etc.machines
        rows = self._order[: self._count]
        return {
            tasks[r]: machines[c]
            for r, c in zip(rows.tolist(), self._col[rows].tolist())
        }

    def same_assignments(self, other: "Mapping") -> bool:
        """True when both mappings place every shared task identically.

        Compares only the task→machine relation (not assignment order),
        which is what the paper's invariance theorems quantify over.
        """
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (
            f"Mapping(assigned={self.num_assigned}/{self._etc.num_tasks}, "
            f"makespan={self.makespan():.6g})"
        )


def finish_times_for_vector(
    etc: ETCMatrix,
    assignment: np.ndarray | Sequence[int],
    initial_ready: np.ndarray | None = None,
) -> np.ndarray:
    """Machine finishing times for a dense machine-index vector.

    ``assignment[i]`` is the machine (column) index of task row ``i``.
    This is the vectorised fitness kernel Genitor evaluates thousands of
    times per run: finishing time of machine ``j`` is its initial ready
    time plus the sum of ETCs of tasks assigned to it (order within a
    machine does not change its finishing time).
    """
    vec = np.asarray(assignment, dtype=np.int64)
    if vec.shape != (etc.num_tasks,):
        raise MappingError(
            f"assignment vector has shape {vec.shape}, expected ({etc.num_tasks},)"
        )
    if np.any(vec < 0) or np.any(vec >= etc.num_machines):
        raise MappingError("assignment vector contains out-of-range machine indices")
    task_etc = etc.values[np.arange(etc.num_tasks), vec]
    totals = np.bincount(vec, weights=task_etc, minlength=etc.num_machines)
    if initial_ready is None:
        return totals
    base = np.asarray(initial_ready, dtype=np.float64)
    if base.shape != (etc.num_machines,):
        raise MappingError(
            f"ready vector has shape {base.shape}, expected ({etc.num_machines},)"
        )
    return base + totals
