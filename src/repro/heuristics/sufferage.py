"""Sufferage heuristic (Maheswaran et al.; Casanova et al.) — paper Figure 17.

Procedure (verbatim structure):

1. A task list ``L`` is generated that includes all unmapped tasks in a
   given arbitrary order.
2. While there are still unmapped tasks:

   i.   Mark all machines as unassigned.
   ii.  For each task ``t_k`` in ``L``:

        a. The machine ``m_j`` that gives the earliest completion time
           is found.
        b. The *sufferage value* is calculated (second earliest
           completion time minus earliest completion time).
        c. If machine ``m_j`` is unassigned then assign ``t_k`` to
           ``m_j``, delete ``t_k`` from ``L`` and mark ``m_j`` as
           assigned.  Otherwise, if the sufferage value of the task
           ``t_i`` already assigned to ``m_j`` is less than the
           sufferage value of ``t_k``, then unassign ``t_i``, add
           ``t_i`` back to ``L``, assign ``t_k`` to ``m_j`` and remove
           ``t_k`` from ``L``.

   iii. The ready times for all machines are updated.

Conventions (documented, needed for the paper's examples):

* a pass iterates over a snapshot of ``L`` in original task-list order;
  tasks displaced mid-pass re-enter ``L`` (keeping original order) and
  are reconsidered in the *next* pass;
* with a single remaining machine the sufferage value is 0 (there is no
  second-earliest completion time);
* the incumbent keeps the machine on sufferage ties (the paper's
  condition is strictly "less than");
* earliest-completion machine ties go through the tie-breaking policy.

The default kernel works in index space.  Ready times are fixed within
a pass, so every task's machine and sufferage value come from one
``(pending x machines)`` table, and step ii.c — a scan over the pass,
one task at a time — reduces to one contest per machine that
:func:`contest` resolves for the whole pass in a few numpy calls (see
``docs/algorithms.md`` for why that is decision-identical).  The
sequential scan survives as :func:`_scan_contest`, used at the
tolerance boundary and to replay a pass's decision records.

The per-pass decision trace is kept on :attr:`Sufferage.last_trace` so
the bench harness can regenerate the per-pass rows of paper Tables 16
and 17.  Its :class:`SufferageDecision` records are built on first read
of :attr:`SufferagePass.decisions` (or at once when a tracer listens).
A compiled run (:mod:`repro.heuristics.native`) returns only its commits
and pass boundaries; its pass records are rebuilt on first read of
:attr:`Sufferage.last_trace`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.schedule import Mapping
from repro.core.ties import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    DeterministicTieBreaker,
    TieBreaker,
    tied_argmin,
)
from repro.heuristics import native
from repro.heuristics.base import Heuristic, LazyTrace, register_heuristic
from repro.obs.tracer import get_tracer

__all__ = ["Sufferage", "SufferageDecision", "SufferagePass", "contest"]


@dataclass(frozen=True)
class SufferageDecision:
    """One task's examination within a pass.

    ``outcome`` is one of ``"claimed"`` (machine was free),
    ``"displaced"`` (evicted the incumbent), ``"rejected"`` (incumbent
    kept the machine).
    """

    task: str
    machine: str
    earliest_ct: float
    sufferage: float
    outcome: str
    displaced_task: str | None = None


class SufferagePass:
    """All decisions of one while-loop pass plus the commits it made.

    Compares, hashes and prints like the frozen record
    ``(index, decisions, committed)``.  A pass built by
    :meth:`from_contest` keeps the pass's index arrays instead of
    decision records and builds :attr:`decisions` on first access by
    replaying :func:`_scan_contest`.
    """

    __slots__ = ("index", "committed", "_decisions", "_arrays")

    def __init__(
        self,
        index: int,
        decisions: tuple[SufferageDecision, ...] | None,
        committed: tuple[tuple[str, str], ...],  # (task, machine) pairs
    ) -> None:
        self.index = index
        self.committed = committed
        self._decisions = decisions
        self._arrays = None

    @classmethod
    def from_contest(
        cls,
        index: int,
        committed: tuple[tuple[str, str], ...],
        labels: tuple[tuple[str, ...], tuple[str, ...]],
        rows: np.ndarray,
        chosen: np.ndarray,
        earliest: np.ndarray,
        sufferage: np.ndarray,
    ) -> SufferagePass:
        """A pass whose decision records are built on demand.

        ``labels`` are the ETC's (task, machine) labels; ``rows`` are
        the pass's pending task rows in list order and ``chosen``,
        ``earliest``, ``sufferage`` its per-task machine column,
        earliest completion time and sufferage value.
        """
        record = cls(index, None, committed)
        record._arrays = (labels, rows, chosen, earliest, sufferage)
        return record

    @property
    def decisions(self) -> tuple[SufferageDecision, ...]:
        if self._decisions is None:
            (tasks, machines), rows, chosen, earliest, sufferage = self._arrays
            _, outcomes, rivals = _scan_contest(chosen, sufferage)
            names = [tasks[r] for r in rows.tolist()]
            self._decisions = tuple(
                SufferageDecision(
                    names[k],
                    machines[m],
                    e,
                    s,
                    outcomes[k],
                    None if rivals[k] is None else names[rivals[k]],
                )
                for k, (m, e, s) in enumerate(
                    zip(chosen.tolist(), earliest.tolist(), sufferage.tolist())
                )
            )
            self._arrays = None
        return self._decisions

    def _key(self) -> tuple:
        return (self.index, self.decisions, self.committed)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"SufferagePass(index={self.index!r}, "
            f"decisions={self.decisions!r}, committed={self.committed!r})"
        )


@register_heuristic
class Sufferage(Heuristic):
    """Sufferage: greedy with limited local search via sufferage contests."""

    name = "sufferage"

    def __init__(self, *, incremental: bool = True) -> None:
        #: Use the index-space per-pass contest kernel (default); the
        #: per-task reference path is kept for equivalence tests.
        self.incremental = bool(incremental)
        self.last_trace: tuple[SufferagePass, ...] | LazyTrace = ()

    def _run(
        self,
        mapping: Mapping,
        tie_breaker: TieBreaker,
        seed_mapping: dict[str, str] | None,
    ) -> None:
        if self.incremental:
            self._run_incremental(mapping, tie_breaker)
        else:
            self._run_reference(mapping, tie_breaker)

    def _run_incremental(self, mapping: Mapping, tie_breaker: TieBreaker) -> None:
        """Index-space kernel: one table, one contest, few commits a pass.

        The pending list ``L`` is an ascending array of task rows.  Each
        pass computes every pending task's (machine, earliest CT,
        sufferage) at once — :func:`_fast_decisions` under the
        deterministic policy, otherwise one ``tie_breaker.choose`` per
        task in list order — resolves step ii.c with :func:`contest`,
        commits the holders in task order and drops them from ``L``.
        Displaced and rejected tasks simply stay pending, which is
        exactly where the sequential scan leaves them.
        """
        etc = mapping.etc
        tracer = get_tracer()
        labels = (etc.tasks, etc.machines)
        values = etc.values
        ready = mapping.ready_times_view()
        # The deterministic policy admits a fully vectorised table;
        # other policies draw one tie decision per task so genuine ties
        # still flow through the TieBreaker in list order.
        fast_path = type(tie_breaker) is DeterministicTieBreaker
        library = native.kernels() if fast_path and not tracer.enabled else None
        if library is not None:
            initial = ready.copy()
            rows, cols, starts, bounds = native.sufferage(library, values, ready)
            mapping._commit_run(rows, cols, starts)
            self.last_trace = LazyTrace(
                lambda: _replay_passes(etc, initial, rows, cols, starts, bounds)
            )
            return
        pending = np.arange(etc.num_tasks)
        passes: list[SufferagePass] = []
        while pending.size:
            if fast_path:
                chosen, earliest, sufferage = _fast_decisions(values, pending, ready)
            else:
                chosen, earliest, sufferage = _policy_decisions(
                    values, pending, ready, tie_breaker
                )
            holders = contest(chosen, sufferage)
            rows = pending[holders].tolist()
            cols = chosen[holders].tolist()
            # Step iii: commit this pass's holders, then ready times update.
            for row, col in zip(rows, cols):
                mapping.assign_index(row, col)
            commits = tuple(
                (etc.tasks[row], etc.machines[col]) for row, col in zip(rows, cols)
            )
            record = SufferagePass.from_contest(
                len(passes), commits, labels, pending, chosen, earliest, sufferage
            )
            if tracer.enabled:
                _emit_pass(tracer, record)
            passes.append(record)
            keep = np.ones(pending.size, dtype=bool)
            keep[holders] = False
            pending = pending[keep]
        self.last_trace = tuple(passes)

    def _run_reference(self, mapping: Mapping, tie_breaker: TieBreaker) -> None:
        etc = mapping.etc
        tracer = get_tracer()
        order = {t: i for i, t in enumerate(etc.tasks)}
        pending: list[str] = list(etc.tasks)
        passes: list[SufferagePass] = []
        pass_index = 0
        fast_path = type(tie_breaker) is DeterministicTieBreaker
        while pending:
            snapshot = list(pending)
            per_task = (
                _vectorised_decisions(mapping, snapshot) if fast_path else None
            )
            # machine label -> (task, sufferage) tentative holder
            holders: dict[str, tuple[str, float]] = {}
            decisions: list[SufferageDecision] = []
            for position, task in enumerate(snapshot):
                if per_task is not None:
                    machine_idx, earliest, sufferage = per_task[position]
                else:
                    completion = mapping.completion_times_if(task)
                    machine_idx = tie_breaker.choose(tied_argmin(completion))
                    earliest = float(completion[machine_idx])
                    sufferage = _sufferage_value(completion, machine_idx)
                machine = etc.machines[machine_idx]
                incumbent = holders.get(machine)
                if incumbent is None:
                    holders[machine] = (task, sufferage)
                    pending.remove(task)
                    decisions.append(
                        SufferageDecision(task, machine, earliest, sufferage, "claimed")
                    )
                elif incumbent[1] < sufferage - DEFAULT_ABS_TOL:
                    displaced, _ = incumbent
                    holders[machine] = (task, sufferage)
                    pending.remove(task)
                    pending.append(displaced)
                    pending.sort(key=order.__getitem__)
                    decisions.append(
                        SufferageDecision(
                            task,
                            machine,
                            earliest,
                            sufferage,
                            "displaced",
                            displaced_task=displaced,
                        )
                    )
                else:
                    decisions.append(
                        SufferageDecision(
                            task,
                            machine,
                            earliest,
                            sufferage,
                            "rejected",
                            displaced_task=incumbent[0],
                        )
                    )
            # Step iii: commit this pass's holders, then ready times update.
            commits = sorted(
                ((task, machine) for machine, (task, _) in holders.items()),
                key=lambda pair: order[pair[0]],
            )
            for task, machine in commits:
                mapping.assign(task, machine)
            if tracer.enabled:
                for d in decisions:
                    tracer.event(
                        "sufferage.decision",
                        pass_index=pass_index,
                        task=d.task,
                        machine=d.machine,
                        earliest_ct=d.earliest_ct,
                        sufferage=d.sufferage,
                        outcome=d.outcome,
                        displaced_task=d.displaced_task,
                    )
                    tracer.count("decisions")
                tracer.event(
                    "sufferage.pass",
                    index=pass_index,
                    committed=tuple(commits),
                )
            passes.append(
                SufferagePass(pass_index, tuple(decisions), tuple(commits))
            )
            pass_index += 1
        self.last_trace = tuple(passes)


def _replay_passes(
    etc,
    ready: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    starts: np.ndarray,
    bounds: np.ndarray,
) -> list[SufferagePass]:
    """The pass records of a compiled run, rebuilt from its commits.

    ``rows``/``cols``/``starts`` are the run's commits in order and
    ``bounds[p]`` the commit count after pass ``p``; ``ready`` holds the
    initial ready times.  Each pass's pending rows and ready times are
    replayed from the commits before it, and its per-task decisions come
    from :func:`_fast_decisions`, as in the Python kernel.
    """
    tasks, machines = etc.tasks, etc.machines
    values = etc.values
    ready = ready.copy()
    pending = np.arange(etc.num_tasks)
    passes = []
    begin = 0
    for index, end in enumerate(bounds.tolist()):
        chosen, earliest, sufferage = _fast_decisions(values, pending, ready)
        held, taken = rows[begin:end], cols[begin:end]
        commits = tuple(
            (tasks[r], machines[c]) for r, c in zip(held.tolist(), taken.tolist())
        )
        passes.append(
            SufferagePass.from_contest(
                index, commits, (tasks, machines), pending, chosen, earliest, sufferage
            )
        )
        ready[taken] = starts[begin:end] + values[held, taken]
        pending = np.setdiff1d(pending, held, assume_unique=True)
        begin = end
    return passes


def _emit_pass(tracer, record: SufferagePass) -> None:
    """The ``sufferage.decision`` and ``sufferage.pass`` events of a pass."""
    for d in record.decisions:
        tracer.event(
            "sufferage.decision",
            pass_index=record.index,
            task=d.task,
            machine=d.machine,
            earliest_ct=d.earliest_ct,
            sufferage=d.sufferage,
            outcome=d.outcome,
            displaced_task=d.displaced_task,
        )
        tracer.count("decisions")
    tracer.event("sufferage.pass", index=record.index, committed=record.committed)


def contest(chosen: np.ndarray, sufferage: np.ndarray) -> np.ndarray:
    """Ascending positions of the tasks holding a machine after a pass.

    ``chosen[k]`` and ``sufferage[k]`` are the earliest-completion
    machine and sufferage value of the pass's ``k``-th task in list
    order.  The result equals ``_scan_contest(chosen, sufferage)[0]``:

    * the stable sort puts each machine's *first exact maximum* ``x``
      at the head of its segment;
    * no later claimant ``q`` can displace ``x``: that needs
      ``s[x] < s[q] - tol`` with ``s[q] <= s[x]``;
    * ``x`` displaces whoever holds the machine when it arrives if every
      earlier claimant ``p`` has ``s[p] < s[x] - tol`` — the same float
      expression the sequential rule evaluates.

    Should any machine fail that last check (claimants within the
    absolute tolerance of its maximum), the pass falls back to the
    sequential scan, so the result stays exact at the boundary.
    """
    order = np.lexsort((-sufferage, chosen))
    machines = chosen[order]
    head = np.empty(order.size, dtype=bool)
    head[0] = True
    np.not_equal(machines[1:], machines[:-1], out=head[1:])
    heads = order[head]
    leader = np.empty(machines[-1] + 1, dtype=np.intp)
    leader[machines[head]] = heads
    lead = leader[machines]  # each sorted entry's segment head
    settled = sufferage[order] < sufferage[lead] - DEFAULT_ABS_TOL
    settled |= order >= lead
    if np.count_nonzero(settled) != settled.size:
        return _scan_contest(chosen, sufferage)[0]
    heads.sort()
    return heads


def _scan_contest(
    chosen: np.ndarray, sufferage: np.ndarray
) -> tuple[np.ndarray, list[str], list[int | None]]:
    """Step ii.c as written: scan the pass in list order.

    Returns the ascending holder positions plus, per task, its outcome
    (``"claimed"``, ``"displaced"``, ``"rejected"``) and the position of
    the incumbent it displaced or lost to (``None`` on a claim).
    """
    holder: dict[int, int] = {}
    values = sufferage.tolist()
    outcomes: list[str] = []
    rivals: list[int | None] = []
    for position, machine in enumerate(chosen.tolist()):
        incumbent = holder.get(machine)
        if incumbent is None:
            holder[machine] = position
            outcomes.append("claimed")
        elif values[incumbent] < values[position] - DEFAULT_ABS_TOL:
            holder[machine] = position
            outcomes.append("displaced")
        else:
            outcomes.append("rejected")
        rivals.append(incumbent)
    holders = np.fromiter(holder.values(), dtype=np.intp, count=len(holder))
    holders.sort()
    return holders, outcomes, rivals


def _sufferage_value(completion: np.ndarray, best_idx: int) -> float:
    """Second-earliest CT minus earliest CT; 0 with a single machine."""
    if completion.size < 2:
        return 0.0
    rest = np.delete(completion, best_idx)
    return float(rest.min() - completion[best_idx])


def _policy_decisions(
    values: np.ndarray, rows: np.ndarray, ready: np.ndarray, tie_breaker: TieBreaker
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-task (machine, earliest CT, sufferage) arrays, one
    ``tie_breaker.choose`` per task in list order."""
    chosen, earliest, sufferage = [], [], []
    for row in rows.tolist():
        completion = values[row] + ready
        machine_idx = tie_breaker.choose(tied_argmin(completion))
        chosen.append(machine_idx)
        earliest.append(float(completion[machine_idx]))
        sufferage.append(_sufferage_value(completion, machine_idx))
    return (
        np.array(chosen, dtype=np.intp),
        np.array(earliest, dtype=np.float64),
        np.array(sufferage, dtype=np.float64),
    )


def _fast_decisions(
    values: np.ndarray, rows: np.ndarray, ready: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_vectorised_decisions` with positivity-exact tolerance math.

    Returns the per-task ``(chosen, earliest, sufferage)`` arrays of the
    pending ``rows``.  Completion times are strictly positive (positive
    ETC, non-negative ready times) and every entry is ``>=`` its row
    minimum, so the reference tolerance scale
    ``max(|completion|, |best|)`` is exactly ``completion`` and
    ``|completion - best|`` is exactly ``completion - best`` — the same
    booleans from half the elementwise passes.  The gathered
    ``completion`` buffer is owned, so the second-minimum masking
    happens in place instead of on a copy.
    """
    completion = values[rows] + ready[None, :]
    best = completion.min(axis=1)
    tied = (completion - best[:, None]) <= np.maximum(
        DEFAULT_ABS_TOL, DEFAULT_REL_TOL * completion
    )
    chosen = tied.argmax(axis=1)  # first tolerance-tied minimum per row
    idx = np.arange(len(rows))
    earliest = completion[idx, chosen]
    if completion.shape[1] >= 2:
        completion[idx, chosen] = np.inf
        sufferage = completion.min(axis=1) - earliest
    else:
        sufferage = np.zeros(len(rows))
    return chosen, earliest, sufferage


def _vectorised_decisions(
    mapping: Mapping, snapshot: list[str]
) -> list[tuple[int, float, float]]:
    """Per-task (machine index, earliest CT, sufferage) for a whole pass.

    Ready times are fixed within a Sufferage pass, so every task's best
    machine and sufferage value are independent of the scan order — the
    full ``(pending x machines)`` table vectorises.  The machine choice
    reproduces the deterministic policy exactly: lowest index among the
    *tolerance-tied* minima (not plain ``argmin``, which would diverge
    from the per-task path on float-noise ties).
    """
    etc = mapping.etc
    rows = [etc.task_index(t) for t in snapshot]
    completion = etc.values[rows] + mapping.ready_times()[None, :]
    best = completion.min(axis=1)
    tol = np.maximum(
        DEFAULT_ABS_TOL,
        DEFAULT_REL_TOL * np.maximum(np.abs(completion), np.abs(best)[:, None]),
    )
    tied = np.abs(completion - best[:, None]) <= tol
    chosen = tied.argmax(axis=1)  # first tolerance-tied minimum per row
    earliest = completion[np.arange(len(rows)), chosen]
    if completion.shape[1] >= 2:
        # sufferage uses exact values: second smallest excluding the
        # chosen column (paper: "second earliest completion time")
        masked = completion.copy()
        masked[np.arange(len(rows)), chosen] = np.inf
        sufferage = masked.min(axis=1) - earliest
    else:
        sufferage = np.zeros(len(rows))
    return [
        (int(chosen[k]), float(earliest[k]), float(sufferage[k]))
        for k in range(len(rows))
    ]
