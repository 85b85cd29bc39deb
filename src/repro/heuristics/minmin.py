"""Min-Min heuristic (Ibarra & Kim) — paper Figure 2.

Procedure (verbatim structure):

1. A task list is generated that includes all the tasks as unmapped
   tasks.
2. For each task in the task list, the machine that gives the task its
   minimum completion time (*first Min*) is determined (ignoring other
   unmapped tasks).
3. Among all task-machine pairs found in 2, the pair that has the
   minimum completion time (*second Min*) is determined.
4. The task selected in 3 is removed from the task list and is mapped
   to the paired machine.
5. The ready time of the machine on which the task is mapped is updated.
6. Steps 2–5 are repeated until all tasks have been mapped.

Tie handling: *task* ties across pairs (second Min) always go to the
oldest (earliest-listed) task — the paper's canonical deterministic
example ("the oldest task is chosen", Section 2) — while *machine* ties
within the selected task (first Min) are resolved by the supplied
tie-breaking policy.  The worked example in Tables 1–3 exercises exactly
such a machine tie; under the deterministic policy both kinds of tie are
deterministic, as the Theorem in Section 3.2 requires.

The default kernel maintains the completion-time table *incrementally*
(see :mod:`repro.heuristics.kernels`): after each assignment only the
changed ready-time column and the row minima it held are recomputed —
O(T + M) typical per round instead of a fresh O(T·M) table rebuild —
while remaining decision-for-decision identical (tie-candidate sets,
tie-breaker draw order, obs events) to the retained reference kernel,
selectable with ``MinMin(incremental=False)``.
"""

from __future__ import annotations

import numpy as np

from repro.core.schedule import Mapping
from repro.core.ties import DeterministicTieBreaker, TieBreaker, tied_argmin
from repro.heuristics import native
from repro.heuristics.base import Heuristic, register_heuristic
from repro.heuristics.kernels import (
    IncrementalCompletionTable,
    first_tied_min_index,
    oldest_extremal_row,
    tied_min_indices,
)
from repro.obs.tracer import get_tracer

__all__ = ["MinMin", "MaxMin", "Duplex"]


class _TwoPhaseGreedy(Heuristic):
    """Shared machinery for Min-Min and Max-Min.

    Subclasses choose how the second phase selects among the per-task
    best completion times (min for Min-Min, max for Max-Min).
    """

    #: +1 selects the smallest per-task best CT (Min-Min), -1 the largest.
    _second_phase_sign: float = +1.0

    def __init__(self, *, incremental: bool = True) -> None:
        #: Use the incremental completion-table kernel (default); the
        #: reference per-round rebuild is kept for equivalence tests.
        self.incremental = bool(incremental)

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
        """Incremental kernel: one column refresh per committed pair."""
        etc = mapping.etc
        tracer = get_tracer()
        tasks, machines = etc.tasks, etc.machines
        sign = +1 if self._second_phase_sign > 0 else -1
        # With the deterministic policy and no tracer listening, the
        # machine choice is just the first tolerance-tied index — no
        # candidate list, no policy dispatch (identical decision) — and
        # the whole run can go to the compiled kernel.
        fast_ties = (
            type(tie_breaker) is DeterministicTieBreaker and not tracer.enabled
        )
        library = native.kernels() if fast_ties else None
        if library is not None:
            mapping._commit_run(
                *native.two_phase(
                    library, etc.values, mapping.ready_times_view(), sign
                )
            )
            return
        table = IncrementalCompletionTable(
            etc.values,
            mapping.ready_times_view(),
            fill=np.inf if sign > 0 else -np.inf,
        )
        for _ in range(etc.num_tasks):
            task_idx = oldest_extremal_row(table, sign)
            row = table.table[task_idx]
            if fast_ties:
                machine_idx = first_tied_min_index(row)
            else:
                candidates = tied_min_indices(row)
                machine_idx = tie_breaker.choose(candidates)
            completion = mapping.assign_index(task_idx, machine_idx)
            if tracer.enabled:
                tracer.event(
                    f"{self.name}.decision",
                    task=tasks[task_idx],
                    machine=machines[machine_idx],
                    completion=float(row[machine_idx]),
                    tied=tuple(machines[int(j)] for j in candidates),
                )
                tracer.count("decisions")
                tracer.observe("decision.tie_candidates", len(candidates))
            table.deactivate(task_idx)
            table.refresh_column(machine_idx, completion)

    def _run_reference(self, mapping: Mapping, tie_breaker: TieBreaker) -> None:
        """Reference kernel: rebuild the full table every round."""
        etc = mapping.etc
        tracer = get_tracer()
        unmapped = list(range(etc.num_tasks))  # row indices, oldest first
        values = etc.values
        while unmapped:
            ready = mapping.ready_times()
            # Phase 1 (first Min): per-task minimum completion time.
            completion = values[unmapped] + ready[None, :]
            best_ct = completion.min(axis=1)
            # Phase 2 (second Min / Max): select the extremal pair; pair
            # ties go to the oldest task (deterministic, per Section 2).
            signed = self._second_phase_sign * best_ct
            task_pos = int(tied_argmin(signed).min())
            task_idx = unmapped[task_pos]
            # Resolve the machine tie *for the selected task only*, so a
            # random policy consumes draws in the order the paper's
            # examples assume (one machine decision per mapped task).
            candidates = tied_argmin(completion[task_pos])
            machine_idx = tie_breaker.choose(candidates)
            mapping.assign(etc.tasks[task_idx], etc.machines[machine_idx])
            if tracer.enabled:
                tracer.event(
                    f"{self.name}.decision",
                    task=etc.tasks[task_idx],
                    machine=etc.machines[machine_idx],
                    completion=float(completion[task_pos, machine_idx]),
                    tied=tuple(etc.machines[int(j)] for j in candidates),
                )
                tracer.count("decisions")
                tracer.observe("decision.tie_candidates", len(candidates))
            unmapped.pop(task_pos)


@register_heuristic
class MinMin(_TwoPhaseGreedy):
    """Min-Min: repeatedly commit the globally earliest-finishing pair."""

    name = "min-min"
    _second_phase_sign = +1.0


@register_heuristic
class MaxMin(_TwoPhaseGreedy):
    """Max-Min baseline: commit the pair whose best finish is *latest*.

    Not analysed in the paper but the canonical sibling of Min-Min
    (Ibarra & Kim; Braun et al.); used by the cross-heuristic study.
    """

    name = "max-min"
    _second_phase_sign = -1.0


@register_heuristic
class Duplex(Heuristic):
    """Duplex baseline: run Min-Min and Max-Min, keep the better makespan.

    From Braun et al.; ties in makespan go to Min-Min.  Random policies
    draw from the same stream sequentially (Min-Min first).
    """

    name = "duplex"

    def __init__(self, *, incremental: bool = True) -> None:
        self.incremental = bool(incremental)

    def _run(
        self,
        mapping: Mapping,
        tie_breaker: TieBreaker,
        seed_mapping: dict[str, str] | None,
    ) -> None:
        etc = mapping.etc
        ready = mapping.initial_ready_times()
        min_map = MinMin(incremental=self.incremental).map_tasks(
            etc, ready, tie_breaker
        )
        max_map = MaxMin(incremental=self.incremental).map_tasks(
            etc, ready, tie_breaker
        )
        winner = min_map if min_map.makespan() <= max_map.makespan() else max_map
        for assignment in winner.assignments:
            mapping.assign(assignment.task, assignment.machine)


def minmin_round_table(mapping_so_far: Mapping) -> np.ndarray:
    """Completion-time table for the *next* Min-Min round (diagnostics).

    Returns the ``(num_unmapped, num_machines)`` CT matrix the heuristic
    would inspect, in unmapped-task order — the quantity the paper's
    Table 2/3 rows display per resource allocation step.
    """
    etc = mapping_so_far.etc
    rows = [etc.task_index(t) for t in mapping_so_far.unmapped_tasks()]
    return etc.values[rows] + mapping_so_far.ready_times()[None, :]


__all__.append("minmin_round_table")
