"""Unit tests for the Sufferage heuristic."""

import pickle

import numpy as np

import repro.heuristics.sufferage as sufferage_module
from repro.core.ties import RandomTieBreaker, TieBreaker
from repro.etc.generation import generate_range_based
from repro.etc.matrix import ETCMatrix
from repro.heuristics.sufferage import Sufferage, _sufferage_value
from repro.obs.tracer import CollectingTracer, use_tracer


class TestSufferageValue:
    def test_two_machines(self):
        assert _sufferage_value(np.array([3.0, 5.0]), 0) == 2.0

    def test_best_not_first(self):
        assert _sufferage_value(np.array([5.0, 3.0, 4.0]), 1) == 1.0

    def test_single_machine_is_zero(self):
        assert _sufferage_value(np.array([7.0]), 0) == 0.0

    def test_tied_best_gives_zero(self):
        assert _sufferage_value(np.array([2.0, 2.0, 9.0]), 0) == 0.0


class TestContests:
    def test_high_sufferage_wins_contest(self):
        # both tasks prefer m0; t1 suffers more and wins the pass-1
        # contest; t0 re-enters pass 2 where m1 now finishes it earlier
        etc = ETCMatrix([[2.0, 2.5], [1.0, 9.0]])
        s = Sufferage()
        mapping = s.map_tasks(etc)
        assert mapping.machine_of("t1") == "m0"
        assert mapping.machine_of("t0") == "m1"

    def test_rejected_task_may_return_to_same_machine(self):
        """A task that loses the pass-1 contest is re-evaluated with
        updated ready times — it can still land on the contested machine
        when that remains its earliest completion."""
        etc = ETCMatrix([[1.0, 9.0], [1.0, 5.0]])
        mapping = Sufferage().map_tasks(etc)
        assert mapping.machine_of("t0") == "m0"  # claims (sufferage 8 > 4)
        assert mapping.machine_of("t1") == "m0"  # pass 2: CT 2 < 5

    def test_incumbent_keeps_on_tie(self):
        # identical rows -> equal sufferage; the earlier-listed task
        # keeps the machine in pass 1 (strict "less than" contest)
        etc = ETCMatrix([[1.0, 5.0], [1.0, 5.0]])
        s = Sufferage()
        s.map_tasks(etc)
        outcomes = {d.task: d.outcome for d in s.last_trace[0].decisions}
        assert outcomes["t0"] == "claimed"
        assert outcomes["t1"] == "rejected"

    def test_displaced_task_returns_next_pass(self):
        etc = ETCMatrix([[1.0, 2.0], [1.0, 9.0]])
        s = Sufferage()
        s.map_tasks(etc)
        decisions0 = s.last_trace[0].decisions
        outcomes = {d.task: d.outcome for d in decisions0}
        assert outcomes["t0"] == "claimed"
        assert outcomes["t1"] == "displaced"
        # t0 must be re-examined in pass 2
        assert s.last_trace[1].decisions[0].task == "t0"

    def test_one_commit_per_machine_per_pass(self):
        etc = generate_range_based(12, 3, rng=0)
        s = Sufferage()
        s.map_tasks(etc)
        for p in s.last_trace:
            machines = [m for _, m in p.committed]
            assert len(machines) == len(set(machines))

    def test_all_tasks_mapped_exactly_once(self):
        etc = generate_range_based(30, 5, rng=1)
        mapping = Sufferage().map_tasks(etc)
        assert mapping.is_complete()

    def test_progress_guaranteed(self):
        """Every pass commits at least one task (no livelock)."""
        etc = generate_range_based(25, 4, rng=2)
        s = Sufferage()
        s.map_tasks(etc)
        assert all(len(p.committed) >= 1 for p in s.last_trace)

    def test_single_machine_degenerates_to_list_order(self):
        etc = ETCMatrix([[2.0], [3.0], [1.0]])
        mapping = Sufferage().map_tasks(etc)
        assert [a.task for a in mapping.assignments] == ["t0", "t1", "t2"]
        assert mapping.makespan() == 6.0


class TestTrace:
    def test_trace_replaced_per_run(self, square_etc):
        s = Sufferage()
        s.map_tasks(square_etc)
        first = s.last_trace
        s.map_tasks(square_etc)
        assert s.last_trace is not first  # fresh tuple per run

    def test_trace_commits_match_mapping(self, square_etc):
        s = Sufferage()
        mapping = s.map_tasks(square_etc)
        committed = {t: m for p in s.last_trace for t, m in p.committed}
        assert committed == mapping.to_dict()

    def test_paper_example_passes(self, sufferage_etc):
        s = Sufferage()
        mapping = s.map_tasks(sufferage_etc)
        assert mapping.machine_finish_times() == {
            "m1": 10.0,
            "m2": 9.5,
            "m3": 9.5,
        }
        assert len(s.last_trace) >= 2  # multi-pass, as in Table 16

    def test_ready_times_shift_decisions(self):
        etc = ETCMatrix([[1.0, 2.0]])
        loaded = Sufferage().map_tasks(etc, {"m0": 5.0})
        assert loaded.machine_of("t0") == "m1"


class TestDecisionRecords:
    """Pass records keep index arrays and build decisions on demand."""

    def test_untraced_run_builds_no_decision_records(self, monkeypatch):
        built = []
        real = sufferage_module.SufferageDecision

        def spy(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(sufferage_module, "SufferageDecision", spy)
        s = Sufferage()
        s.map_tasks(generate_range_based(30, 4, rng=3))
        assert built == []
        decisions = s.last_trace[0].decisions
        assert len(built) == len(decisions) == 30
        assert s.last_trace[0].decisions is decisions  # built once

    def test_traced_run_builds_records_up_front(self, monkeypatch):
        built = []
        real = sufferage_module.SufferageDecision

        def spy(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(sufferage_module, "SufferageDecision", spy)
        s = Sufferage()
        with use_tracer(CollectingTracer()):
            s.map_tasks(generate_range_based(12, 3, rng=4))
        assert len(built) == sum(len(p.decisions) for p in s.last_trace)

    def test_record_equals_reference_record(self):
        etc = generate_range_based(24, 4, rng=5)
        for tie_breaker in (None, RandomTieBreaker(7)):
            fast, slow = Sufferage(), Sufferage(incremental=False)
            fast.map_tasks(etc, tie_breaker=tie_breaker)
            if tie_breaker is not None:
                tie_breaker = RandomTieBreaker(7)
            slow.map_tasks(etc, tie_breaker=tie_breaker)
            assert fast.last_trace == slow.last_trace
            assert hash(fast.last_trace) == hash(slow.last_trace)
            assert repr(fast.last_trace) == repr(slow.last_trace)

    def test_pickle_round_trip(self):
        s = Sufferage()
        s.map_tasks(generate_range_based(16, 3, rng=6))
        restored = pickle.loads(pickle.dumps(s.last_trace))
        assert restored == s.last_trace


class TestVectorisedFastPath:
    """The deterministic fast path must be semantically identical to the
    per-task reference path (same policy routed through TieBreaker)."""

    class _RefDeterministic(TieBreaker):
        deterministic = True

        def choose(self, candidates):
            return int(np.asarray(candidates).min())

    def test_equivalent_on_random_ensemble(self):
        for seed in range(10):
            etc = generate_range_based(20, 5, rng=seed)
            fast = Sufferage().map_tasks(etc)
            slow = Sufferage().map_tasks(etc, tie_breaker=self._RefDeterministic())
            assert fast.to_dict() == slow.to_dict(), seed

    def test_equivalent_on_tie_heavy_integer_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            etc = ETCMatrix(rng.integers(1, 4, size=(10, 3)).astype(float))
            fast = Sufferage().map_tasks(etc)
            slow = Sufferage().map_tasks(etc, tie_breaker=self._RefDeterministic())
            assert fast.to_dict() == slow.to_dict()

    def test_equivalent_traces(self, sufferage_etc):
        fast = Sufferage()
        fast.map_tasks(sufferage_etc)
        slow = Sufferage()
        slow.map_tasks(sufferage_etc, tie_breaker=self._RefDeterministic())
        assert [p.committed for p in fast.last_trace] == [
            p.committed for p in slow.last_trace
        ]

    def test_float_noise_tie_goes_to_lower_index(self):
        """The fast path must use tolerance ties (lowest index), not a
        plain argmin: index 1 holds the exact minimum here but index 0
        is within tolerance and must win."""
        base = 2.0
        etc = ETCMatrix([[base * (1 + 1e-13), base, 9.0]])
        mapping = Sufferage().map_tasks(etc)
        assert mapping.machine_of("t0") == "m0"
