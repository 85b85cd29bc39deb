"""The per-pass Sufferage contest at the tie-tolerance boundary.

:func:`repro.heuristics.sufferage.contest` resolves step ii.c of paper
Figure 17 for a whole pass at once; :func:`_scan_contest` is the
sequential rule it must reproduce.  The contest is exact only because
it falls back to the scan when some claimant sits within
``DEFAULT_ABS_TOL`` of its machine's maximum, so the crafted cases here
straddle that tolerance: gaps of 0, 0.5x, 1x and 2x the tolerance, one
ulp either side of it, and magnitudes where the absolute tolerance is
below one ulp.
"""

import numpy as np
import pytest

import repro.heuristics.sufferage as sufferage_module
from repro.core.ties import DEFAULT_ABS_TOL
from repro.heuristics.sufferage import _scan_contest, contest

TOL = DEFAULT_ABS_TOL
GAPS = {
    "exact-tie": 0.0,
    "half-tol": 0.5 * TOL,
    "tol": TOL,
    "double-tol": 2.0 * TOL,
    "ulp-below-tol": np.nextafter(TOL, 0.0),
    "ulp-above-tol": np.nextafter(TOL, 1.0),
}
BASES = (0.0, 1e-3, 1.0, 1e3, 1e4, 1e5, 1e6)


def _check(chosen, sufferage):
    chosen = np.asarray(chosen, dtype=np.intp)
    sufferage = np.asarray(sufferage, dtype=np.float64)
    got = contest(chosen, sufferage)
    expected = _scan_contest(chosen, sufferage)[0]
    assert got.tolist() == expected.tolist()
    return got


@pytest.fixture
def scan_calls(monkeypatch):
    """Count how often :func:`contest` falls back to the scan."""
    calls = []
    real = sufferage_module._scan_contest

    def spy(chosen, sufferage):
        calls.append(len(chosen))
        return real(chosen, sufferage)

    monkeypatch.setattr(sufferage_module, "_scan_contest", spy)
    return calls


class TestToleranceBoundary:
    @pytest.mark.parametrize("gap", sorted(GAPS))
    @pytest.mark.parametrize("base", BASES)
    def test_lower_claimant_first(self, base, gap):
        # The earlier claimant is below the maximum by ``gap``: it keeps
        # the machine exactly when the gap is within the tolerance.
        _check([0, 0], [base, base + GAPS[gap]])

    @pytest.mark.parametrize("gap", sorted(GAPS))
    @pytest.mark.parametrize("base", BASES)
    def test_higher_claimant_first(self, base, gap):
        _check([0, 0], [base + GAPS[gap], base])

    @pytest.mark.parametrize("gap", sorted(GAPS))
    @pytest.mark.parametrize("base", BASES)
    def test_chain_of_near_ties(self, base, gap):
        # Each claimant beats its predecessor by ``gap``; the sequential
        # rule can keep an early claimant that the maximum only beats
        # by the accumulated gap.
        step = GAPS[gap]
        _check([0] * 5, [base + k * step for k in range(5)])

    @pytest.mark.parametrize("gap", sorted(GAPS))
    @pytest.mark.parametrize("base", (1e3, 1e4, 1e5, 1e6))
    def test_ulp_gaps_at_large_magnitude(self, base, gap):
        # Above ~4e3 one ulp exceeds the 1e-12 absolute tolerance, so
        # ``s - tol`` rounds back to ``s`` and any strictly smaller
        # earlier claimant loses.
        up = np.nextafter(base, np.inf)
        _check([0, 1, 0, 1], [base, base, up, up + GAPS[gap]])

    def test_one_machine(self):
        _check([0], [0.0])
        _check([0, 0, 0], [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("gap", sorted(GAPS))
    def test_all_tasks_on_one_machine(self, gap):
        step = GAPS[gap]
        values = [1.0, 1.0 + step, 1.0 - step, 1.0 + 2 * step, 1.0 + step]
        _check([3] * len(values), values)

    def test_several_machines_interleaved(self):
        _check(
            [2, 0, 2, 1, 0, 2, 1],
            [1.0, 5.0, 1.0 + 0.5 * TOL, 3.0, 5.0 + 3 * TOL, 1.0 + 2 * TOL, 3.0],
        )


class TestFallback:
    def test_near_tie_needs_the_scan(self, scan_calls):
        # The first exact maximum (position 1) beats position 0 only by
        # half the tolerance, so the incumbent keeps the machine; the
        # vectorised head alone would wrongly pick position 1.
        got = _check([0, 0], [1.0, 1.0 + 0.5 * TOL])
        assert got.tolist() == [0]
        assert scan_calls[0] == 2  # the contest itself fell back

    def test_clear_winner_stays_vectorised(self, scan_calls):
        assert contest(np.array([0, 0, 1]), np.array([1.0, 2.0, 0.5])).tolist() == [
            1,
            2,
        ]
        assert scan_calls == []

    def test_exact_ties_stay_vectorised(self, scan_calls):
        # Equal sufferage: the earliest claimant is the first exact
        # maximum and keeps the machine, no fallback needed.
        assert contest(np.array([0, 0, 0]), np.array([2.0, 2.0, 2.0])).tolist() == [0]
        assert scan_calls == []


def test_random_near_tie_battery():
    """Crafted near-tie passes: few machines, sufferage values on a grid
    of tolerance-sized steps around a few magnitudes."""
    rng = np.random.default_rng(20070326)
    for _ in range(3000):
        size = int(rng.integers(1, 25))
        machines = int(rng.integers(1, 5))
        base = float(rng.choice(BASES))
        steps = rng.integers(-3, 4, size) * float(rng.choice(list(GAPS.values())))
        _check(rng.integers(0, machines, size), base + steps)


def test_result_is_ascending_positions():
    got = contest(np.array([1, 0, 1, 0]), np.array([1.0, 1.0, 2.0, 0.5]))
    assert got.dtype == np.intp
    assert got.tolist() == [1, 2]
