"""A permanent total outage fails fast with one clear error.

When every machine has failed and the plan holds no further recovery,
no remaining task can ever run.  Both fault-aware drivers, under both
recovery policies, must raise at that instant with the stranded-task
count instead of polling until ``max_events`` or reporting a silent
accounting gap.
"""

import pytest

from repro.etc.generation import generate_range_based
from repro.exceptions import SimulationError
from repro.heuristics import get_heuristic
from repro.sim.arrivals import PoissonArrivals
from repro.sim.faults import FaultEvent, FaultPlan
from repro.sim.hcsystem import FaultTolerantHCSystem
from repro.sim.rolling import EnsembleTaskSource, RollingSimulation


def dead_plan(machines, fail_at=1.0):
    """Every machine fails at ``fail_at`` and none ever recovers."""
    events = tuple(FaultEvent(fail_at, "fail", m) for m in machines)
    return FaultPlan(machines=tuple(machines), horizon=10.0, events=events)


def run_faulty(policy):
    etc = generate_range_based(20, 4, rng=0)
    mapping = get_heuristic("min-min").map_tasks(etc)
    system = FaultTolerantHCSystem(
        etc, dead_plan(etc.machines), policy=policy, backoff_base=0.5
    )
    system.execute(mapping)


def run_rolling(policy):
    source = EnsembleTaskSource(200, 4, tasks_per_instance=32, rng=42)
    RollingSimulation(
        source, get_heuristic("min-min"),
        horizon=20_000.0, arrival=PoissonArrivals(rate=0.001), rng=7,
        plan=dead_plan([f"m{j}" for j in range(4)]), recovery=policy,
        backoff_base=1e-3,
    ).run()


@pytest.mark.parametrize("policy", ["remap", "requeue"])
@pytest.mark.parametrize(
    "run, total", [(run_faulty, 20), (run_rolling, 200)], ids=["faulty", "rolling"]
)
def test_permanent_total_outage_raises_at_once(run, total, policy):
    # Nothing has finished by t=1, so every task is stranded; the error
    # names the failure instant, not a later poll or the end of the run.
    with pytest.raises(
        SimulationError,
        match=rf"no machine recovers: {total} tasks stranded at t=1$",
    ):
        run(policy)


def test_outage_after_all_work_is_done_is_not_an_error():
    etc = generate_range_based(6, 2, rng=1)
    mapping = get_heuristic("min-min").map_tasks(etc)
    plan = dead_plan(etc.machines, fail_at=2.0 * mapping.makespan())
    result = FaultTolerantHCSystem(etc, plan).execute(mapping)
    assert result.completed == etc.num_tasks
    assert result.failures == etc.num_machines
