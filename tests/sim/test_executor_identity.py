"""Seeded byte-identity of every executor against a checked-in digest.

Each scenario below runs one of the four simulators (static, faulty,
dynamic, rolling) on seeded inputs and hashes its complete output —
every trace record, counter, drop list and aggregate — into a SHA-256
digest.  ``data/executor_digests.json`` holds the digests the
simulators produced when the fixture was written; any change to an
event order, a tie, a float operation or a counter shows up as a
mismatch here.

Regenerate the fixture only for a deliberate behaviour change, and say
so in the change log::

    PYTHONPATH=src python tests/sim/test_executor_identity.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.etc.generation import generate_ensemble_into, generate_range_based
from repro.etc.store import ETCStore
from repro.heuristics import get_heuristic, heuristic_names
from repro.sim.arrivals import BurstyArrivals
from repro.sim.faults import FaultConfig, FaultEvent, FaultPlan, generate_fault_plan
from repro.sim.hcsystem import (
    DynamicHCSimulation,
    FaultTolerantHCSystem,
    HCSystem,
    KPBOnline,
    MCTOnline,
    METOnline,
    OLBOnline,
    SWAOnline,
    bursty_workload,
    poisson_workload,
)
from repro.sim.rolling import (
    EnsembleTaskSource,
    RollingSimulation,
    StoreTaskSource,
    calibrate_rate,
)

FIXTURE = Path(__file__).parent / "data" / "executor_digests.json"


def _canon(value):
    """Type-stable nested form: floats as exact hex, containers as lists."""
    if isinstance(value, (bool, type(None), str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    raise TypeError(f"cannot canonicalise {type(value).__name__}")


def _digest(value) -> str:
    return hashlib.sha256(repr(_canon(value)).encode("utf-8")).hexdigest()


def _trace(trace) -> list:
    return [(r.task, r.machine, r.start, r.finish, r.arrival) for r in trace.records]


def _faulty(result) -> list:
    return [
        _trace(result.trace), result.plan.signature(), result.policy,
        result.failures, result.recoveries, result.slowdowns, result.aborted,
        result.retries, result.requeues, result.dropped,
    ]


def _rolling(result) -> list:
    return [getattr(result, f.name) for f in dataclasses.fields(result)]


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
STATIC_READY = (0.0, 1500.0, 400.0, 3000.0)
#: Registered heuristics that draw random numbers, seeded here.
STOCHASTIC = {"genitor", "gsa", "random", "simulated-annealing", "tabu-search"}


def _static_scenarios():
    etc = generate_range_based(14, 4, rng=11)
    for name in heuristic_names():
        for label, ready in (("zero", None), ("ready", STATIC_READY)):
            def run(name=name, ready=ready):
                kwargs = {"rng": 0} if name in STOCHASTIC else {}
                mapping = get_heuristic(name, **kwargs).map_tasks(etc, ready)
                return _trace(HCSystem(etc, ready).execute(mapping))
            yield f"static/{name}/{label}", run


def _outage_plan(machines, fail_at, recover_at):
    """Every machine fails at ``fail_at``; recoveries are staggered."""
    events = tuple(FaultEvent(fail_at, "fail", m) for m in machines) + tuple(
        FaultEvent(recover_at * (1.0 + 0.25 * i), "recover", m)
        for i, m in enumerate(machines)
    )
    horizon = recover_at * (1.0 + 0.25 * len(machines))
    return FaultPlan(machines=tuple(machines), horizon=horizon, events=events)


def _faulty_scenarios():
    etc = generate_range_based(24, 4, rng=3)
    mapping = get_heuristic("min-min").map_tasks(etc)
    span = mapping.makespan()
    plans = {}
    for seed in (7, 8):
        plans[f"seed{seed}"] = generate_fault_plan(
            etc.machines,
            FaultConfig(
                failure_rate=3.0 / span, mean_downtime=0.08 * span,
                slowdown_rate=2.0 / span, mean_slowdown=0.1 * span,
                slowdown_factor=2.5,
            ),
            span,
            rng=np.random.default_rng(seed),
        )
    plans["alldown"] = _outage_plan(etc.machines, 0.3 * span, 0.6 * span)
    for plan_name, plan in plans.items():
        for policy in ("requeue", "remap"):
            for budget in (0, 3):
                def run(plan=plan, policy=policy, budget=budget):
                    system = FaultTolerantHCSystem(
                        etc, plan, policy=policy, retry_budget=budget,
                        backoff_base=0.02 * span,
                    )
                    return _faulty(system.execute(mapping))
                yield f"faulty/{plan_name}/{policy}/budget{budget}", run
    ready = STATIC_READY
    ready_mapping = get_heuristic("mct").map_tasks(etc, ready)
    for policy in ("requeue", "remap"):
        def run(policy=policy):
            system = FaultTolerantHCSystem(
                etc, plans["seed7"], policy=policy, initial_ready=ready,
                backoff_base=0.02 * span,
            )
            return _faulty(system.execute(ready_mapping))
        yield f"faulty/seed7/{policy}/ready", run


def _dynamic_scenarios():
    etc = generate_range_based(40, 4, rng=5)
    rate = calibrate_rate(etc.values, 0.9)
    workloads = {
        "poisson": poisson_workload(etc, rate, rng=1),
        "bursty": bursty_workload(etc, rate, rng=2, burst_factor=6.0),
    }
    policies = {
        "mct": MCTOnline, "met": METOnline, "olb": OLBOnline,
        "kpb": KPBOnline, "swa": SWAOnline,
    }
    for wl_name, workload in workloads.items():
        for name, policy in policies.items():
            def run(workload=workload, policy=policy):
                sim = DynamicHCSimulation(workload, policy=policy())
                return _trace(sim.run())
            yield f"dynamic/{wl_name}/{name}", run
        for name in ("min-min", "sufferage"):
            def run(workload=workload, name=name):
                sim = DynamicHCSimulation(
                    workload, batch_heuristic=get_heuristic(name),
                    batch_interval=5.0 / rate,
                )
                return _trace(sim.run())
            yield f"dynamic/{wl_name}/batch-{name}", run


ROLLING_TASKS = 240
ROLLING_MACHINES = 4


def _rolling_plan(kind, rate):
    machines = [f"m{j}" for j in range(ROLLING_MACHINES)]
    span = ROLLING_TASKS / rate
    if kind == "alldown":
        return _outage_plan(machines, 0.3 * span, 0.5 * span)
    return generate_fault_plan(
        machines,
        FaultConfig(
            failure_rate=2.0 / span, mean_downtime=0.05 * span,
            slowdown_rate=2.0 / span, mean_slowdown=0.05 * span,
        ),
        span,
        rng=13,
    )


def _rolling_sim(source, rate, plan, recovery, budget, refine):
    return RollingSimulation(
        source, get_heuristic("min-min"),
        horizon=16.0 / rate,
        arrival=lambda r: BurstyArrivals(r, burst_factor=5.0),
        rng=9, plan=plan, recovery=recovery, retry_budget=budget,
        backoff_base=2.0 / rate, refine_iterations=refine,
    )


def _ensemble_source():
    return EnsembleTaskSource(
        ROLLING_TASKS, ROLLING_MACHINES, tasks_per_instance=32, rng=21, window=2
    )


def _rolling_scenarios():
    rate = calibrate_rate(next(_ensemble_source().chunks()))
    for plan_kind in ("faults", "alldown"):
        plan = _rolling_plan(plan_kind, rate)
        for recovery in ("remap", "requeue"):
            for budget, refine in ((3, 2), (0, None)):
                def run(plan=plan, recovery=recovery, budget=budget, refine=refine):
                    sim = _rolling_sim(
                        _ensemble_source(), rate, plan, recovery, budget, refine
                    )
                    return _rolling(sim.run())
                yield (
                    f"rolling/ensemble/{plan_kind}/{recovery}/budget{budget}",
                    run,
                )
    for recovery in ("remap", "requeue"):
        def run(recovery=recovery):
            with tempfile.TemporaryDirectory() as tmp:
                store = ETCStore(Path(tmp) / "store")
                generate_ensemble_into(
                    store, "k", ROLLING_TASKS // 32, 32, ROLLING_MACHINES, rng=21
                )
                try:
                    source = StoreTaskSource(store, "k", window=2)
                    sim = _rolling_sim(
                        source, rate, _rolling_plan("faults", rate), recovery, 3, 2
                    )
                    return _rolling(sim.run())
                finally:
                    store.close()
        yield f"rolling/store/faults/{recovery}", run


def scenarios() -> dict:
    out = {}
    for group in (
        _static_scenarios, _faulty_scenarios, _dynamic_scenarios,
        _rolling_scenarios,
    ):
        for name, run in group():
            assert name not in out, name
            out[name] = run
    return out


SCENARIOS = scenarios()


def _expected() -> dict[str, str]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_scenario():
    assert sorted(_expected()) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_output_matches_recorded_digest(name):
    assert _digest(SCENARIOS[name]()) == _expected()[name]


if __name__ == "__main__":  # pragma: no cover - fixture maintenance
    digests = {name: _digest(run()) for name, run in sorted(SCENARIOS.items())}
    if "--write" in sys.argv[1:]:
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    else:
        json.dump(digests, sys.stdout, indent=1)
