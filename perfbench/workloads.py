"""In-process workloads: the paper's iterative batch and the rolling loop.

Both drive the library only through its public entry points
(``IterativeScheduler.run`` and ``RollingSimulation.run``) on inputs
generated from the ``--seed``.  Each cycles over a fixed input set for
``--seconds`` (and at least once), and every metric weighs every input
the same however far the last cycle got.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from common import (
    SETUP_REPEATS,
    HostSpeed,
    Result,
    cpu_clock,
    finish_trace,
    peak_rss_mb,
    span_factory,
)
from layers import HEURISTICS, OP, install, layer_metrics
from percentiles import beyond, median, percentile
from spans import SpanRecorder

# -- iterate-512x32 ----------------------------------------------------------
ITERATE_SHAPE = (512, 32)
#: Instances per heterogeneity/consistency class (six classes).
ITERATE_PER_CLASS = 2
#: Instances the traced run covers (one per class).
TRACE_INSTANCES = 6

# -- rolling-bursty-faults ---------------------------------------------------
ROLLING_TASKS = 1024
ROLLING_MACHINES = 8
ROLLING_CHUNK = 64
#: Simulations per pass; each has its own task stream and fault plan.
ROLLING_SIMS = 64
ROLLING_UTILIZATION = 0.7
ROLLING_BURST_FACTOR = 6.0
#: Expected machine failures per machine over one simulation's span.
ROLLING_FAILURES = 1.0
#: Mean downtime as a share of one simulation's expected span.
ROLLING_DOWNTIME = 0.02
ROLLING_RETRY_BUDGET = 8


def _seed_int(*parts: int) -> int:
    """A 32-bit integer seed derived from ``parts``."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def iterate_instances(seed: int, span, per_class: int = ITERATE_PER_CLASS) -> list:
    """The seeded 512x32 instance set: ``per_class`` instances of each of
    hihi/lolo x consistent/semi-consistent/inconsistent, classes
    interleaved so any prefix of six covers every class once."""
    from repro.etc import generation
    from repro.etc.generation import Consistency, Heterogeneity

    rng = np.random.default_rng([seed, *ITERATE_SHAPE])
    instances = []
    for _ in range(per_class):
        for heterogeneity in (Heterogeneity.HIHI, Heterogeneity.LOLO):
            for consistency in Consistency:
                with span("etc.generate"):
                    instances.append(generation.generate_range_based(
                        *ITERATE_SHAPE, heterogeneity, consistency, rng=rng
                    ))
    return instances


def run_iterate(seed: int, seconds: float, trace: bool, trace_path: Path) -> Result:
    from repro.core.iterative import IterativeScheduler
    from repro.core.metrics import compare_iterative
    from repro.heuristics import get_heuristic

    res = Result()
    nospan = span_factory(None)
    speed = HostSpeed()
    setups = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        started = cpu_clock()
        instances = iterate_instances(seed, nospan)
        schedulers = {h: IterativeScheduler(get_heuristic(h)) for h in HEURISTICS}
        setups.append(cpu_clock() - started)
    cells = [(i, h) for i in range(len(instances)) for h in HEURISTICS]
    signatures: dict[tuple[int, str], tuple] = {}
    ratios: list[float] = []

    def run_cell(cell, span) -> tuple[float, float]:
        """One run; returns its wall and CPU seconds."""
        i, h = cell
        with span(OP):
            started, started_cpu = time.perf_counter(), cpu_clock()
            result = schedulers[h].run(instances[i])
            final = result.final_mapping()
            elapsed = (time.perf_counter() - started, cpu_clock() - started_cpu)
        res.attempted += 1
        _check_iterative(res, h, result, final, compare_iterative)
        signature = (result.makespans(), result.removal_order)
        if cell not in signatures:
            signatures[cell] = signature
            ratios.extend(_nonmakespan_ratios(result))
        res.check(signatures[cell] == signature,
                  f"{h} on instance {i}: run differs from its first run")
        return elapsed

    if trace:
        recorder = SpanRecorder()
        iterate_instances(seed, recorder.span)
        traced_cells = cells[: TRACE_INSTANCES * len(HEURISTICS)]
        untraced = sum(run_cell(cell, nospan)[0] for cell in traced_cells)
        with recorder:
            install(recorder)
            traced = sum(run_cell(cell, recorder.span)[0]
                         for cell in traced_cells)
        metrics, check = layer_metrics(recorder.spans)
        finish_trace(res, metrics, check, untraced, traced, recorder, trace_path)
        return res

    # Cycle through the cells until the time is up and every cell has
    # run once; each cell then counts once, by the median of its runs.
    # The host's speed is sampled after every run.
    samples: dict[tuple[int, str], list[tuple[float, float]]] = {
        cell: [] for cell in cells
    }
    started = time.perf_counter()
    done = 0
    while done < len(cells) or time.perf_counter() - started < seconds:
        cell = cells[done % len(cells)]
        samples[cell].append(run_cell(cell, nospan))
        speed.sample()
        done += 1
    cpu_s = {cell: median([cpu for _wall, cpu in times])
             for cell, times in samples.items()}
    wall_s = {cell: median([wall for wall, _cpu in times])
              for cell, times in samples.items()}
    by_heuristic = {
        h: [cpu_s[cell] * speed.factor * 1e3 for cell in cells if cell[1] == h]
        for h in HEURISTICS
    }
    cpu_runs_per_s = len(cells) / sum(cpu_s.values())
    runs_per_s = cpu_runs_per_s / speed.factor
    quality = float(np.mean(ratios))
    res.metrics.update({
        "setup_s": median(setups) * speed.factor,
        "peak_rss_mb": peak_rss_mb(),
        "throughput_per_s": runs_per_s,
        "latency_ms_p50": median(by_heuristic["min-min"]),
        "quality_ratio": quality,
    })
    res.line("iterate.runs", done, "",
             f"{len(instances)} instances x {len(HEURISTICS)} heuristics")
    res.line("iterate.runs_per_s", runs_per_s, "runs/s",
             f"each instance-heuristic cell weighted once; unscaled "
             f"{cpu_runs_per_s:.4g} per CPU s, "
             f"{len(cells) / sum(wall_s.values()):.4g} per wall s")
    for h in HEURISTICS:
        res.line(f"iterate.{h.replace('-', '')}_ms_p50",
                 median(by_heuristic[h]), "ms",
                 f"median over {len(by_heuristic[h])} instances")
    speed.report(res)
    res.line("iterate.nonmakespan_gain_pct", 100.0 * (1.0 - quality), "%",
             f"mean over {len(ratios)} non-makespan machines")
    return res


def _check_iterative(res: Result, h: str, result, final, compare) -> None:
    """The paper's invariance theorems and the final mapping's contract."""
    if h in ("min-min", "mct"):
        res.check(
            compare(result).mapping_changed is False,
            f"{h}: iterative technique changed the mapping under "
            "deterministic ties",
        )
    finish = final.machine_finish_times()
    res.check(
        all(
            abs(finish[m] - t) <= 1e-9 * max(1.0, abs(t))
            for m, t in result.final_finish_times.items()
        ),
        f"{h}: final_mapping() finish times disagree with final_finish_times",
    )


def _nonmakespan_ratios(result) -> list[float]:
    """Iterative over original finish time of each non-makespan machine."""
    original = result.original_finish_times()
    frozen_first = result.original.frozen_machine
    return [
        result.final_finish_times[m] / original[m]
        for m in result.etc.machines
        if m != frozen_first and original[m] > 0
    ]


# -- rolling -----------------------------------------------------------------
def _bursty(rate: float):
    from repro.sim.arrivals import BurstyArrivals

    return BurstyArrivals(rate, burst_factor=ROLLING_BURST_FACTOR)


def rolling_simulations(seed: int, span) -> list[tuple[object, float]]:
    """``ROLLING_SIMS`` seeded simulations and each stream's summed
    best-case service time (row minima), the stretch denominator."""
    from repro.etc import generation
    from repro.etc.generation import Consistency, Heterogeneity
    from repro.heuristics import get_heuristic
    from repro.sim.faults import FaultConfig, generate_fault_plan
    from repro.sim.rolling import (
        EnsembleTaskSource,
        RollingSimulation,
        calibrate_rate,
    )

    machines = [f"m{j}" for j in range(ROLLING_MACHINES)]
    sims = []
    for j in range(ROLLING_SIMS):
        with span("etc.generate"):
            sample = generation.generate_range_based(
                ROLLING_CHUNK, ROLLING_MACHINES, Heterogeneity.HIHI,
                Consistency.INCONSISTENT, rng=np.random.default_rng([seed, j, 0]),
            )
        rate = calibrate_rate(sample.values, ROLLING_UTILIZATION)
        span_est = ROLLING_TASKS / rate
        downtime = ROLLING_DOWNTIME * span_est
        plan = generate_fault_plan(
            machines,
            FaultConfig(
                failure_rate=ROLLING_FAILURES / span_est, mean_downtime=downtime
            ),
            span_est,
            rng=np.random.default_rng([seed, j, 1]),
        )
        source = EnsembleTaskSource(
            ROLLING_TASKS, ROLLING_MACHINES, tasks_per_instance=ROLLING_CHUNK,
            rng=_seed_int(seed, j, 2),
        )
        with span("etc.generate"):
            best_case = sum(float(c.min(axis=1).sum()) for c in source.chunks())
        sim = RollingSimulation(
            source, get_heuristic("min-min"),
            horizon=ROLLING_CHUNK / rate,
            arrival=_bursty,
            utilization=ROLLING_UTILIZATION,
            refine_iterations=2,
            rng=_seed_int(seed, j, 3),
            plan=plan,
            recovery="remap",
            retry_budget=ROLLING_RETRY_BUDGET,
            backoff_base=0.25 * downtime,
            backoff_cap=4.0 * downtime,
        )
        sims.append((sim, best_case))
    return sims


def run_rolling(seed: int, seconds: float, trace: bool, trace_path: Path) -> Result:
    res = Result()
    nospan = span_factory(None)
    speed = HostSpeed()
    setups = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        started = cpu_clock()
        sims = rolling_simulations(seed, nospan)
        setups.append(cpu_clock() - started)
    first: dict[int, object] = {}
    results: list = []

    def one_pass(span, speed=None) -> list[tuple[float, float]]:
        """Every simulation once, sampling ``speed`` (if given) after
        each; returns each run's wall and CPU seconds."""
        times = []
        results.clear()
        for j, (sim, _best) in enumerate(sims):
            with span(OP):
                started, started_cpu = time.perf_counter(), cpu_clock()
                result = sim.run()
                times.append((time.perf_counter() - started,
                              cpu_clock() - started_cpu))
            if speed is not None:
                speed.sample()
            results.append(result)
            res.attempted += result.total_tasks
            res.failed += len(result.dropped)
            res.check(
                result.completed + len(result.dropped) == result.total_tasks,
                f"simulation {j}: {result.completed} completed + "
                f"{len(result.dropped)} dropped != {result.total_tasks}",
            )
            key = (result.completed, result.horizons, result.mean_flow)
            first.setdefault(j, key)
            res.check(first[j] == key,
                      f"simulation {j}: run differs from its first run")
        return times

    if trace:
        recorder = SpanRecorder()
        rolling_simulations(seed, recorder.span)
        untraced = sum(wall for wall, _cpu in one_pass(nospan))
        with recorder:
            install(recorder)
            traced = sum(wall for wall, _cpu in one_pass(recorder.span))
        metrics, check = layer_metrics(recorder.spans)
        horizons = sum(r.horizons for r in results)
        dispatches = sum(r.dispatches for r in results)
        metrics.update({
            "sim.rolling.horizons": horizons,
            "sim.rolling.dispatches": dispatches,
            "sim.rolling.mean_batch": dispatches / horizons if horizons else 0.0,
            "sim.rolling.failures": sum(r.failures for r in results),
            "sim.rolling.retries": sum(r.retries for r in results),
            "sim.rolling.aborted": sum(r.aborted for r in results),
            "sim.rolling.dropped": sum(len(r.dropped) for r in results),
            "sim.rolling.peak_backlog": max(r.peak_backlog for r in results),
        })
        finish_trace(res, metrics, check, untraced, traced, recorder, trace_path)
        return res

    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        passes.append(one_pass(nospan, speed))
    cpu_ms = [cpu * 1e3 for p in passes for _wall, cpu in p]
    wall_ms = [wall * 1e3 for p in passes for wall, _cpu in p]
    run_ms = [t * speed.factor for t in cpu_ms]
    tasks = ROLLING_TASKS * len(run_ms)
    tasks_per_s = tasks / (sum(run_ms) / 1e3)
    flow = sum(r.mean_flow * r.completed for r in results)
    completed = sum(r.completed for r in results)
    stretch = flow / sum(best for _sim, best in sims)
    res.metrics.update({
        "setup_s": median(setups) * speed.factor,
        "peak_rss_mb": peak_rss_mb(),
        "throughput_per_s": tasks_per_s,
        "latency_ms_p50": median(run_ms),
        "quality_ratio": stretch,
    })
    res.line("rolling.passes", len(passes), "",
             f"{ROLLING_SIMS} simulations x {ROLLING_TASKS} tasks each")
    res.line("rolling.tasks_per_s", tasks_per_s, "tasks/s",
             f"{tasks} tasks; unscaled {tasks / (sum(cpu_ms) / 1e3):.5g} "
             f"per CPU s, {tasks / (sum(wall_ms) / 1e3):.5g} per wall s")
    res.line("rolling.run_ms_p50", median(run_ms), "ms", f"n={len(run_ms)}")
    res.line("rolling.run_ms_p95", percentile(run_ms, 95), "ms",
             f"n={len(run_ms)}, {beyond(len(run_ms), 95)} beyond")
    res.line("rolling.mean_flow_sim", flow / completed, "sim units",
             f"{completed} tasks of one pass")
    res.line("rolling.mean_stretch", stretch, "",
             "mean flow / mean best-case service time")
    speed.report(res)
    return res
