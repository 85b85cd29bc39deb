"""Layer spans for the traced run, and the per-layer metrics they yield.

:func:`install` wraps the public entry point of each layer the paper's
technique passes through; :func:`layer_metrics` turns the recorded spans
into the ``per_layer`` metrics of ``BENCHMARK.json``.  Every ``*_ms``
metric is the layer's *self time* summed over the traced pass, except
``core.iterative.run_ms`` and ``etc.source_chunk_ms``, which are time
inside the call, ``heuristics.map_ms_p95``, the p95 of one kernel
call's duration, and ``etc.generate_ms``, which is set-up time.

Every workload reports every metric; a layer that a workload does not
pass through reads 0 there.
"""

from __future__ import annotations

from percentiles import percentile
from spans import (
    END,
    NAME,
    PARENT,
    START,
    TAG,
    conservation,
    layer_totals,
    self_times,
)

#: Heuristics of the iterate workload, in the order they run.
HEURISTICS = ("min-min", "mct", "sufferage", "k-percent-best")

#: Name of the span around each timed operation of a workload.
OP = "op"

PER_LAYER: tuple[tuple[str, str], ...] = (
    ("etc.generate_ms", "ms"),
    ("etc.without_machine_calls", "count"),
    ("etc.without_machine_ms", "ms"),
    ("etc.source_chunk_ms", "ms"),
    *(
        item
        for h in HEURISTICS
        for item in (
            (f"heuristics.{h}.map_calls", "count"),
            (f"heuristics.{h}.map_ms", "ms"),
            (f"heuristics.{h}.decisions", "count"),
            (f"heuristics.{h}.us_per_decision", "us"),
        )
    ),
    ("heuristics.map_ms_p95", "ms"),
    ("core.mapping.assign_calls", "count"),
    ("core.mapping.assign_ms", "ms"),
    ("core.final_mapping_ms", "ms"),
    ("core.iterative.run_ms", "ms"),
    ("core.iterative.self_ms", "ms"),
    ("core.iterative.iterations", "count"),
    ("sim.rolling.self_ms", "ms"),
    ("sim.rolling.horizons", "count"),
    ("sim.rolling.dispatches", "count"),
    ("sim.rolling.mean_batch", "tasks"),
    ("sim.rolling.failures", "count"),
    ("sim.rolling.retries", "count"),
    ("sim.rolling.aborted", "count"),
    ("sim.rolling.dropped", "count"),
    ("sim.rolling.peak_backlog", "tasks"),
    ("serve.models.json_decode_ms", "ms"),
    ("serve.models.parse_ms", "ms"),
    ("serve.models.key_ms", "ms"),
    ("serve.cache.load_ms", "ms"),
    ("serve.cache.store_ms", "ms"),
    ("serve.cache.bytes_read", "bytes"),
    ("serve.cache.bytes_written", "bytes"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.service.compute_ms", "ms"),
    ("serve.service.encode_ms", "ms"),
    ("serve.service.server_latency_ms_p50", "ms"),
    ("serve.service.server_latency_ms_p95", "ms"),
    ("serve.service.shed", "count"),
    ("serve.service.errors", "count"),
    ("serve.http.transport_ms", "ms"),
    ("serve.http.connect_ms", "ms"),
    ("gen.late_ms_p50", "ms"),
    ("gen.late_ms_p95", "ms"),
    ("gen.requests", "count"),
    ("gen.failed", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.conservation", "ratio"),
)

#: Allowed gap between the layers' summed self time and the measured
#: wall time of the traced operations (share of the wall time).
CONSERVATION_TOLERANCE = 0.10

#: Span name -> per-layer metric receiving its summed self time.
_SELF_MS = {
    "etc.without_machine": "etc.without_machine_ms",
    "core.mapping.assign": "core.mapping.assign_ms",
    "core.final_mapping": "core.final_mapping_ms",
    "core.iterative.run": "core.iterative.self_ms",
    "sim.rolling.run": "sim.rolling.self_ms",
    "serve.models.json_decode": "serve.models.json_decode_ms",
    "serve.models.parse": "serve.models.parse_ms",
    "serve.models.key": "serve.models.key_ms",
    "serve.cache.load": "serve.cache.load_ms",
    "serve.cache.store": "serve.cache.store_ms",
    "serve.service.compute": "serve.service.compute_ms",
    "serve.service.encode": "serve.service.encode_ms",
}


def install(recorder) -> None:
    """Wrap each layer's public entry point with a span."""
    from repro.core.iterative import IterativeResult, IterativeScheduler
    from repro.core.schedule import Mapping
    from repro.etc.matrix import ETCMatrix
    from repro.heuristics.base import Heuristic
    from repro.serve import cache, models, service
    from repro.sim.rolling import EnsembleTaskSource, RollingSimulation

    recorder.wrap(
        Heuristic, "map_tasks", "heuristics.map",
        tag=lambda args: (args[0].name, args[1].num_tasks),
    )
    recorder.wrap(Mapping, "assign", "core.mapping.assign")
    recorder.wrap(Mapping, "assign_index", "core.mapping.assign")
    recorder.wrap(IterativeResult, "final_mapping", "core.final_mapping")
    recorder.wrap(IterativeScheduler, "run", "core.iterative.run")
    recorder.wrap(ETCMatrix, "without_machine", "etc.without_machine")
    recorder.wrap_generator(EnsembleTaskSource, "chunks", "etc.source_chunk")
    recorder.wrap(RollingSimulation, "run", "sim.rolling.run")
    recorder.wrap(models, "parse_request", "serve.models.parse")
    recorder.wrap(models, "request_key", "serve.models.key")
    recorder.wrap(cache.ResponseCache, "load", "serve.cache.load")
    recorder.wrap(cache.ResponseCache, "store", "serve.cache.store")
    recorder.wrap(service, "execute_request", "serve.service.compute")


def layer_metrics(spans) -> tuple[dict[str, float], dict]:
    """Per-layer metrics from the spans of one traced run.

    Returns ``(metrics, conservation)`` where ``conservation`` holds the
    wall time of the ``op`` spans, the layers' summed self time and their
    ratio.  Metrics not derivable from spans are 0 here; the workload
    fills them in.
    """
    metrics = {name: 0.0 for name, _unit in PER_LAYER}
    selfs = self_times(spans)
    totals = layer_totals(spans, selfs)
    for span_name, metric in _SELF_MS.items():
        if span_name in totals:
            metrics[metric] = totals[span_name]["self_s"] * 1e3

    def calls(span_name: str) -> int:
        return totals.get(span_name, {}).get("calls", 0)

    metrics["etc.without_machine_calls"] = calls("etc.without_machine")
    metrics["core.mapping.assign_calls"] = calls("core.mapping.assign")
    if "core.iterative.run" in totals:
        metrics["core.iterative.run_ms"] = (
            totals["core.iterative.run"]["total_s"] * 1e3
        )
    for span_name, metric in (
        ("etc.source_chunk", "etc.source_chunk_ms"),
        ("etc.generate", "etc.generate_ms"),
    ):
        if span_name in totals:
            metrics[metric] = totals[span_name]["total_s"] * 1e3

    map_durations = []
    for span, own in zip(spans, selfs):
        if span[NAME] != "heuristics.map":
            continue
        heuristic, tasks = span[TAG]
        map_durations.append(span[END] - span[START])
        parent = span[PARENT]
        if parent >= 0 and spans[parent][NAME] == "core.iterative.run":
            metrics["core.iterative.iterations"] += 1
        if heuristic not in HEURISTICS:
            continue
        metrics[f"heuristics.{heuristic}.map_calls"] += 1
        metrics[f"heuristics.{heuristic}.map_ms"] += own * 1e3
        metrics[f"heuristics.{heuristic}.decisions"] += tasks
    for h in HEURISTICS:
        decisions = metrics[f"heuristics.{h}.decisions"]
        if decisions:
            metrics[f"heuristics.{h}.us_per_decision"] = (
                metrics[f"heuristics.{h}.map_ms"] * 1e3 / decisions
            )
    if map_durations:
        metrics["heuristics.map_ms_p95"] = percentile(map_durations, 95) * 1e3

    wall, layers = conservation(spans, OP, selfs)
    ratio = layers / wall if wall > 0 else 0.0
    metrics["trace.conservation"] = ratio
    return metrics, {
        "wall_s": wall,
        "layers_s": layers,
        "ratio": ratio,
        "ok": abs(ratio - 1.0) <= CONSERVATION_TOLERANCE,
        "map_calls": len(map_durations),
    }
