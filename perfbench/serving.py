"""HTTP workloads: open-loop traffic against ``repro serve`` in a subprocess.

``serve-cold`` sends a unique inline 128x16 ``iterate`` request each
time, so every request misses the response cache, computes and stores.
``serve-hot`` cycles a few large inline 512x32 ``map`` requests that
set-up has already computed, so every request is a cache hit.

A run has a nominal phase (``NOMINAL_REQUESTS`` at the workload's
nominal rate, about half the capacity, giving the latency metrics and
the verdict against the latency limit) and then a capacity phase:
``CAPACITY_BURSTS`` bursts that each make their share of
``CAPACITY_REQUESTS`` due at once on the two connections; the responses
per CPU second of the server are the service's capacity.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import HostSpeed, Result, finish_trace, span_factory
from layers import OP, install, layer_metrics
from openloop import http_sender, run_phase
from percentiles import beyond, median, percentile, tail
from spans import SpanRecorder


@dataclass(frozen=True)
class ServeSpec:
    kind: str
    path: str
    shape: tuple[int, int]
    #: Distinct payloads cycled (``None``: every request is unique).
    distinct: int | None
    nominal_rps: float
    limit_ms: float

    @property
    def expect_cached(self) -> bool:
        """Cycled payloads are computed during set-up, so every request
        hits the cache; unique ones all miss."""
        return self.distinct is not None


SPECS = {
    "serve-cold": ServeSpec("iterate", "/v1/iterate", (128, 16), None,
                            14.0, 250.0),
    "serve-hot": ServeSpec("map", "/v1/map", (512, 32), 8, 16.0, 250.0),
}

#: The fewest requests whose p95 has 10 samples beyond it.
NOMINAL_REQUESTS = 200
CAPACITY_REQUESTS = 600
#: The host's speed is sampled before, between and after the bursts.
CAPACITY_BURSTS = 4
#: Requests replayed in process by the traced run.
REPLAY_REQUESTS = 40
#: Every this many nominal responses is recomputed in process and
#: compared byte for byte.
SAMPLE_EVERY = 21
SETUP_REPEATS = 3
HOST = "127.0.0.1"
WORKERS = 2
#: Pause between the phases so the first cannot spill into the second.
DRAIN_S = 1.0
#: Reference timings (``HostSpeed``) before each set-up, between the
#: phases and after the last; the server is idle meanwhile.
SPEED_SAMPLES = 20


def _canonical(value) -> bytes:
    return json.dumps(
        json.loads(json.dumps(value)), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def make_payloads(spec: ServeSpec, seed: int, count: int, span):
    """``count`` request bodies and each instance's makespan lower bound."""
    from repro.etc import generation
    from repro.etc.generation import Consistency, Heterogeneity

    rng = np.random.default_rng([seed, *spec.shape])
    classes = [(h, c) for h in (Heterogeneity.HIHI, Heterogeneity.LOLO)
               for c in Consistency]
    unique = count if spec.distinct is None else spec.distinct
    bodies, bounds = [], []
    for i in range(unique):
        with span("etc.generate"):
            etc = generation.generate_range_based(
                *spec.shape, *classes[i % len(classes)], rng=rng
            )
        values = np.round(etc.values, 1)
        best = values.min(axis=1)
        bounds.append(max(float(best.max()), float(best.sum()) / spec.shape[1]))
        bodies.append(json.dumps({
            "kind": spec.kind,
            "heuristic": "min-min",
            "etc": {"values": values.tolist()},
        }).encode("utf-8"))
    return [bodies[i % unique] for i in range(count)], [
        bounds[i % unique] for i in range(count)
    ]


class Server:
    """``python -m repro serve`` as a subprocess on an ephemeral port."""

    def __init__(self, root: Path, cache_dir: Path, log_path: Path) -> None:
        self.root, self.cache_dir, self.log_path = root, cache_dir, log_path
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> None:
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        with self.log_path.open("ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--host", HOST,
                 "--port", "0", "--workers", str(WORKERS),
                 "--cache-dir", str(self.cache_dir)],
                cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=log,
            )
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, remaining))
            if not ready:
                self.stop()
                raise RuntimeError("server did not report its port in time")
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if not line:
                self.stop()
                raise RuntimeError(f"server exited; see {self.log_path}")
            match = re.match(r"serving on http://[^:]+:(\d+)", line)
            if match:
                self.port = int(match.group(1))
                break
        status, _ = self.get("/healthz")
        if status != 200:
            self.stop()
            raise RuntimeError(f"server health check answered {status}")

    def get(self, path: str):
        url = f"http://{HOST}:{self.port}{path}"
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, json.loads(response.read())

    def cpu_s(self) -> float:
        """CPU seconds the server process (all threads) has used."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        utime, stime = int(fields[11]), int(fields[12])
        return (utime + stime) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
        return int(match.group(1)) / 1024.0

    def stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()


def _post(port: int, path: str, body: bytes):
    """One blocking POST (set-up warm-up); returns ``(status, json)``."""
    request = urllib.request.Request(
        f"http://{HOST}:{port}{path}", data=body,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read())


def run_serve(workload: str, seed: int, seconds: float, trace: bool,
              trace_path: Path, workdir: Path) -> Result:
    spec = SPECS[workload]
    root = workdir.parent
    run_dir = workdir / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    server = Server(root, run_dir / "cache", run_dir / "server.log")
    try:
        return _run(spec, seed, seconds, trace, trace_path, run_dir, server)
    finally:
        server.stop()
        shutil.rmtree(run_dir, ignore_errors=True)


def _setup(spec: ServeSpec, seed: int, server: Server, span):
    """Inputs, a running server and (hot) a warm cache; returns the
    request bodies, their lower bounds and the warm-up responses."""
    count = NOMINAL_REQUESTS + CAPACITY_REQUESTS
    bodies, bounds = make_payloads(spec, seed, count, span)
    shutil.rmtree(server.cache_dir, ignore_errors=True)
    server.start()
    warm = []
    if spec.expect_cached:
        for body in bodies[: spec.distinct]:
            warm.append(_post(server.port, spec.path, body))
    return bodies, bounds, warm


def _run(spec, seed, seconds, trace, trace_path, run_dir, server) -> Result:
    res = Result()
    nospan = span_factory(None)
    if trace:
        recorder = SpanRecorder()
        bodies, bounds, warm = _setup(spec, seed, server, recorder.span)
        _check_warm(res, warm)
        _traced(res, spec, bodies, server, recorder, run_dir, trace_path)
        return res

    speed = HostSpeed()
    setups = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            server.stop()
        speed.sample(SPEED_SAMPLES)
        started = time.perf_counter()
        bodies, bounds, warm = _setup(spec, seed, server, nospan)
        setups.append(time.perf_counter() - started)
    _check_warm(res, warm)

    limit_s = spec.limit_ms / 1e3
    nominal, capacity, capacity_cpu_s = asyncio.run(
        _measure(spec, bodies, server, speed)
    )
    rss = server.peak_rss_mb()
    succeeded = sum(burst.succeeded for burst in capacity)
    capacity_rps = succeeded / (capacity_cpu_s * speed.factor)
    wall_rps = succeeded / sum(burst.span_s for burst in capacity)

    makespan_ratios = []
    for phase in (nominal, *capacity):
        res.attempted += phase.sent
        res.failed += phase.failed
        for error in phase.errors[:3]:
            res.report.append(f"{phase.name}: {error}")
        for index, raw in phase.bodies.items():
            response = json.loads(raw)
            _check_response(res, spec, phase.name, index, response)
            if phase is nominal:
                result = response["result"]
                makespan = result.get("makespan", result.get("original_makespan"))
                makespan_ratios.append(makespan / bounds[index])
                if index % SAMPLE_EVERY == 0:
                    _check_identical(res, bodies[index], response)
    res.check(
        len(makespan_ratios) == NOMINAL_REQUESTS,
        f"nominal phase: {len(makespan_ratios)} of {NOMINAL_REQUESTS} "
        "requests answered",
    )

    latencies = [t * speed.factor * 1e3 for t in nominal.latency_s]
    # NOMINAL_REQUESTS makes the tail rule land on p95.
    level, p_tail, count = tail(latencies)
    res.metrics.update({
        "setup_s": median(setups) * speed.factor,
        "peak_rss_mb": rss,
        "throughput_per_s": capacity_rps,
        "latency_ms_p50": median(latencies),
        "quality_ratio": float(np.mean(makespan_ratios)) if makespan_ratios else 0.0,
    })
    res.line("serve.latency_ms_p50", median(latencies), "ms",
             f"n={count} at {nominal.rate:g} req/s, from due time")
    res.line(f"serve.latency_ms_p{level}", p_tail, "ms",
             f"n={count}, {beyond(count, level)} beyond")
    res.line("serve.nominal_meets_limit", nominal.meets(limit_s), "",
             f"p95 <= {spec.limit_ms:g} ms, no failure, no growing backlog")
    res.line("serve.capacity_rps", capacity_rps, "req/s",
             f"{succeeded} responses per server CPU second, "
             f"{WORKERS} connections saturated; unscaled "
             f"{succeeded / capacity_cpu_s:.4g} per CPU s, "
             f"{wall_rps:.4g} per wall s")
    for phase in (nominal, *capacity):
        res.line(
            f"phase.{phase.name}", phase.sent, "sent",
            f"{phase.succeeded} ok, {phase.failed} failed, "
            f"{phase.rate:g} req/s due, "
            f"late p50 {median(phase.late_s) * 1e3:.2f} ms",
        )
    res.line("serve.makespan_over_bound", res.metrics["quality_ratio"], "",
             "mean served makespan / instance lower bound")
    speed.report(res)
    return res


async def _measure(spec, bodies, server: Server, speed: HostSpeed):
    """The nominal phase, a pause, then the capacity bursts; returns the
    nominal phase, the bursts and the server's CPU seconds in them."""
    requests = [(spec.path, body) for body in bodies]
    nominal = await run_phase(
        http_sender(HOST, server.port, requests[:NOMINAL_REQUESTS]),
        NOMINAL_REQUESTS, spec.nominal_rps, name="nominal",
    )
    speed.sample(SPEED_SAMPLES)
    await asyncio.sleep(DRAIN_S)
    capacity, cpu_s = [], 0.0
    size = CAPACITY_REQUESTS // CAPACITY_BURSTS
    for burst in range(CAPACITY_BURSTS):
        first = NOMINAL_REQUESTS + burst * size
        cpu_before = server.cpu_s()
        capacity.append(await run_phase(
            http_sender(HOST, server.port, requests[first:first + size]),
            size, math.inf, name=f"capacity{burst}",
        ))
        cpu_s += server.cpu_s() - cpu_before
        speed.sample(SPEED_SAMPLES)
    return nominal, capacity, cpu_s


def _check_warm(res: Result, warm) -> None:
    for status, response in warm:
        res.check(status == 200 and response.get("cached") is False,
                  f"warm-up: status {status}, cached {response.get('cached')}")


def _check_response(res: Result, spec: ServeSpec, phase: str, index: int,
                    response: dict) -> None:
    where = f"{phase} request {index}"
    res.check(response.get("cached") is spec.expect_cached,
              f"{where}: cached is {response.get('cached')}, expected "
              f"{spec.expect_cached}")
    result = response.get("result", {})
    res.check(result.get("kind") == spec.kind, f"{where}: wrong result kind")
    if spec.kind == "iterate":
        res.check(result.get("mapping_changed") is False,
                  f"{where}: min-min mapping changed under the iterative "
                  "technique")


def _check_identical(res: Result, body: bytes, response: dict) -> None:
    """The served result equals the library's, byte for byte."""
    from repro.serve import models, service

    request = models.parse_request(json.loads(body))
    res.check(response.get("key") == models.request_key(request),
              "served cache key differs from request_key()")
    res.check(
        _canonical(response["result"])
        == _canonical(service.execute_request(request)),
        "served result differs from execute_request() in process",
    )


def _replay(bodies, cache_root: Path, span) -> tuple[float, dict]:
    """The server's request path, in process: decode, parse, key, cache,
    compute, store, encode.  Returns wall seconds and byte counts."""
    from repro.serve import models, service
    from repro.serve.cache import ResponseCache

    cache = ResponseCache(cache_root)
    wall = 0.0
    counts = {"read": 0, "written": 0, "hits": 0}
    for body in bodies:
        with span(OP):
            started = time.perf_counter()
            with span("serve.models.json_decode"):
                payload = json.loads(body)
            request = models.parse_request(payload)
            key = models.request_key(request)
            result = cache.load(key)
            cached = result is not None
            if not cached:
                result = service.execute_request(request)
                cache.store(key, models.request_identity(request), result)
            with span("serve.service.encode"):
                json.dumps(
                    {"cached": cached, "key": key, "result": result},
                    sort_keys=True,
                ).encode("utf-8")
            wall += time.perf_counter() - started
        size = cache.path_for(key).stat().st_size
        counts["read" if cached else "written"] += size
        counts["hits"] += cached
    return wall, counts


def _warm_replay_cache(spec: ServeSpec, bodies, cache_root: Path) -> None:
    if spec.expect_cached:
        _replay(bodies[: spec.distinct], cache_root, span_factory(None))


def _traced(res, spec, bodies, server, recorder, run_dir, trace_path) -> None:
    replay = bodies[:REPLAY_REQUESTS]
    nospan = span_factory(None)
    _warm_replay_cache(spec, bodies, run_dir / "replay-untraced")
    _warm_replay_cache(spec, bodies, run_dir / "replay-traced")
    untraced, _ = _replay(replay, run_dir / "replay-untraced", nospan)
    with recorder:
        install(recorder)
        traced, counts = _replay(replay, run_dir / "replay-traced",
                                 recorder.span)
    metrics, check = layer_metrics(recorder.spans)
    res.check(
        counts["hits"] == (len(replay) if spec.expect_cached else 0),
        f"replay: {counts['hits']} cache hits of {len(replay)}",
    )

    # Live part: a fresh server process (cache kept) so its counters and
    # latency window cover exactly the traced phase.
    server.stop()
    server.start()
    phase = asyncio.run(run_phase(
        http_sender(HOST, server.port,
                    [(spec.path, body) for body in bodies[:NOMINAL_REQUESTS]]),
        NOMINAL_REQUESTS, spec.nominal_rps, name="traced",
    ))
    _, stats = server.get("/v1/stats")
    for index, raw in phase.bodies.items():
        _check_response(res, spec, "traced", index, json.loads(raw))
    res.attempted += phase.sent
    res.failed += phase.failed
    counts_live = stats["counts"]
    server_p50 = stats["latency_ms"]["p50"]
    metrics.update({
        "serve.cache.bytes_read": counts["read"],
        "serve.cache.bytes_written": counts["written"],
        "serve.cache.hit_ratio": (
            counts_live["cache_hits"] / counts_live["requests"]
            if counts_live["requests"] else 0.0
        ),
        "serve.service.server_latency_ms_p50": server_p50,
        "serve.service.server_latency_ms_p95": stats["latency_ms"]["p95"],
        "serve.service.shed": counts_live["shed"],
        "serve.service.errors": (
            counts_live["validation_errors"] + counts_live["execution_errors"]
        ),
        "serve.http.transport_ms": median(phase.service_s) * 1e3 - server_p50,
        "serve.http.connect_ms": median(phase.connect_s) * 1e3,
        "gen.late_ms_p50": median(phase.late_s) * 1e3,
        "gen.late_ms_p95": percentile(phase.late_s, 95) * 1e3,
        "gen.requests": phase.sent,
        "gen.failed": phase.failed,
    })
    res.line("phase.traced", phase.sent, "sent",
             f"{phase.succeeded} ok, {phase.failed} failed")
    finish_trace(res, metrics, check, untraced, traced, recorder, trace_path)
