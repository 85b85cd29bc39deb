"""Synthetic-traffic load harness for the scheduling service.

Drives a running service over plain :mod:`urllib.request` from a small
thread pool — the client side deliberately shares no code with the
server, so a harness bug cannot mask a server bug.  Traffic is
open-loop paced: request *i* is released at ``i / rate`` seconds after
the start (``rate=None`` = as fast as the workers can go), the standard
way to measure a service's latency under a target arrival rate rather
than under its own back-pressure.

The report (schema ``repro-serve-load/1``) carries the requests/s
headline plus p50/p95/max latency and the server-observed cache-hit
split; ``repro serve-load`` (and the ``serve-load`` bench workload)
write it next to the bench reports so CI can publish it as an
artifact.
"""

from __future__ import annotations

import json
import threading
import time
from urllib.error import HTTPError, URLError
from urllib.request import Request, urlopen

from repro.exceptions import ConfigurationError
from repro.obs.metrics import nearest_rank

__all__ = [
    "LOAD_SCHEMA",
    "post_json",
    "get_json",
    "run_load",
    "format_load_report",
]

#: Load report format identifier; bump when the JSON layout changes.
LOAD_SCHEMA = "repro-serve-load/1"


def post_json(url: str, payload: dict, *, timeout: float = 30.0):
    """POST one JSON payload; returns ``(status, parsed_body)``.

    Non-2xx statuses are returned, not raised — the error envelope is
    part of the service's contract and callers assert on it.
    """
    data = json.dumps(payload).encode("utf-8")
    request = Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


def get_json(url: str, *, timeout: float = 30.0):
    """GET one JSON resource; returns ``(status, parsed_body)``."""
    try:
        with urlopen(url, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


def run_load(
    url: str,
    payload: dict,
    *,
    requests: int = 100,
    concurrency: int = 8,
    rate: float | None = None,
    timeout: float = 30.0,
) -> dict:
    """Issue ``requests`` copies of ``payload`` and report latency/throughput.

    ``url`` is the endpoint to POST to (e.g.
    ``http://127.0.0.1:8351/v1/schedule``); ``concurrency`` bounds the
    worker threads; ``rate`` paces release times in requests/s
    (``None`` = unpaced closed loop).
    """
    if requests < 1:
        raise ConfigurationError(f"requests must be >= 1, got {requests}")
    if concurrency < 1:
        raise ConfigurationError(f"concurrency must be >= 1, got {concurrency}")
    if rate is not None and rate <= 0:
        raise ConfigurationError(f"rate must be > 0, got {rate}")

    next_index = iter(range(requests))
    index_lock = threading.Lock()
    latencies_s: list[float] = []
    outcomes = {"ok": 0, "errors": 0, "cached": 0, "computed": 0}
    outcome_lock = threading.Lock()
    start = time.perf_counter()

    def worker() -> None:
        while True:
            with index_lock:
                index = next(next_index, None)
            if index is None:
                return
            if rate is not None:
                release = start + index / rate
                delay = release - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            sent = time.perf_counter()
            try:
                status, body = post_json(url, payload, timeout=timeout)
            except (URLError, ConnectionError, TimeoutError, OSError):
                status, body = None, None
            elapsed = time.perf_counter() - sent
            with outcome_lock:
                latencies_s.append(elapsed)
                if status == 200:
                    outcomes["ok"] += 1
                    if isinstance(body, dict) and body.get("cached"):
                        outcomes["cached"] += 1
                    else:
                        outcomes["computed"] += 1
                else:
                    outcomes["errors"] += 1

    threads = [
        threading.Thread(target=worker, name=f"serve-load-{i}", daemon=True)
        for i in range(min(concurrency, requests))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - start

    window = sorted(ms * 1e3 for ms in latencies_s)
    return {
        "schema": LOAD_SCHEMA,
        "url": url,
        "requests": requests,
        "concurrency": concurrency,
        "rate": rate,
        "ok": outcomes["ok"],
        "errors": outcomes["errors"],
        "cached": outcomes["cached"],
        "computed": outcomes["computed"],
        "wall_s": round(wall_s, 6),
        "requests_per_s": round(requests / wall_s, 3) if wall_s else 0.0,
        "latency_ms": {
            "p50": round(nearest_rank(window, 0.50), 3),
            "p95": round(nearest_rank(window, 0.95), 3),
            "max": round(max(window), 3) if window else 0.0,
            "mean": round(sum(window) / len(window), 3) if window else 0.0,
        },
    }


def format_load_report(report: dict) -> str:
    """The requests/s headline plus the latency spread, one per line."""
    latency = report["latency_ms"]
    return "\n".join(
        [
            f"serve-load: {report['requests']} request(s) at concurrency "
            f"{report['concurrency']}"
            + (f", paced {report['rate']:g}/s" if report.get("rate") else ""),
            f"  requests/s : {report['requests_per_s']:.1f}  "
            f"({report['ok']} ok, {report['errors']} error(s), "
            f"{report['cached']} cached)",
            f"  latency ms : p50 {latency['p50']:.3f}  "
            f"p95 {latency['p95']:.3f}  max {latency['max']:.3f}",
        ]
    )
