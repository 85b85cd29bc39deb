"""Transport-agnostic service core: handle → status/envelope contracts.

Everything here drives ``await service.handle(payload)`` directly (no
sockets), covering the compute/cache/error/overload paths, the traced
span shape the smoke gate asserts, and the ledger summary.
"""

from __future__ import annotations

import asyncio
import time
from types import SimpleNamespace

import pytest

from repro.exceptions import ConfigurationError, ReproError
from repro.obs import CollectingTracer, use_tracer
from repro.obs.metrics import nearest_rank
from repro.serve import load
from repro.serve.models import RESPONSE_SCHEMA
from repro.serve.service import STATS_SCHEMA, SchedulingService, execute_request

pytestmark = pytest.mark.serve

VALUES = [[4.0, 5.0, 5.0], [6.0, 2.0, 2.0], [5.0, 6.0, 3.0], [4.0, 1.0, 3.0]]
MAP_PAYLOAD = {"kind": "map", "etc": {"values": VALUES}}


def run(coro):
    return asyncio.run(coro)


def make_service(tmp_path, **kwargs) -> SchedulingService:
    return SchedulingService(str(tmp_path / "responses"), **kwargs)


def test_map_request_computes(tmp_path):
    service = make_service(tmp_path)
    try:
        status, response = run(service.handle(MAP_PAYLOAD))
    finally:
        service.close()
    assert status == 200
    assert response["schema"] == RESPONSE_SCHEMA
    assert response["cached"] is False
    result = response["result"]
    assert result["kind"] == "map"
    assert result["tasks"] == 4 and result["machines"] == 3
    assert set(result["assignments"]) == {"t0", "t1", "t2", "t3"}
    assert result["makespan"] == pytest.approx(
        max(result["finish_times"].values())
    )


def test_repeat_request_served_from_cache(tmp_path):
    service = make_service(tmp_path)
    try:
        status1, first = run(service.handle(MAP_PAYLOAD))
        status2, second = run(service.handle(MAP_PAYLOAD))
    finally:
        service.close()
    assert (status1, status2) == (200, 200)
    assert first["cached"] is False and second["cached"] is True
    assert first["key"] == second["key"]
    assert first["result"] == second["result"]
    assert service.counts["requests"] == 2
    assert service.counts["computed"] == 1
    assert service.counts["cache_hits"] == 1


def test_trace_verbosity_shares_the_cache_entry(tmp_path):
    """Non-identity fields must hit the entry the base request filled."""
    service = make_service(tmp_path)
    try:
        _, first = run(service.handle(MAP_PAYLOAD))
        _, second = run(
            service.handle({**MAP_PAYLOAD, "trace": True, "request_id": "r-1"})
        )
    finally:
        service.close()
    assert second["cached"] is True
    assert second["key"] == first["key"]
    assert second["request_id"] == "r-1"
    assert "request_id" not in first


def test_cache_disabled_recomputes(tmp_path):
    service = SchedulingService(None)
    try:
        _, first = run(service.handle(MAP_PAYLOAD))
        _, second = run(service.handle(MAP_PAYLOAD))
    finally:
        service.close()
    assert first["cached"] is False and second["cached"] is False
    assert service.counts["computed"] == 2
    assert service.counts["cache_hits"] == 0


def test_validation_error_is_400(tmp_path):
    service = make_service(tmp_path)
    try:
        status, body = run(service.handle({"kind": "nonsense"}))
    finally:
        service.close()
    assert status == 400
    assert body["error"]["type"] == "validation"
    assert "kind" in body["error"]["message"]
    assert service.counts["validation_errors"] == 1
    assert service.counts["computed"] == 0


def test_execution_error_is_500(tmp_path, monkeypatch):
    def explode(request):
        raise ReproError("synthetic compute failure")

    monkeypatch.setattr("repro.serve.service.execute_request", explode)
    service = make_service(tmp_path)
    try:
        status, body = run(service.handle(MAP_PAYLOAD))
    finally:
        service.close()
    assert status == 500
    assert body["error"]["type"] == "execution"
    assert "synthetic compute failure" in body["error"]["message"]
    assert service.counts["execution_errors"] == 1
    # A failed computation must not poison the cache.
    assert len(service.cache) == 0


def test_overload_sheds_with_503(tmp_path, monkeypatch):
    def slow(request):
        time.sleep(0.05)
        return execute_request(request)

    monkeypatch.setattr("repro.serve.service.execute_request", slow)
    service = make_service(tmp_path, max_pending=1)

    async def burst():
        return await asyncio.gather(
            *(service.handle({**MAP_PAYLOAD, "seed": i}) for i in range(3))
        )

    try:
        responses = run(burst())
    finally:
        service.close()
    statuses = sorted(status for status, _ in responses)
    assert statuses == [200, 503, 503]
    shed = [body for status, body in responses if status == 503]
    assert all(body["error"]["type"] == "overload" for body in shed)
    assert service.counts["shed"] == 2
    # Shed requests never count as handled traffic beyond the shed bucket.
    assert service.counts["requests"] == 1


def test_iterate_and_study_kinds(tmp_path):
    service = make_service(tmp_path)
    try:
        _, iterate = run(
            service.handle({"kind": "iterate", "etc": {"values": VALUES}})
        )
        _, study = run(
            service.handle(
                {
                    "kind": "study",
                    "ensemble": {"tasks": 6, "machines": 3, "instances": 2},
                }
            )
        )
    finally:
        service.close()
    result = iterate["result"]
    assert result["kind"] == "iterate"
    assert result["iterations"] >= 1
    assert len(result["makespans"]) == result["iterations"]
    # makespans() tracks the shrinking frozen-submatrix makespan per
    # iteration; the comparison carries the full-schedule before/after.
    assert result["original_makespan"] == result["makespans"][0]
    assert result["final_makespan"] >= result["original_makespan"] or not (
        result["makespan_increased"]
    )
    assert len(result["machines"]) == 3
    rows = study["result"]["rows"]
    assert len(rows) == 1
    assert rows[0]["heuristic"] == "min-min"
    assert rows[0]["runs"] == 2


def test_traced_hit_has_no_compute_span(tmp_path):
    """The acceptance property: a cache hit must not re-enter compute."""
    tracer = CollectingTracer()
    service = make_service(tmp_path)
    try:
        with use_tracer(tracer):
            run(service.handle(MAP_PAYLOAD))
            run(service.handle(MAP_PAYLOAD))
    finally:
        service.close()
    kinds = [span.kind for span in tracer.spans]
    assert kinds.count("serve.request") == 2
    assert kinds.count("serve.compute") == 1
    counters = tracer.counters.as_dict()
    assert counters["serve.requests"] == 2
    assert counters["serve.cache_hits"] == 1
    assert counters["serve.computed"] == 1


def test_stats_snapshot(tmp_path):
    service = make_service(tmp_path)
    try:
        run(service.handle(MAP_PAYLOAD))
        run(service.handle({"kind": "nonsense"}))
        stats = service.stats()
    finally:
        service.close()
    assert stats["schema"] == STATS_SCHEMA
    assert stats["counts"]["requests"] == 2
    assert stats["by_kind"] == {"map": 1}
    assert stats["latency_ms"]["count"] == 2
    assert stats["latency_ms"]["p95"] >= stats["latency_ms"]["p50"] >= 0.0
    assert stats["cache_dir"].endswith("responses")


def test_stats_and_load_share_the_nearest_rank_percentile(tmp_path, monkeypatch):
    """``/v1/stats`` and ``repro serve-load`` read p50/p95 off the raw
    latency window with the one nearest-rank routine in obs.metrics."""
    samples_ms = [7.0, 1.0, 9.0, 3.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0]
    assert nearest_rank(sorted(samples_ms), 0.50) == 6.0  # index int(0.5 * 10)
    assert nearest_rank(sorted(samples_ms), 0.95) == 10.0  # index clamped to 9
    assert nearest_rank([], 0.50) == 0.0

    service = make_service(tmp_path)
    try:
        service._latencies_ms[:] = samples_ms
        latency = service.stats()["latency_ms"]
    finally:
        service.close()
    assert (latency["p50"], latency["p95"]) == (6.0, 10.0)

    # One client thread and a scripted clock: request i is sent at i s
    # and answered samples_ms[i] later.
    ticks = iter(
        [0.0]
        + [t for i, ms in enumerate(samples_ms) for t in (float(i), i + ms / 1e3)]
        + [100.0]
    )
    clock = SimpleNamespace(perf_counter=lambda: next(ticks), sleep=time.sleep)
    monkeypatch.setattr(load, "time", clock)
    monkeypatch.setattr(load, "post_json", lambda *a, **k: (200, {"cached": True}))
    report = load.run_load("http://unused", {}, requests=10, concurrency=1)
    assert (report["latency_ms"]["p50"], report["latency_ms"]["p95"]) == (6.0, 10.0)


def test_ledger_record_summarises_and_deduplicates(tmp_path):
    service = make_service(tmp_path)
    try:
        run(service.handle(MAP_PAYLOAD))
        run(service.handle(MAP_PAYLOAD))
        record = service.ledger_record(config={"port": 0})
    finally:
        service.close()
    assert record is not None
    assert record["schema"] == "repro-ledger/1"
    assert record["command"] == "serve"
    assert record["metrics"]["serve.requests"] == 2
    assert record["metrics"]["serve.cache_hits"] == 1
    assert record["metrics"]["serve.computed"] == 1
    assert record["extra"]["stats"]["schema"] == STATS_SCHEMA
    # No new traffic since the last record: nothing to log.
    assert service.ledger_record(config={"port": 0}) is None


def test_invalid_limits_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        SchedulingService(str(tmp_path), max_workers=0)
    with pytest.raises(ConfigurationError):
        SchedulingService(str(tmp_path), max_pending=0)
