"""HTTP front end: routing, error catalogue and the load harness.

Every test binds a real server on an ephemeral loopback port and talks
raw HTTP/1.1 over ``asyncio.open_connection`` — the same wire the
``repro serve-load`` harness uses — so the routing table, the error
envelopes and the one-request-per-connection contract are all exercised
end to end without subprocesses.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro import __version__
from repro.serve.http import MAX_BODY_BYTES, start_server
from repro.serve.load import format_load_report, run_load
from repro.serve.service import SchedulingService

pytestmark = pytest.mark.serve

VALUES = [[4.0, 5.0, 5.0], [6.0, 2.0, 2.0], [5.0, 6.0, 3.0], [4.0, 1.0, 3.0]]
MAP_BODY = {"etc": {"values": VALUES}}


async def _request(
    port: int,
    method: str,
    path: str,
    payload=None,
    *,
    raw: bytes | None = None,
    headers: dict | None = None,
) -> tuple[int, dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = raw if raw is not None else (
        json.dumps(payload).encode() if payload is not None else b""
    )
    lines = [f"{method} {path} HTTP/1.1", "Host: 127.0.0.1"]
    for name, value in (headers or {"Content-Length": len(body)}).items():
        lines.append(f"{name}: {value}")
    writer.write("\r\n".join(lines).encode() + b"\r\n\r\n" + body)
    await writer.drain()
    response = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, payload_bytes = response.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(payload_bytes)


async def _with_server(work, **service_kwargs):
    """Run ``await work(port)`` against a live ephemeral server."""
    service = SchedulingService(None, **service_kwargs)
    server = await start_server(service)
    port = server.sockets[0].getsockname()[1]
    try:
        return await work(port), service
    finally:
        server.close()
        await server.wait_closed()
        service.close()


def serve(work, **service_kwargs):
    return asyncio.run(_with_server(work, **service_kwargs))


def test_healthz_and_stats():
    async def work(port):
        status, health = await _request(port, "GET", "/healthz")
        assert status == 200
        assert health == {"status": "ok", "version": __version__}
        status, stats = await _request(port, "GET", "/v1/stats")
        assert status == 200
        assert stats["schema"] == "repro-serve-stats/1"
        return stats

    stats, _service = serve(work)
    assert stats["counts"]["requests"] == 0


def test_kind_alias_routes():
    async def work(port):
        results = {}
        status, results["map"] = await _request(port, "POST", "/v1/map", MAP_BODY)
        assert status == 200
        status, results["iterate"] = await _request(
            port, "POST", "/v1/iterate", MAP_BODY
        )
        assert status == 200
        status, results["schedule"] = await _request(
            port, "POST", "/v1/schedule", {"kind": "map", **MAP_BODY}
        )
        assert status == 200
        return results

    results, service = serve(work)
    assert results["map"]["result"]["kind"] == "map"
    assert results["iterate"]["result"]["kind"] == "iterate"
    # /v1/map and an explicit kind=map /v1/schedule are the same request.
    assert results["schedule"]["key"] == results["map"]["key"]
    assert service.by_kind == {"map": 2, "iterate": 1}


def test_kind_conflict_is_400():
    async def work(port):
        return await _request(
            port, "POST", "/v1/map", {"kind": "iterate", **MAP_BODY}
        )

    (status, body), _service = serve(work)
    assert status == 400
    assert body["error"]["type"] == "validation"
    assert "serves kind 'map'" in body["error"]["message"]


def test_invalid_json_is_400():
    async def work(port):
        return await _request(
            port, "POST", "/v1/schedule", raw=b"{not json"
        )

    (status, body), _service = serve(work)
    assert status == 400
    assert body["error"]["type"] == "invalid_json"


def test_unknown_route_is_404_and_wrong_method_is_405():
    async def work(port):
        miss = await _request(port, "GET", "/v2/schedule")
        get_post = await _request(port, "GET", "/v1/schedule")
        post_get = await _request(port, "POST", "/healthz", {})
        return miss, get_post, post_get

    (miss, get_post, post_get), _service = serve(work)
    assert miss[0] == 404 and miss[1]["error"]["type"] == "not_found"
    assert get_post[0] == 405
    assert get_post[1]["error"]["type"] == "method_not_allowed"
    assert post_get[0] == 405


def test_oversized_body_is_413():
    async def work(port):
        return await _request(
            port,
            "POST",
            "/v1/schedule",
            headers={"Content-Length": MAX_BODY_BYTES + 1},
        )

    (status, body), _service = serve(work)
    assert status == 413
    assert body["error"]["type"] == "payload_too_large"


@pytest.mark.parametrize("length", ["-1", "1_0", "+2"])
def test_malformed_content_length_is_400(length):
    async def work(port):
        # A bound, so a server that waits for bytes never sent fails
        # the test instead of hanging it.
        return await asyncio.wait_for(
            _request(
                port,
                "POST",
                "/v1/schedule",
                raw=b"{}",
                headers={"Content-Length": length},
            ),
            timeout=5.0,
        )

    (status, body), _service = serve(work)
    assert status == 400
    assert body["error"]["type"] == "invalid_request"
    assert body["error"]["message"] == "bad Content-Length"


def test_validation_and_overload_pass_through():
    async def work(port):
        return await _request(port, "POST", "/v1/schedule", {"kind": "bogus"})

    (status, body), _service = serve(work)
    assert status == 400
    assert body["error"]["type"] == "validation"


def test_run_load_end_to_end(tmp_path):
    """Drive the synchronous load harness against a live cached server."""
    service = SchedulingService(str(tmp_path / "responses"), max_workers=2)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    try:
        server = asyncio.run_coroutine_threadsafe(
            start_server(service), loop
        ).result(timeout=10)
        port = server.sockets[0].getsockname()[1]
        url = f"http://127.0.0.1:{port}/v1/schedule"
        payload = {"kind": "map", **MAP_BODY}
        report = run_load(url, payload, requests=12, concurrency=3)

        async def _close():
            server.close()
            await server.wait_closed()
            stragglers = asyncio.all_tasks(loop) - {asyncio.current_task()}
            for task in stragglers:
                task.cancel()
            await asyncio.gather(*stragglers, return_exceptions=True)

        asyncio.run_coroutine_threadsafe(_close(), loop).result(timeout=10)
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()
        service.close()

    assert report["schema"] == "repro-serve-load/1"
    assert report["requests"] == 12
    assert report["ok"] == 12 and report["errors"] == 0
    # Identical requests: everything after the first wave is a cache hit
    # (at most one benign miss per concurrent worker).
    assert report["cached"] >= 12 - 3
    assert report["cached"] + report["computed"] == 12
    assert report["requests_per_s"] > 0
    text = format_load_report(report)
    assert "requests/s" in text
