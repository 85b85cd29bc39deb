import asyncio
import math

from openloop import http_sender, run_phase


def ok_after(delay):
    async def send(index):
        await asyncio.sleep(delay)
        return 200, b"{}", 0.0
    return send


def test_paced_requests_leave_on_schedule():
    phase = asyncio.run(run_phase(ok_after(0.0), 20, 100.0))
    assert phase.sent == phase.succeeded == 20
    # 20 requests due 10 ms apart: the last is due at 190 ms.
    assert 0.18 <= phase.span_s < 1.0
    assert 20 < phase.achieved_rps <= 20 / 0.19
    assert max(phase.late_s) < 0.05
    assert phase.meets(1.0)


def test_a_stall_makes_later_requests_late_and_counts_the_wait():
    # One connection, 50 ms per request, one due every 10 ms: request i
    # cannot leave before i * 50 ms, so it is about i * 40 ms late.
    phase = asyncio.run(run_phase(ok_after(0.05), 10, 100.0, max_conns=1))
    assert phase.late_s[0] < 0.02
    assert phase.late_s[-1] > 0.3
    assert all(b >= a for a, b in zip(phase.late_s, phase.late_s[1:]))
    for late, latency in zip(phase.late_s, phase.latency_s):
        assert latency >= late + 0.045
    assert not phase.meets(0.2)


def test_refused_and_failed_requests_miss_the_limit():
    async def send(index):
        if index % 2:
            raise ConnectionRefusedError("refused")
        return (503 if index == 4 else 200), b"{}", 0.0

    phase = asyncio.run(run_phase(send, 10, 200.0))
    assert phase.failed == 6
    assert phase.succeeded == 4
    assert sum(math.isinf(v) for v in phase.latency_s) == 6
    assert len(phase.errors) == 6
    assert not phase.meets(10.0)


def test_unpaced_phase_saturates_the_connections():
    # Everything is due at once: two connections, 20 ms each, so ten
    # requests take about 100 ms and later ones wait longer.
    phase = asyncio.run(run_phase(ok_after(0.02), 10, math.inf))
    assert phase.succeeded == 10
    assert 0.09 <= phase.span_s < 0.5
    assert phase.late_s[-1] > phase.late_s[0] + 0.06
    assert phase.achieved_rps < 2 / 0.02 * 1.05


def test_http_sender_posts_and_parses_the_status():
    received = []

    async def handler(reader, writer):
        head = await reader.readuntil(b"\r\n\r\n")
        length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
        received.append(await reader.readexactly(length))
        writer.write(b"HTTP/1.1 201 Created\r\nContent-Length: 2\r\n"
                     b"Connection: close\r\n\r\n{}")
        await writer.drain()
        writer.close()

    async def main():
        server = await asyncio.start_server(handler, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            send = http_sender("127.0.0.1", port, [("/v1/x", b'{"a": 1}')])
            return await send(0)
        finally:
            server.close()
            await server.wait_closed()

    status, body, connect = asyncio.run(main())
    assert (status, body) == (201, b"{}")
    assert connect >= 0
    assert received == [b'{"a": 1}']
