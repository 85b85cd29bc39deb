"""Open-loop HTTP load generator: one process, one asyncio thread.

Request ``i`` of a phase is *due* at ``t0 + i / rate`` whatever happened
to earlier requests; ``rate=math.inf`` makes every request due at once,
which keeps the connections saturated (a capacity measurement).  A
request is sent as soon as it is due and one of at most ``max_conns``
connection slots is free; when the slots are busy it waits,
so a stalled server makes later requests late instead of silently
lowering the offered load.  Latency runs from the due time (it includes
that wait), and each request's *lateness* (send time minus due time)
is reported so a generator that could not keep up is visible.

A request that is refused, times out or gets a non-200 status is a
failure; its latency is ``math.inf`` so it misses any latency limit.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field

from percentiles import beyond, median


@dataclass
class Phase:
    """Outcome of one open-loop phase at a fixed rate."""

    name: str
    rate: float
    planned: int
    latency_s: list[float] = field(default_factory=list)
    late_s: list[float] = field(default_factory=list)
    connect_s: list[float] = field(default_factory=list)
    service_s: list[float] = field(default_factory=list)
    bodies: dict[int, bytes] = field(default_factory=dict)
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: From the first due time to the last response.
    span_s: float = 0.0

    @property
    def sent(self) -> int:
        return len(self.latency_s)

    @property
    def succeeded(self) -> int:
        return self.sent - self.failed

    @property
    def achieved_rps(self) -> float:
        """Responses per second from the first due time to the last
        response (failed requests excluded)."""
        if not self.succeeded:
            return 0.0
        return self.succeeded / self.span_s

    def meets(self, limit_s: float, level: int = 95) -> bool:
        """Whether the phase sustained its rate.

        The ``level`` percentile of latency (failures count as misses)
        must be within ``limit_s``, no request may fail, and the backlog
        must not grow: the last tenth of the requests must not be sent
        later than half the limit (median lateness).
        """
        if self.failed:
            return False
        missed = sum(1 for value in self.latency_s if value > limit_s)
        if missed > beyond(self.planned, level):
            return False
        tail = self.late_s[-max(1, self.planned // 10):]
        return median(tail) <= limit_s / 2.0


async def run_phase(
    send,
    count: int,
    rate: float,
    *,
    name: str = "phase",
    max_conns: int = 2,
    clock=time.perf_counter,
) -> Phase:
    """Drive ``count`` requests at ``rate`` per second through ``send``.

    ``send(i)`` is a coroutine returning ``(status, body, connect_s)``
    for request ``i``; it raises ``OSError`` or ``asyncio.TimeoutError``
    when the request fails.
    """
    phase = Phase(name=name, rate=rate, planned=count)
    slots = asyncio.Semaphore(max_conns)
    tasks: list[asyncio.Task] = []
    late = [0.0] * count
    latency = [0.0] * count
    service = [0.0] * count

    async def one(index: int, due: float, sent: float) -> None:
        try:
            status, body, connect = await send(index)
        except (OSError, asyncio.TimeoutError, EOFError) as exc:
            status, body, connect = None, b"", None
            phase.errors.append(f"request {index}: {type(exc).__name__}: {exc}")
        finally:
            done = clock()
            slots.release()
        late[index] = sent - due
        service[index] = done - sent
        if connect is not None:
            phase.connect_s.append(connect)
        if status == 200:
            latency[index] = done - due
            phase.bodies[index] = body
        else:
            latency[index] = math.inf
            phase.failed += 1
            if status is not None:
                phase.errors.append(f"request {index}: HTTP {status}")

    start = clock()
    for index in range(count):
        due = start + index / rate
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        await slots.acquire()
        tasks.append(asyncio.create_task(one(index, due, clock())))
    await asyncio.gather(*tasks)
    phase.span_s = clock() - start
    phase.late_s, phase.latency_s, phase.service_s = late, latency, service
    return phase


def http_sender(host: str, port: int, requests, *, timeout: float = 30.0):
    """A ``send(i)`` coroutine POSTing ``requests[i] = (path, body)``.

    Every request opens its own connection (the service answers one
    request per connection); the body of the response is returned raw.
    """

    async def send(index: int):
        path, body = requests[index]
        head = (
            f"POST {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        ).encode("ascii")
        started = time.perf_counter()
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
        connect = time.perf_counter() - started
        try:
            writer.write(head + body)
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
        head_end = raw.find(b"\r\n\r\n")
        if not raw.startswith(b"HTTP/1.1 ") or head_end < 0:
            raise EOFError(f"malformed response ({len(raw)} bytes)")
        status = int(raw[9:12])
        return status, raw[head_end + 4:], connect

    return send
