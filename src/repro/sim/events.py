"""Event primitives for the discrete-event simulator.

A minimal, allocation-light event core: events are ordered by
``(time, priority, seq)`` where ``seq`` is a monotonically increasing
tiebreaker guaranteeing FIFO order among simultaneous events — the
property that makes simulator runs deterministic and reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import SimulationError

__all__ = ["Event", "EventQueue"]


@dataclass(frozen=True, order=False)
class Event:
    """A scheduled simulator event.

    ``kind`` is a free-form string dispatched on by the engine's
    handlers; ``payload`` carries event-specific data.
    """

    time: float
    kind: str
    payload: Any = None
    priority: int = 0
    seq: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if self.time < 0 or self.time != self.time:  # negative or NaN
            raise SimulationError(f"invalid event time {self.time!r}")


class EventQueue:
    """A stable priority queue of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()

    def push(self, event: Event) -> Event:
        """Enqueue ``event``; returns the sequenced copy actually stored."""
        seq = next(self._counter)
        stamped = Event(
            time=event.time,
            kind=event.kind,
            payload=event.payload,
            priority=event.priority,
            seq=seq,
        )
        heapq.heappush(self._heap, (stamped.time, stamped.priority, seq, stamped))
        return stamped

    def pop(self) -> Event:
        """Dequeue the earliest event (FIFO among simultaneous ones)."""
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        return heapq.heappop(self._heap)[3]

    def peek_time(self) -> float | None:
        """Time of the next event, or ``None`` when empty."""
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

