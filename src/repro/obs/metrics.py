"""Monotonic, aggregatable counters and timers.

Both containers are plain-dict wrappers designed for the observability
pipeline's two constraints:

* **merge determinism** — worker processes return snapshots that the
  parent merges; counter merges are commutative sums, so the merged
  totals are independent of worker scheduling (the event *stream* is
  kept deterministic separately, by merging in cell order);
* **zero dependencies** — timing uses :func:`time.perf_counter`, the
  stdlib's monotonic high-resolution clock, so wall-clock adjustments
  can never produce negative durations.
"""

from __future__ import annotations

import bisect
import time
from collections.abc import Iterator, Sequence
from collections.abc import Mapping as MappingABC
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "Counters",
    "TimerStat",
    "Timers",
    "HistogramStat",
    "Histograms",
    "nearest_rank",
    "Gauges",
    "DEFAULT_BUCKETS",
    "TIME_BUCKETS",
    "BYTE_BUCKETS",
]

#: Default histogram bucket upper bounds, tuned for small integer
#: distributions (tie-candidate counts, freeze depths, subset sizes).
#: Values land in the first bucket whose bound is >= the value; one
#: implicit overflow bucket catches everything beyond the last bound.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128,
)

#: Bucket bounds for wall-clock durations in seconds (10us .. 100s,
#: roughly half-decade steps).  By convention histogram *names* carrying
#: wall-clock values end in ``_s``; deterministic-merge assertions treat
#: them structurally (total counts) rather than byte-identically, since
#: timings differ across runs.
TIME_BUCKETS: tuple[float, ...] = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2,
    0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0,
)

#: Bucket bounds for payload sizes in bytes (64 B .. 4 GiB, powers of
#: four).  Used by the transport counters (``runner.ipc.*`` descriptor
#: sizes, ``store.*`` entry sizes) so the histogram shows at a glance
#: whether a run is shipping descriptors or payloads.
BYTE_BUCKETS: tuple[float, ...] = (
    64, 256, 1024, 4096, 16384, 65536, 262144, 1048576,
    4194304, 16777216, 67108864, 268435456, 1073741824, 4294967296,
)


class Counters:
    """Named monotonic integer counters.

    Counters only ever increase (``inc`` rejects negative increments),
    so any merged total can be trusted as an event count.
    """

    __slots__ = ("_values",)

    def __init__(self, values: MappingABC[str, int] | None = None) -> None:
        self._values: dict[str, int] = {}
        if values is not None:
            for name, value in values.items():
                self.inc(name, value)

    def inc(self, name: str, n: int = 1) -> int:
        """Add ``n >= 0`` to ``name`` (created at 0); returns the new total."""
        if n < 0:
            raise ValueError(f"counter increment must be >= 0, got {n}")
        total = self._values.get(name, 0) + n
        self._values[name] = total
        return total

    def get(self, name: str) -> int:
        """Current value of ``name`` (0 if never incremented)."""
        return self._values.get(name, 0)

    def total(self, prefix: str = "") -> int:
        """Sum of every counter whose name starts with ``prefix``."""
        return sum(v for k, v in self._values.items() if k.startswith(prefix))

    def merge(self, other: "Counters | MappingABC[str, int]") -> None:
        """Add another counter set (or plain dict) into this one."""
        items = other._values if isinstance(other, Counters) else other
        for name, value in items.items():
            self.inc(name, value)

    def as_dict(self) -> dict[str, int]:
        """Name -> value, in sorted-name order (deterministic export)."""
        return {name: self._values[name] for name in sorted(self._values)}

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._values))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Counters):
            return self._values == other._values
        if isinstance(other, MappingABC):
            return self._values == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Counters({self.as_dict()!r})"


@dataclass(frozen=True)
class TimerStat:
    """Aggregate of one named timer: call count and total/min/max seconds."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = 0.0

    def observe(self, seconds: float) -> "TimerStat":
        """Stat with one more observation folded in."""
        return TimerStat(
            count=self.count + 1,
            total=self.total + seconds,
            min=seconds if seconds < self.min else self.min,
            max=seconds if seconds > self.max else self.max,
        )

    def combine(self, other: "TimerStat") -> "TimerStat":
        return TimerStat(
            count=self.count + other.count,
            total=self.total + other.total,
            min=min(self.min, other.min),
            max=max(self.max, other.max),
        )

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class Timers:
    """Named duration aggregates fed by a monotonic clock."""

    __slots__ = ("_stats",)

    def __init__(self) -> None:
        self._stats: dict[str, TimerStat] = {}

    def record(self, name: str, seconds: float) -> None:
        """Fold one measured duration (``>= 0``) into ``name``."""
        if seconds < 0:
            raise ValueError(f"duration must be >= 0, got {seconds}")
        self._stats[name] = self._stats.get(name, TimerStat()).observe(seconds)

    @contextmanager
    def time(self, name: str):
        """Context manager measuring its block with ``perf_counter``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, time.perf_counter() - start)

    def get(self, name: str) -> TimerStat:
        return self._stats.get(name, TimerStat())

    def merge(self, other: "Timers | MappingABC[str, TimerStat]") -> None:
        items = other._stats if isinstance(other, Timers) else other
        for name, stat in items.items():
            self._stats[name] = self._stats.get(name, TimerStat()).combine(stat)

    def as_dict(self) -> dict[str, TimerStat]:
        return {name: self._stats[name] for name in sorted(self._stats)}

    def __len__(self) -> int:
        return len(self._stats)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._stats))

    def __repr__(self) -> str:
        return f"Timers({self.as_dict()!r})"


def nearest_rank(sorted_samples: Sequence[float], q: float) -> float:
    """Exact ``q``-quantile of raw ``sorted_samples`` by nearest rank:
    the sample at index ``min(n - 1, int(q * n))``, or ``0.0`` when
    there are none.  :meth:`HistogramStat.quantile` instead estimates
    a quantile from bucket counts."""
    if not sorted_samples:
        return 0.0
    return sorted_samples[min(len(sorted_samples) - 1, int(q * len(sorted_samples)))]


@dataclass(frozen=True)
class HistogramStat:
    """Fixed-bucket histogram of one named distribution.

    ``buckets`` are sorted upper bounds; ``counts`` has one entry per
    bucket plus a trailing overflow bucket (``len(buckets) + 1``).  A
    value lands in the first bucket whose bound is ``>= value``.
    Merging requires identical bucket bounds, which keeps worker-merge
    results independent of how observations were partitioned — the same
    commutative-sum argument as :class:`Counters`.
    """

    buckets: tuple[float, ...]
    counts: tuple[int, ...]
    count: int = 0
    sum: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    @classmethod
    def empty(cls, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> "HistogramStat":
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        return cls(buckets=bounds, counts=(0,) * (len(bounds) + 1))

    def _bucket_index(self, value: float) -> int:
        return bisect.bisect_left(self.buckets, value)

    def observe(self, value: float) -> "HistogramStat":
        """Stat with one more observation folded in."""
        idx = self._bucket_index(value)
        counts = list(self.counts)
        counts[idx] += 1
        return HistogramStat(
            buckets=self.buckets,
            counts=tuple(counts),
            count=self.count + 1,
            sum=self.sum + value,
            min=value if value < self.min else self.min,
            max=value if value > self.max else self.max,
        )

    def combine(self, other: "HistogramStat") -> "HistogramStat":
        if self.buckets != other.buckets:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{self.buckets} vs {other.buckets}"
            )
        return HistogramStat(
            buckets=self.buckets,
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            count=self.count + other.count,
            sum=self.sum + other.sum,
            min=min(self.min, other.min),
            max=max(self.max, other.max),
        )

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile from the bucket counts.

        Walks the cumulative counts to the bucket holding the target
        rank and interpolates linearly within it; the estimate is
        clamped to the observed ``[min, max]`` so it never invents
        values outside the data, and the overflow bucket resolves to
        ``max``.  Returns ``0.0`` for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index >= len(self.buckets):  # overflow bucket
                    return self.max
                hi = self.buckets[index]
                lo = self.buckets[index - 1] if index else min(self.min, hi)
                fraction = (rank - previous) / bucket_count
                estimate = lo + (hi - lo) * fraction
                return min(max(estimate, self.min), self.max)
        return self.max


class Histograms:
    """Named fixed-bucket histograms (merge-deterministic)."""

    __slots__ = ("_stats",)

    def __init__(self) -> None:
        self._stats: dict[str, HistogramStat] = {}

    def observe(
        self,
        name: str,
        value: float,
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        """Fold one value into ``name``.

        Bucket bounds are fixed by the *first* observation of a name
        (``DEFAULT_BUCKETS`` unless given); later ``buckets`` arguments
        for the same name are ignored, so concurrent instrumentation
        sites cannot disagree about a histogram's shape mid-run.
        """
        stat = self._stats.get(name)
        if stat is None:
            stat = HistogramStat.empty(buckets if buckets is not None else DEFAULT_BUCKETS)
        self._stats[name] = stat.observe(value)

    def get(self, name: str) -> HistogramStat | None:
        return self._stats.get(name)

    def merge(self, other: "Histograms | MappingABC[str, HistogramStat]") -> None:
        items = other._stats if isinstance(other, Histograms) else other
        for name, stat in items.items():
            mine = self._stats.get(name)
            self._stats[name] = stat if mine is None else mine.combine(stat)

    def as_dict(self) -> dict[str, HistogramStat]:
        return {name: self._stats[name] for name in sorted(self._stats)}

    def __len__(self) -> int:
        return len(self._stats)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._stats))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Histograms):
            return self._stats == other._stats
        if isinstance(other, MappingABC):
            return self._stats == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Histograms({self.as_dict()!r})"


class Gauges:
    """Named last-value gauges.

    A gauge records the most recent value of something that can go up
    *or* down (queue depth, cells remaining, current makespan).  Merge
    semantics are last-writer-wins in merge order; because the parallel
    runner merges snapshots in deterministic cell order, merged gauge
    values equal the serial run's (the final cell's write wins in both).
    """

    __slots__ = ("_values", "_updates")

    def __init__(self, values: MappingABC[str, float] | None = None) -> None:
        self._values: dict[str, float] = {}
        self._updates: dict[str, int] = {}
        if values is not None:
            for name, value in values.items():
                self.set(name, value)

    def set(self, name: str, value: float) -> None:
        """Record the current value of ``name``."""
        self._values[name] = float(value)
        self._updates[name] = self._updates.get(name, 0) + 1

    def get(self, name: str, default: float | None = None) -> float | None:
        return self._values.get(name, default)

    def updates(self, name: str) -> int:
        """How many times ``name`` has been set (0 if never)."""
        return self._updates.get(name, 0)

    def merge(self, other: "Gauges | MappingABC[str, float]") -> None:
        """Fold another gauge set in: its values overwrite ours."""
        if isinstance(other, Gauges):
            for name, value in other._values.items():
                self._values[name] = value
                self._updates[name] = (
                    self._updates.get(name, 0) + other._updates.get(name, 1)
                )
        else:
            for name, value in other.items():
                self.set(name, value)

    def as_dict(self) -> dict[str, float]:
        return {name: self._values[name] for name in sorted(self._values)}

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._values))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Gauges):
            return self._values == other._values
        if isinstance(other, MappingABC):
            return self._values == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Gauges({self.as_dict()!r})"
