"""Order statistics used by every perfbench workload.

Timings are reported as a median plus the highest percentile that has at
least ``MIN_BEYOND`` samples beyond it, together with the sample count:
a p95 over 40 samples rests on two values and says little, so the level
follows the sample size instead of being fixed.  Failed operations enter
the sample as ``math.inf`` so they count as missing any latency limit.
"""

from __future__ import annotations

import math

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(values, level: float) -> float:
    """Nearest-rank percentile (``level`` in 0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(level / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, level: int) -> int:
    """Samples strictly beyond the nearest-rank ``level`` percentile."""
    return count - max(1, math.ceil(level / 100.0 * count))


def tail_level(count: int) -> int | None:
    """Highest integer percentile with ``MIN_BEYOND`` samples beyond it,
    or ``None`` when the sample is too small for any."""
    for level in range(99, 0, -1):
        if beyond(count, level) >= MIN_BEYOND:
            return level
    return None


def tail(values) -> tuple[int, float, int] | None:
    """``(level, value, count)`` for the highest supported percentile."""
    values = list(values)
    level = tail_level(len(values))
    if level is None:
        return None
    return level, percentile(values, level), len(values)


def median(values) -> float:
    """Median (mean of the middle pair for even counts)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0
