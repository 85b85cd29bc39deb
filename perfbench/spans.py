"""In-memory span recording for the traced perfbench run.

The recorder wraps public callables of the library (class methods,
module functions, generator methods) from the benchmark's side and puts
the originals back when it closes, so nothing under ``src/`` knows it
is being traced.  Each call becomes one span ``(name, start, end,
parent, tag)``; spans stay in a list until :meth:`SpanRecorder.write`
dumps them as JSON lines at the end of the run.

A layer's *self time* is its span's duration minus the part of that
interval covered by its child spans (the union of the children, so
overlapping children are not subtracted twice).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

#: Index of a span's fields in the recorded tuples.
NAME, START, END, PARENT, TAG = range(5)


class SpanRecorder:
    """Collects spans from wrapped callables and explicit regions."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    @contextmanager
    def span(self, name: str, tag=None):
        """Record the enclosed block as one span."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = self.clock()
        try:
            yield index
        finally:
            end = self.clock()
            stack.pop()
            spans[index] = (name, start, end, parent, tag)

    def wrap(self, owner, attr: str, name: str, tag=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``tag`` (optional) maps the call's positional arguments to a
        value stored with the span, e.g. the heuristic's name.
        """
        original = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (
                    name, start, end, parent, tag(args) if tag else None
                )

        self._patch(owner, attr, original, wrapper)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Like :meth:`wrap` for a generator function: one span per item
        produced, covering the time spent inside the generator."""
        original = getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            inner = original(*args, **kwargs)
            while True:
                with recorder.span(name):
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                yield item

        self._patch(owner, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped callable back (latest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- output ----------------------------------------------------------
    def write(self, path: str | Path) -> int:
        """Write one JSON line per span; returns the number written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                name, start, end, parent, tag = span
                handle.write(json.dumps({
                    "id": index, "name": name, "parent": parent,
                    "start": start, "end": end, "tag": tag,
                }) + "\n")
        return len(self.spans)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Self time of every span: duration minus its children's union."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END])
            )
    return [
        (span[END] - span[START])
        - covered(children.get(index, ()), span[START], span[END])
        for index, span in enumerate(spans)
    ]


def layer_totals(spans, selfs=None) -> dict[str, dict]:
    """Per span name: call count, summed self time and summed duration."""
    if selfs is None:
        selfs = self_times(spans)
    totals: dict[str, dict] = {}
    for span, own in zip(spans, selfs):
        entry = totals.setdefault(
            span[NAME], {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        entry["calls"] += 1
        entry["self_s"] += own
        entry["total_s"] += span[END] - span[START]
    return totals


def conservation(spans, root: str, selfs=None) -> tuple[float, float]:
    """``(wall_s, layers_s)`` for the spans under every ``root`` span.

    ``wall_s`` sums the durations of the ``root`` spans (the timed
    operations); ``layers_s`` sums the self times of all spans nested
    under them.  Their ratio shows how much of the measured time the
    layer spans explain.
    """
    if selfs is None:
        selfs = self_times(spans)
    under_root: list[bool] = []
    wall = layers = 0.0
    for index, span in enumerate(spans):
        parent = span[PARENT]
        inside = parent >= 0 and (
            spans[parent][NAME] == root or under_root[parent]
        )
        under_root.append(inside)
        if span[NAME] == root:
            wall += span[END] - span[START]
        elif inside:
            layers += selfs[index]
    return wall, layers
