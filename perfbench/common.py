"""Shared result type, metric declarations and helpers for perfbench."""

from __future__ import annotations

import contextlib
import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from percentiles import median

#: End-to-end metrics every workload reports with tracing off:
#: ``(name, unit)``.  What each one measures per workload is listed in
#: perfbench/README.md; names and units match ``BENCHMARK.json``.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("quality_ratio", "ratio"),
)

#: Set-up repetitions per in-process run; ``setup_s`` is their median.
SETUP_REPEATS = 11

#: The clock of the in-process timings: CPU seconds of this process
#: (all its threads).  On a shared virtual machine wall time also counts
#: time the host ran other guests (steal) and time other processes held
#: the vCPUs; CPU time leaves both out.  A change that only overlaps work
#: across threads therefore shows no gain here.
cpu_clock = time.process_time

#: What ``reference_loop`` costs at reference speed, in milliseconds.
REFERENCE_MS = 5.0
_REFERENCE_ETC = np.random.default_rng(0).random((512, 32))


def reference_loop() -> int:
    """Fixed work in the program's mix (a Python loop and row-wise numpy
    reductions over a 512x32 array) that no change to the program moves."""
    total = 0
    for i in range(40_000):
        total += i * i % 7
    values = _REFERENCE_ETC
    for _ in range(40):
        best = values.min(axis=1)
        choice = values.argmin(axis=1)
        values = values + best[:, None] * 1e-9
    return total + int(choice.sum())


class HostSpeed:
    """How fast the host runs right now, from timings of ``reference_loop``.

    The CPU speed a shared virtual machine gets drifts with its
    neighbours' load: the same min-min run took from 92 to 118 ms in
    back-to-back 5 s windows, in plateaus of tens of seconds, and a
    minute later 60% longer.  Its ratio to ``reference_loop`` timed in
    the same windows stayed within 1.5% of 8.9.  So the benchmark times
    the reference between operations and reports every timing scaled by
    ``factor``: as it would read on a host where the reference takes
    ``REFERENCE_MS``.  The vCPUs can differ at the same moment (3.6 and
    4.7 ms), and the server's threads use both, so the samples take the
    vCPUs in turn and ``factor`` weighs each vCPU's median the same.
    """

    def __init__(self) -> None:
        self.samples: dict[int, list[float]] = {}
        self._cpus = sorted(os.sched_getaffinity(0))
        self._taken = 0

    def sample(self, times: int = 1) -> None:
        """Time the reference ``times`` times, pinned to each vCPU in
        turn; the previous affinity is restored afterwards."""
        for _ in range(times):
            cpu = self._cpus[self._taken % len(self._cpus)]
            self._taken += 1
            os.sched_setaffinity(0, {cpu})
            try:
                started = cpu_clock()
                reference_loop()
                elapsed = cpu_clock() - started
            finally:
                os.sched_setaffinity(0, self._cpus)
            self.samples.setdefault(cpu, []).append(elapsed)

    @property
    def reference_ms(self) -> float:
        """Mean over the vCPUs of each one's median reference time."""
        medians = [median(times) for times in self.samples.values()]
        return 1e3 * sum(medians) / len(medians)

    @property
    def factor(self) -> float:
        """Reference-speed seconds per measured second."""
        return REFERENCE_MS / self.reference_ms

    def report(self, res: "Result") -> None:
        res.line("host.reference_ms", self.reference_ms, "ms",
                 f"{self._taken} samples over {len(self.samples)} vCPUs; "
                 f"timings scaled by {self.factor:.4f} to {REFERENCE_MS:g} ms")


@dataclass
class Result:
    """What one workload run measured and checked."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    report: list[str] = field(default_factory=list)

    def check(self, condition: bool, message: str) -> None:
        """Record ``message`` as a wrong output unless ``condition``."""
        if not condition:
            self.problems.append(message)

    def line(self, name: str, value, unit: str = "", note: str = "") -> None:
        """Add one ``name = value unit  (note)`` line to the report."""
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        suffix = f"  ({note})" if note else ""
        self.report.append(f"{name:<40} = {text} {unit}{suffix}".rstrip())


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def span_factory(recorder):
    """``recorder.span`` when tracing, else a no-op context factory."""
    if recorder is None:
        return lambda name, tag=None: contextlib.nullcontext()
    return recorder.span


def finish_trace(res: Result, metrics: dict, check: dict, untraced: float,
                 traced: float, recorder, path: Path) -> None:
    """Overhead, conservation verdict and span dump of a traced run."""
    metrics["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    res.metrics.update(metrics)
    res.check(
        check["ok"],
        f"conservation: layer self times {check['layers_s']:.4f}s vs "
        f"wall {check['wall_s']:.4f}s (ratio {check['ratio']:.3f})",
    )
    res.line("trace.untraced_ms", untraced * 1e3, "ms")
    res.line("trace.traced_ms", traced * 1e3, "ms")
    res.line("trace.overhead_pct", metrics["trace.overhead_pct"], "%")
    res.line("trace.conservation", check["ratio"], "",
             f"layers {check['layers_s'] * 1e3:.1f} ms of wall "
             f"{check['wall_s'] * 1e3:.1f} ms")
    written = recorder.write(path)
    res.line("trace.spans", written, "", str(path))
