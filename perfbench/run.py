"""perfbench: the repository's end-to-end and per-layer benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload iterate-512x32 --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the workload again with layer spans and reports the
per-layer metrics (see perfbench/README.md).  Report lines go to stdout
and the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 only
when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = (
    "iterate-512x32",
    "rolling-bursty-faults",
    "serve-cold",
    "serve-hot",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    source = ROOT / "src" / "repro" / "__init__.py"
    if not source.is_file():
        print(f"error: no library source at {source.parent}; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # A terminated run still unwinds, so the server subprocess is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    from common import END_TO_END
    from layers import PER_LAYER

    workdir = ROOT / ".perfbench"
    trace_path = workdir / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    trace = bool(args.trace)
    if args.workload.startswith("serve-"):
        from serving import run_serve

        result = run_serve(args.workload, args.seed, args.seconds, trace,
                           trace_path, workdir)
    else:
        from workloads import run_iterate, run_rolling

        run = run_iterate if args.workload == "iterate-512x32" else run_rolling
        result = run(args.seed, args.seconds, trace, trace_path)

    declared = PER_LAYER if trace else END_TO_END
    metrics = {}
    for name, unit in declared:
        value = float(result.metrics[name])
        if not math.isfinite(value):
            result.problems.append(f"metric {name} is not finite ({value})")
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for line in result.report:
        print(line)
    for name, entry in metrics.items():
        print(f"{name:<40} = {entry['value']:.6g} {entry['unit']}")
    for problem in result.problems:
        print(f"WRONG: {problem}")
    correct = not result.problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, int(result.attempted)),
        "failed": int(result.failed),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
