"""The benchmark's declarations agree with BENCHMARK.json, and it refuses
to run without the library source."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from common import END_TO_END
from layers import PER_LAYER
from run import WORKLOADS

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_lists_match_benchmark_json():
    declared = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert declared == list(END_TO_END)
    declared = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert declared == list(PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_setup_metric_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 < b <= 0.25 for b in bounds.values())


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
