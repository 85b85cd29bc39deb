"""Repository-consistency tests: documentation must match reality.

These keep DESIGN.md / EXPERIMENTS.md / README.md honest: every module
and bench file they reference must exist, and the examples they promise
must be runnable scripts.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parent.parent


def _read(name: str) -> str:
    return (REPO / name).read_text(encoding="utf-8")


class TestDesignDocument:
    def test_referenced_bench_files_exist(self):
        text = _read("DESIGN.md")
        for match in set(re.findall(r"benchmarks/(test_bench_\w+\.py)", text)):
            assert (REPO / "benchmarks" / match).exists(), match

    def test_referenced_modules_exist(self):
        text = _read("DESIGN.md")
        for match in set(re.findall(r"`repro/([\w/]+\.py)`", text)):
            assert (REPO / "src" / "repro" / match).exists(), match

    def test_paper_identity_check_present(self):
        assert "Paper identity check" in _read("DESIGN.md")

    def test_substitution_table_present(self):
        assert "Substitutions" in _read("DESIGN.md")


class TestExperimentsDocument:
    def test_references_real_benches(self):
        text = _read("EXPERIMENTS.md")
        for match in set(re.findall(r"(test_bench_\w+)\.py", text)):
            assert (REPO / "benchmarks" / f"{match}.py").exists(), match

    def test_every_worked_example_covered(self):
        text = _read("EXPERIMENTS.md")
        for token in ("Min-Min", "MCT", "MET", "SWA", "K-Percent Best",
                      "Sufferage", "Genitor"):
            assert token in text, token


class TestReadme:
    def test_examples_table_matches_directory(self):
        text = _read("README.md")
        for match in set(re.findall(r"examples/(\w+\.py)", text)):
            assert (REPO / "examples" / match).exists(), match

    def test_design_and_experiments_linked(self):
        text = _read("README.md")
        assert "DESIGN.md" in text
        assert "EXPERIMENTS.md" in text

    def test_quickstart_block_executes(self):
        """Extract the first python code block and run it."""
        text = _read("README.md")
        match = re.search(r"```python\n(.*?)```", text, re.DOTALL)
        assert match, "README must contain a python quickstart block"
        code = match.group(1)
        exec_globals: dict = {}
        exec(compile(code, "<README quickstart>", "exec"), exec_globals)


class TestChangelog:
    def test_top_entry_is_the_package_version(self):
        match = re.search(r"^## (\d+\.\d+\.\d+)\s*$", _read("CHANGELOG.md"), re.M)
        assert match, "CHANGELOG.md needs a '## x.y.z' entry"
        assert match.group(1) == repro.__version__


class TestExamplesRunnable:
    @pytest.mark.parametrize(
        "script",
        ["quickstart.py", "production_batch.py", "paper_walkthrough.py",
         "dynamic_cluster.py", "preloaded_cluster.py"],
    )
    def test_example_runs_clean(self, script):
        proc = subprocess.run(
            [sys.executable, str(REPO / "examples" / script)],
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip(), "example produced no output"

    def test_every_example_has_main_guard_and_docstring(self):
        for path in (REPO / "examples").glob("*.py"):
            text = path.read_text(encoding="utf-8")
            assert '__name__ == "__main__"' in text, path.name
            assert text.lstrip().startswith(("#!", '"""')), path.name
