"""The compiled kernels' loader: fallback, threads and packaging."""

import logging
import shutil
import sys
import threading
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from repro.core.iterative import IterativeScheduler
from repro.etc.generation import generate_range_based
from repro.heuristics import get_heuristic, native
from tests.properties import test_kernel_equivalence as battery

HEURISTICS = ("min-min", "max-min", "mct", "k-percent-best", "sufferage")

needs_compiler = pytest.mark.skipif(
    not any(shutil.which(cc) for cc in ("cc", "gcc", "clang")),
    reason="no C compiler on PATH",
)


def _outcome(heuristic: str, etc):
    mapping = get_heuristic(heuristic).map_tasks(etc)
    return [(a.task, a.machine, a.start, a.completion) for a in mapping.assignments]


@needs_compiler
def test_kernels_load_lazily():
    assert native.kernels() is not None
    with native.python_kernels():
        assert native.kernels() is None
        with native.python_kernels():
            assert native.kernels() is None
        assert native.kernels() is None
    assert native.kernels() is not None


def test_compile_failure_logs_once_and_falls_back(tmp_path, monkeypatch, caplog):
    broken = tmp_path / "_kernels.c"
    broken.write_text("this is not C\n")
    monkeypatch.setattr(native, "_SOURCE", broken)
    monkeypatch.setattr(native, "_library", None)
    with caplog.at_level(logging.DEBUG, logger="repro"):
        etc = generate_range_based(24, 4, rng=1)
        for heuristic in HEURISTICS:
            with native.python_kernels():
                expected = _outcome(heuristic, etc)
            assert _outcome(heuristic, etc) == expected
            IterativeScheduler(get_heuristic(heuristic)).run(etc).final_mapping()
        assert native.kernels() is None
        # The equivalence batteries, with every untraced run on Python.
        for name in sorted(battery.PATH_FACTORIES):
            battery.test_paths_agree(name=name)
            battery.test_paths_agree_iterative(name=name)
    records = [r for r in caplog.records if r.name == "repro"]
    assert len(records) == 1
    assert records[0].levelno == logging.WARNING
    assert "Python kernels" in records[0].getMessage()
    assert not list(tmp_path.glob("__pycache__/*"))  # no partial library left


@needs_compiler
def test_threads_mapping_at_once_agree(monkeypatch):
    etc = generate_range_based(256, 16, rng=3)
    expected = {h: _outcome(h, etc) for h in HEURISTICS}
    # More threads than cores race for the first load, then map side by
    # side with frequent switches.
    monkeypatch.setattr(native, "_library", None)
    workers = 4
    barrier = threading.Barrier(workers)
    results: dict[int, dict] = {}

    def work(slot: int) -> None:
        barrier.wait(timeout=30)
        results[slot] = {h: _outcome(h, etc) for h in HEURISTICS}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [results[slot] for slot in range(workers)] == [expected] * workers
    assert native.kernels() is not None


@needs_compiler
def test_operands_are_validated():
    library = native.kernels()
    etc = generate_range_based(8, 3, rng=2)
    ready = np.zeros(3)
    with pytest.raises(ValueError):
        native.mct(library, etc.values, np.zeros(4))
    with pytest.raises(ValueError):
        native.two_phase(library, etc.values, np.zeros(3, dtype=np.float32), 1)
    with pytest.raises(ValueError):
        native.sufferage(library, etc.values.astype(np.float32), ready)
    with pytest.raises(ValueError):
        native.mct(library, etc.values, ready, np.full((8, 2), 3, dtype=np.int64))
    # A strided view is accepted and maps like its contiguous copy.
    wide = generate_range_based(8, 6, rng=2).values[:, ::2]
    strided = native.two_phase(library, wide, np.zeros(3), 1)
    copied = native.two_phase(library, np.ascontiguousarray(wide), np.zeros(3), 1)
    assert all((a == b).all() for a, b in zip(strided, copied))


def test_source_ships_as_package_data():
    source = resources.files("repro.heuristics").joinpath("_kernels.c")
    assert source.is_file()
    assert "rk_two_phase" in source.read_text()
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text())
    package_data = config["tool"]["setuptools"]["package-data"]
    assert "_kernels.c" in package_data["repro.heuristics"]
