"""Package-level contract tests: public API surface and metadata."""

import importlib

import pytest

import repro


class TestTopLevelAPI:
    def test_version(self):
        assert repro.__version__ == "1.9.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.etc",
            "repro.core",
            "repro.heuristics",
            "repro.sim",
            "repro.analysis",
            "repro.cli",
            "repro.exceptions",
        ],
    )
    def test_subpackage_all_exports_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_quickstart_from_docstring_runs(self):
        """The module docstring's quickstart must actually work."""
        from repro import (
            ETCMatrix,
            IterativeScheduler,
            compare_iterative,
            get_heuristic,
        )

        etc = ETCMatrix([[4, 5, 5], [6, 2, 2], [5, 6, 3], [4, 1, 3]])
        result = IterativeScheduler(get_heuristic("min-min")).run(etc)
        comp = compare_iterative(result)
        assert comp.heuristic == "min-min"

    def test_exceptions_hierarchy(self):
        from repro.exceptions import (
            ConfigurationError,
            ETCError,
            LabelError,
            MappingError,
            ReproError,
            SimulationError,
            UnknownHeuristicError,
        )

        for exc in (
            ETCError,
            MappingError,
            SimulationError,
            ConfigurationError,
            UnknownHeuristicError,
        ):
            assert issubclass(exc, ReproError)
        assert issubclass(LabelError, KeyError)
        assert issubclass(UnknownHeuristicError, KeyError)
        assert issubclass(ConfigurationError, ValueError)

    def test_paper_heuristics_constant(self):
        from repro import PAPER_HEURISTICS, get_heuristic

        assert len(PAPER_HEURISTICS) == 7
        for name in PAPER_HEURISTICS:
            assert get_heuristic(name).name == name

    def test_no_heavy_imports_at_package_import(self):
        """The core package must not drag in matplotlib/scipy/etc."""
        import sys

        assert "matplotlib" not in sys.modules
        assert "scipy" not in sys.modules
