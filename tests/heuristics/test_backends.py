"""The kernel-backend registry and its construction semantics."""

import pytest

from repro.exceptions import UnknownBackendError
from repro.heuristics.backends import (
    DEFAULT_BACKEND,
    KERNELED_HEURISTICS,
    IncrementalBackend,
    KernelBackend,
    ReferenceBackend,
    _BACKENDS,
    backend_names,
    get_backend,
    register_backend,
)
from repro.heuristics.kpb import KPercentBest
from repro.heuristics.met import MET
from repro.heuristics.minmin import MinMin


class TestRegistry:
    def test_default_backends_registered(self):
        assert backend_names() == ("incremental", "reference")

    def test_default_backend_name_is_registered(self):
        assert DEFAULT_BACKEND in backend_names()

    def test_get_backend_resolves_each_name(self):
        assert isinstance(get_backend("reference"), ReferenceBackend)
        assert isinstance(get_backend("incremental"), IncrementalBackend)

    def test_unknown_backend_raises_with_known_names(self):
        with pytest.raises(UnknownBackendError, match="compiled"):
            get_backend("compiled")
        with pytest.raises(UnknownBackendError, match="incremental, reference"):
            get_backend("nope")

    def test_unknown_backend_error_is_key_error(self):
        # KeyError ancestry so dict-style callers can catch it idiomatically.
        with pytest.raises(KeyError):
            get_backend("nope")

    def test_backend_instances_pass_through(self):
        backend = get_backend("reference")
        assert get_backend(backend) is backend

    def test_register_backend_requires_name(self):
        class Nameless(IncrementalBackend):
            name = ""

        with pytest.raises(UnknownBackendError):
            register_backend(Nameless())

    def test_register_backend_latest_wins(self):
        class Custom(IncrementalBackend):
            name = "custom-test-backend"

        try:
            first, second = Custom(), Custom()
            assert register_backend(first) is first
            register_backend(second)
            assert get_backend("custom-test-backend") is second
            assert "custom-test-backend" in backend_names()
        finally:
            _BACKENDS.pop("custom-test-backend", None)

    def test_repr_names_the_backend(self):
        assert "reference" in repr(get_backend("reference"))


class TestMake:
    def test_reference_forces_reference_kernels(self):
        heuristic = get_backend("reference").make("min-min")
        assert isinstance(heuristic, MinMin)
        assert heuristic.incremental is False

    def test_reference_respects_explicit_incremental(self):
        # An explicit caller choice must survive the reference default.
        heuristic = get_backend("reference").make("min-min", incremental=True)
        assert heuristic.incremental is True

    def test_incremental_keeps_registry_defaults(self):
        assert get_backend("incremental").make("min-min").incremental is True

    def test_make_forwards_kwargs(self):
        heuristic = get_backend("incremental").make("k-percent-best", percent=30.0)
        assert isinstance(heuristic, KPercentBest)
        assert heuristic.percent == 30.0

    def test_reference_make_skips_flag_for_unkerneled_heuristics(self):
        # MET has a single implementation — no ``incremental`` toggle to
        # force; make() must not invent one.
        assert "met" not in KERNELED_HEURISTICS
        assert isinstance(get_backend("reference").make("met"), MET)

    def test_kernel_backend_is_abstract(self):
        with pytest.raises(TypeError):
            KernelBackend()
