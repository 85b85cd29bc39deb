"""Pluggable kernel backends for the heuristic family.

Two kernel generations coexist in this codebase: the *reference*
implementations that transcribe the paper's figures line by line, and
the *incremental* single-instance kernels of
:mod:`repro.heuristics.kernels`.  This module gives them one seam: a
:class:`KernelBackend` is a construction policy for single-instance
heuristics (:meth:`KernelBackend.make`), and a registry resolves
backends by name — ``reference | incremental`` — so call sites
(experiment runner, study pipeline, CLI, bench) select kernels without
touching heuristic code.  The compiled kernels of
:mod:`repro.heuristics.native` are not a backend of their own: they are
how ``incremental`` runs an untraced deterministic map.

There is no stacked multi-instance path: the iterative technique drops
the makespan machine and its tasks before each remap, so after the
first mapping every instance's sub-problem has its own shape.  Map a
fleet by looping ``get_backend(name).make(heuristic).map_tasks(etc)``.

All backends are *decision-identical*: they differ only in how fast
they arrive at the same mappings, which the equivalence battery in
``tests/properties/test_kernel_equivalence.py`` enforces.
"""

from __future__ import annotations

import abc

from repro.exceptions import UnknownBackendError
from repro.heuristics.base import Heuristic, get_heuristic

__all__ = [
    "DEFAULT_BACKEND",
    "KERNELED_HEURISTICS",
    "KernelBackend",
    "ReferenceBackend",
    "IncrementalBackend",
    "register_backend",
    "get_backend",
    "backend_names",
]

#: The default backend: the incremental single-instance kernels.
DEFAULT_BACKEND = "incremental"

#: Heuristics that accept an ``incremental=`` kernel toggle; the
#: reference backend forces it off for these.
KERNELED_HEURISTICS = frozenset(
    {"min-min", "max-min", "duplex", "mct", "k-percent-best", "sufferage"}
)


class KernelBackend(abc.ABC):
    """One kernel generation: a construction policy for heuristics."""

    #: Registry name; set by concrete backends.
    name: str = ""

    @abc.abstractmethod
    def make(self, heuristic: str, **kwargs) -> Heuristic:
        """Build a single-instance heuristic wired to this backend."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class ReferenceBackend(KernelBackend):
    """The paper-transcription kernels (``incremental=False``)."""

    name = "reference"

    def make(self, heuristic: str, **kwargs) -> Heuristic:
        if heuristic in KERNELED_HEURISTICS:
            kwargs.setdefault("incremental", False)
        return get_heuristic(heuristic, **kwargs)


class IncrementalBackend(KernelBackend):
    """The default single-instance kernels (``incremental=True``)."""

    name = "incremental"

    def make(self, heuristic: str, **kwargs) -> Heuristic:
        return get_heuristic(heuristic, **kwargs)


_BACKENDS: dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Register ``backend`` under ``backend.name`` (latest wins)."""
    if not backend.name:
        raise UnknownBackendError("backend must define a non-empty name")
    _BACKENDS[backend.name] = backend
    return backend


def get_backend(name: str | KernelBackend) -> KernelBackend:
    """Resolve a backend by name; instances pass through unchanged."""
    if isinstance(name, KernelBackend):
        return name
    try:
        return _BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(_BACKENDS))
        raise UnknownBackendError(
            f"unknown kernel backend {name!r}; known backends: {known}"
        ) from None


def backend_names() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))


register_backend(ReferenceBackend())
register_backend(IncrementalBackend())
