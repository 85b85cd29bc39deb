"""Compiled whole-run kernels for Min-Min/Max-Min, MCT/KPB and Sufferage.

The incremental kernels run in Python one decision at a time.  Under the
deterministic tie policy with no tracer listening, nobody needs the
per-decision state, so a whole map can run in C instead:
``_kernels.c`` beside this module holds one entry point per kernel
family, and each writes the run's commits (task rows, machine columns,
start times) into arrays that :meth:`repro.core.schedule.Mapping._commit_run`
adopts in one step.  Decisions are identical to the Python kernels; the
equivalence batteries run all three paths (reference, Python
incremental, compiled).

The source is compiled on the first call of :func:`kernels`, not at
import, into ``__pycache__/`` beside it, under a name keyed by the
SHA-256 of the source and the compiler flags; later processes load the
cached library.  Compiling goes through a temporary name and
:func:`os.replace`, so concurrent processes never see a partial file.
When no compiler is present or compiling fails, one line goes to the
``repro`` logger and every caller keeps running the Python kernels.

The library is loaded with :class:`ctypes.CDLL`, which releases the GIL
around each call, and the kernels keep no state: threads mapping at once
run in parallel.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # ctypes and the build tools load with the library
    import ctypes

__all__ = ["kernels", "python_kernels", "two_phase", "mct", "sufferage"]

_SOURCE = Path(__file__).with_name("_kernels.c")
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared", "-std=c99")

_lock = threading.Lock()
#: ``None`` until the first call; then the loaded library or ``False``.
_library: ctypes.CDLL | bool | None = None
#: Depth of nested :func:`python_kernels` blocks.
_suppressed = 0


def kernels() -> ctypes.CDLL | None:
    """The compiled kernels, or ``None`` when the Python ones must run."""
    if _suppressed:
        return None
    library = _library
    if library is None:
        library = _load()
    return library or None


@contextmanager
def python_kernels():
    """Run the Python incremental kernels inside the block.

    For like-for-like measurements against paths that cannot use the
    compiled kernels (traced runs) and for tests of all three paths.
    Process-wide: it affects every thread while the block is open.
    """
    global _suppressed
    with _lock:
        _suppressed += 1
    try:
        yield
    finally:
        with _lock:
            _suppressed -= 1


def _load() -> ctypes.CDLL | bool:
    import ctypes
    import logging
    import subprocess

    global _library
    with _lock:
        if _library is None:
            try:
                _library = _bind(ctypes.CDLL(str(_build())))
            except (OSError, subprocess.SubprocessError) as exc:
                logging.getLogger("repro").warning(
                    "compiled kernels unavailable, using the Python kernels: %s",
                    exc,
                )
                _library = False
        return _library


def _build() -> Path:
    """Path of the compiled library, compiling it when not cached."""
    import hashlib
    import platform
    import shutil
    import subprocess

    source = _SOURCE.read_bytes()
    key = hashlib.sha256(source + " ".join(_FLAGS).encode()).hexdigest()[:16]
    target = _SOURCE.parent / "__pycache__" / (
        f"_kernels.{key}.{platform.machine()}.so"
    )
    if target.exists():
        return target
    compiler = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if compiler is None:
        raise OSError("no C compiler (cc, gcc or clang) on PATH")
    target.parent.mkdir(exist_ok=True)
    partial = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        subprocess.run(
            [compiler, *_FLAGS, "-o", str(partial), str(_SOURCE)],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(partial, target)
    except subprocess.CalledProcessError as exc:
        detail = exc.stderr.decode(errors="replace").strip().splitlines()
        raise OSError(f"{compiler} failed: {detail[0] if detail else exc}") from None
    finally:
        partial.unlink(missing_ok=True)
    return target


def _bind(library: ctypes.CDLL) -> ctypes.CDLL:
    import ctypes

    _I64, _PTR = ctypes.c_int64, ctypes.c_void_p
    library.rk_two_phase.argtypes = (
        [_PTR, _I64, _I64, _I64, ctypes.c_int] + [_PTR] * 6
    )
    library.rk_two_phase.restype = None
    library.rk_mct.argtypes = [_PTR, _I64, _I64, _I64, _PTR, _I64] + [_PTR] * 4
    library.rk_mct.restype = None
    library.rk_sufferage.argtypes = [_PTR, _I64, _I64, _I64] + [_PTR] * 9
    library.rk_sufferage.restype = _I64
    return library


def _address(array: np.ndarray) -> int:
    return array.__array_interface__["data"][0]


def _operands(values: np.ndarray, ready: np.ndarray, slots: int, extra: int = 0):
    """``values`` with unit column stride, its row stride, and one
    scratch buffer of ``slots`` 8-byte arrays of ``T`` entries each
    (plus ``extra`` entries at the end), with its address.

    The first three slots receive the run's rows, columns and starts;
    one buffer keeps the per-call address lookups to three.  Raises
    ``ValueError`` unless ``values`` is a 2-D float64 array and
    ``ready`` a contiguous float64 vector with one entry per column.
    """
    if values.dtype != np.float64 or values.ndim != 2:
        raise ValueError("values must be a 2-D float64 array")
    if (
        ready.dtype != np.float64
        or ready.shape != (values.shape[1],)
        or not ready.flags.c_contiguous
        or not ready.flags.writeable
    ):
        raise ValueError("ready must be a writeable contiguous float64 vector")
    if values.strides[1] != values.itemsize or values.strides[0] % values.itemsize:
        values = np.ascontiguousarray(values)
    buffer = np.empty(slots * values.shape[0] + extra, dtype=np.float64)
    return values, values.strides[0] // values.itemsize, buffer, _address(buffer)


def _commits(buffer: np.ndarray, num_tasks: int):
    """The ``(rows, cols, starts)`` slots of a kernel's scratch buffer."""
    return (
        buffer[:num_tasks].view(np.int64),
        buffer[num_tasks : 2 * num_tasks].view(np.int64),
        buffer[2 * num_tasks : 3 * num_tasks],
    )


def two_phase(
    library: ctypes.CDLL, values: np.ndarray, ready: np.ndarray, sign: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Min-Min (``sign=+1``) or Max-Min (``-1``) over ``values``.

    Returns ``(rows, cols, starts)`` in commit order and advances the
    float64 vector ``ready`` in place to the final ready times.
    """
    values, ld, buffer, at = _operands(values, ready, 5)
    num_tasks, num_machines = values.shape
    step = 8 * num_tasks
    library.rk_two_phase(
        _address(values), ld, num_tasks, num_machines, sign, _address(ready),
        at, at + step, at + 2 * step, at + 3 * step, at + 4 * step,
    )
    return _commits(buffer, num_tasks)


def mct(
    library: ctypes.CDLL,
    values: np.ndarray,
    ready: np.ndarray,
    subsets: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """MCT over ``values``; K-Percent Best when ``subsets`` (a C-ordered
    int64 ``(T, k)`` array of ascending machine columns) is given.

    Returns ``(rows, cols, starts)`` and advances ``ready`` in place.
    """
    values, ld, buffer, at = _operands(values, ready, 3)
    num_tasks, num_machines = values.shape
    if subsets is None:
        pointer, size = None, num_machines
    else:
        if (
            subsets.dtype != np.int64
            or subsets.ndim != 2
            or subsets.shape[0] != num_tasks
            or not 1 <= subsets.shape[1] <= num_machines
            or not subsets.flags.c_contiguous
            or subsets.min() < 0
            or subsets.max() >= num_machines
        ):
            raise ValueError("subsets must be a C-ordered int64 (T, k) array of columns")
        pointer, size = _address(subsets), subsets.shape[1]
    step = 8 * num_tasks
    library.rk_mct(
        _address(values), ld, num_tasks, num_machines, pointer, size,
        _address(ready), at, at + step, at + 2 * step,
    )
    return _commits(buffer, num_tasks)


def sufferage(
    library: ctypes.CDLL, values: np.ndarray, ready: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sufferage over ``values``.

    Returns ``(rows, cols, starts, bounds)``, where ``bounds[p]`` is the
    number of commits after pass ``p``, and advances ``ready`` in place.
    """
    # Slots: rows, cols, starts, bounds, pending, chosen, suff; then the
    # M-entry holder array.
    values, ld, buffer, at = _operands(values, ready, 7, values.shape[1])
    num_tasks, num_machines = values.shape
    step = 8 * num_tasks
    passes = library.rk_sufferage(
        _address(values), ld, num_tasks, num_machines, _address(ready),
        *(at + slot * step for slot in range(8)),
    )
    bounds = buffer[3 * num_tasks : 3 * num_tasks + passes].view(np.int64)
    return (*_commits(buffer, num_tasks), bounds)
