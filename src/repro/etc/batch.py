"""Stacked batches of same-shape ETC matrices.

The paper's evaluation maps *fleets* of independent ETC instances, not
one matrix at a time.  :class:`ETCBatch` stores N same-shape instances
as one C-contiguous ``(batch, tasks, machines)`` float64 block — the
view :meth:`repro.etc.store.ETCStore.batch` hands out over a memmapped
ensemble — while :meth:`ETCBatch.instance` hands back zero-copy
:class:`~repro.etc.matrix.ETCMatrix` views for the single-instance API.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.etc.matrix import (
    ETCMatrix,
    _check_labels,
    default_machine_labels,
    default_task_labels,
)
from repro.exceptions import ETCShapeError, ETCValueError

__all__ = ["ETCBatch"]


class ETCBatch:
    """An immutable stack of same-shape, same-label ETC matrices.

    Parameters
    ----------
    values:
        Array-like of shape ``(batch, num_tasks, num_machines)``.  All
        entries must be finite and strictly positive, exactly as for
        :class:`~repro.etc.matrix.ETCMatrix`.  A float64 C-contiguous
        ndarray is adopted without copying (and marked read-only);
        anything else is converted once.
    tasks / machines:
        Optional shared labels, identical for every instance in the
        batch; default to ``t0..`` / ``m0..``.
    """

    __slots__ = ("_values", "_tasks", "_machines")

    def __init__(
        self,
        values: np.ndarray,
        tasks: Sequence[str] | None = None,
        machines: Sequence[str] | None = None,
    ) -> None:
        arr = np.asarray(values, dtype=np.float64)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        if arr.ndim != 3:
            raise ETCShapeError(
                f"ETC batch values must be 3-D, got ndim={arr.ndim}"
            )
        if 0 in arr.shape:
            raise ETCShapeError(
                f"ETC batch must be non-empty, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ETCValueError("ETC values must be finite (no NaN/inf)")
        if np.any(arr <= 0.0):
            raise ETCValueError("ETC values must be strictly positive")
        arr.setflags(write=False)
        self._values = arr
        _, num_tasks, num_machines = arr.shape
        self._tasks = (
            default_task_labels(num_tasks)
            if tasks is None
            else _check_labels(tasks, "task", num_tasks)
        )
        self._machines = (
            default_machine_labels(num_machines)
            if machines is None
            else _check_labels(machines, "machine", num_machines)
        )

    @classmethod
    def _from_trusted(
        cls,
        values: np.ndarray,
        tasks: tuple[str, ...],
        machines: tuple[str, ...],
    ) -> "ETCBatch":
        """Adopt an already-validated C-contiguous float64 block (no copy).

        The batch-side twin of :meth:`ETCMatrix._from_trusted`: skips the
        finiteness/positivity scan and label checks.  Used by
        :class:`repro.etc.store.ETCStore` to wrap ``numpy.memmap``
        windows of validated on-disk entries — re-scanning there would
        fault in every page and defeat the out-of-core layout.  Callers
        must never pass a writable array they intend to mutate.
        """
        if values.ndim != 3:
            raise ETCShapeError(
                f"trusted ETC batch values must be 3-D, got ndim={values.ndim}"
            )
        if values.dtype != np.float64 or not values.flags.c_contiguous:
            values = np.ascontiguousarray(values, dtype=np.float64)
        self = object.__new__(cls)
        if values.flags.writeable:
            values.setflags(write=False)
        self._values = values
        self._tasks = tasks
        self._machines = machines
        return self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """Read-only ``(batch, num_tasks, num_machines)`` float64 block."""
        return self._values

    @property
    def tasks(self) -> tuple[str, ...]:
        return self._tasks

    @property
    def machines(self) -> tuple[str, ...]:
        return self._machines

    @property
    def num_tasks(self) -> int:
        return self._values.shape[1]

    @property
    def num_machines(self) -> int:
        return self._values.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self._values.shape

    def __len__(self) -> int:
        return self._values.shape[0]

    # ------------------------------------------------------------------
    # Single-instance access
    # ------------------------------------------------------------------
    def instance(self, index: int) -> ETCMatrix:
        """Zero-copy :class:`ETCMatrix` view of instance ``index``.

        The view shares the stacked buffer (each leading-axis slice of
        a C-contiguous block is itself C-contiguous) and the canonical
        label tuples, so looping ``instance(b)`` over a batch allocates
        no matrix data.
        """
        batch = self._values.shape[0]
        if not -batch <= index < batch:
            raise IndexError(
                f"batch index {index} out of range for batch of {batch}"
            )
        return ETCMatrix._from_trusted(
            self._values[index], self._tasks, self._machines
        )

    def instances(self) -> Iterator[ETCMatrix]:
        """Iterate the batch as zero-copy single-instance matrices."""
        for index in range(self._values.shape[0]):
            yield self.instance(index)

    def __repr__(self) -> str:
        batch, tasks, machines = self._values.shape
        return (
            f"ETCBatch(batch={batch}, num_tasks={tasks}, "
            f"num_machines={machines})"
        )
