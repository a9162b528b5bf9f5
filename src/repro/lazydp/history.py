"""The HistoryTable (paper Algorithm 1, lines 1-2 and 13-16).

Tracks, per embedding row, the latest iteration whose noise has been
applied.  The paper explicitly rejects the naive per-row *counter* design —
incrementing a counter for every non-accessed row would itself be a dense
write — in favour of storing the last-updated iteration ID and deriving the
number of delayed updates by subtraction, so writes stay proportional to
the sparse access footprint (Section 5.2.1).

Storage is 4 bytes per row (int32), matching the paper's Section 7.2
overhead arithmetic (751 MB for the 96 GB model).
"""

from __future__ import annotations

import numpy as np


class HistoryTable:
    """Last-noise-updated iteration per embedding row."""

    BYTES_PER_ENTRY = 4

    def __init__(self, num_rows: int):
        if num_rows < 1:
            raise ValueError("num_rows must be positive")
        # Zero means "all noise through iteration 0 applied", i.e. none —
        # iterations are 1-based (Algorithm 1's loop runs iter = 1..N).
        self._last_updated = np.zeros(num_rows, dtype=np.int32)

    @classmethod
    def attach(cls, storage: np.ndarray) -> "HistoryTable":
        """A HistoryTable over caller-owned int32 storage, zero-copy.

        The process-shard backend (``repro.procshard``) places each
        table's history in ``multiprocessing.shared_memory`` so the
        router and the shard worker owning a row range read and advance
        the *same* entries; both sides wrap their mapping of the segment
        with ``attach``.  The storage must be a writable, C-contiguous
        int32 vector; it is used in place, never copied, and the caller
        keeps responsibility for its lifetime.
        """
        storage = np.asarray(storage)
        if storage.dtype != np.int32 or storage.ndim != 1:
            raise ValueError("attach expects a 1-D int32 vector")
        if storage.size < 1:
            raise ValueError("num_rows must be positive")
        if not storage.flags.writeable or not storage.flags.c_contiguous:
            raise ValueError("attach expects writable contiguous storage")
        table = cls.__new__(cls)
        table._last_updated = storage
        return table

    def window(self, lo: int, hi: int) -> "HistoryTable | None":
        """Rows ``[lo, hi)`` as a HistoryTable of their own, zero-copy:
        a shard's window, addressed by ``row - lo`` (``None``: no rows)."""
        return HistoryTable.attach(self._last_updated[lo:hi]) if hi > lo else None

    @property
    def num_rows(self) -> int:
        return self._last_updated.shape[0]

    @property
    def nbytes(self) -> int:
        return self._last_updated.nbytes

    def last_updated(self, rows: np.ndarray) -> np.ndarray:
        return self._last_updated[np.asarray(rows, dtype=np.int64)]

    def delays(self, rows: np.ndarray, iteration: int) -> np.ndarray:
        """Number of deferred noise updates for ``rows`` as of ``iteration``.

        ``delays[k] = iteration - HistoryTable[rows[k]]`` (Algorithm 1,
        line 14).
        """
        rows = np.asarray(rows, dtype=np.int64)
        delays = np.int64(iteration) - self._last_updated[rows].astype(np.int64)
        if np.any(delays < 0):
            raise ValueError(
                "HistoryTable is ahead of the requested iteration; "
                "rows must not be caught up twice in one iteration"
            )
        return delays

    def mark_updated(self, rows: np.ndarray, iteration: int) -> None:
        """Record that ``rows`` now carry all noise through ``iteration``."""
        self._last_updated[np.asarray(rows, dtype=np.int64)] = np.int32(iteration)

    def pending_rows(self, iteration: int) -> np.ndarray:
        """All rows still owed noise as of ``iteration`` (used by flush)."""
        return np.nonzero(self._last_updated < np.int32(iteration))[0]

    def snapshot(self) -> np.ndarray:
        """Copy of the raw table (tests and diagnostics)."""
        return self._last_updated.copy()

    def load_snapshot(self, snapshot: np.ndarray) -> None:
        """Restore the table from a :meth:`snapshot` (checkpoint resume)."""
        snapshot = np.asarray(snapshot, dtype=np.int32)
        if snapshot.shape != self._last_updated.shape:
            raise ValueError("snapshot size does not match table")
        self._last_updated[...] = snapshot


class NaiveCounterHistory:
    """The design Algorithm 1 *rejects*: a per-row pending-update counter.

    Incrementing a counter for every non-accessed row is a dense write
    over the whole table each iteration — reintroducing exactly the
    memory traffic LazyDP exists to remove (paper Section 5.2.1: "such
    naive implementation will lead to significant memory write traffic").
    Implemented for the ablation benchmark (``benchmarks/run.py
    ablation_history``), which shows its per-iteration cost scaling with
    table size while :class:`HistoryTable`'s stays proportional to the
    access footprint.

    Semantically equivalent to :class:`HistoryTable` (verified in tests);
    only the access pattern differs.
    """

    BYTES_PER_ENTRY = 4

    def __init__(self, num_rows: int):
        if num_rows < 1:
            raise ValueError("num_rows must be positive")
        self._pending = np.zeros(num_rows, dtype=np.int32)
        self._iteration = 0

    @property
    def num_rows(self) -> int:
        return self._pending.shape[0]

    @property
    def nbytes(self) -> int:
        return self._pending.nbytes

    def advance_iteration(self) -> None:
        """The dense write: every row's pending counter increments."""
        self._pending += np.int32(1)  # touches the entire table
        self._iteration += 1

    def delays(self, rows: np.ndarray, iteration: int) -> np.ndarray:
        if iteration != self._iteration:
            raise ValueError(
                "naive counter must be advanced to the queried iteration"
            )
        return self._pending[np.asarray(rows, dtype=np.int64)].astype(np.int64)

    def mark_updated(self, rows: np.ndarray, iteration: int) -> None:
        if iteration != self._iteration:
            raise ValueError(
                "naive counter must be advanced to the update iteration"
            )
        self._pending[np.asarray(rows, dtype=np.int64)] = 0

    def pending_rows(self, iteration: int) -> np.ndarray:
        if iteration != self._iteration:
            raise ValueError(
                "naive counter must be advanced to the queried iteration"
            )
        return np.nonzero(self._pending > 0)[0]
