"""Per-row versioning of the deferred-noise ledger.

The HistoryTable answers "how much noise does row ``r`` still owe?";
it is consulted and advanced by whoever *plans* a catch-up.  Once the
training engine runs multiple iterations concurrently in flight
(``repro.async_``), planning and *applying* a catch-up happen on
different threads at different times, and a scheduling bug could apply
a span of deferred noise twice, skip it, or apply it against a row that
was not at the expected starting point.  None of those corruptions are
visible in the released parameters (noise looks like noise), so they
must be caught structurally.

:class:`VersionVector` is that structural check: one int64 per row
recording the iteration *through which* the row's noise has actually
been **applied** (the HistoryTable records how far it has been
*planned*).  Every apply advances the vector through :meth:`advance`,
which verifies the span being applied starts exactly where the row
currently stands — noise for iterations ``(iteration - delay,
iteration]`` is accepted only if the row's applied-through version is
``iteration - delay``.  Because spans must be contiguous and strictly
forward, *any* interleaving that would double-apply or skip noise
raises immediately, no matter how the async engine reorders work.

:meth:`audit_complete` is the end-of-training exactness proof: after
the terminal flush, every row must stand exactly at the final
iteration, i.e. every per-iteration noise value was applied exactly
once.  ``tests/test_async_equivalence.py`` and the process backend
run this audit beside the bitwise comparison with the serial
schedule: the released bits show the noise landed, the ledger shows
each span landed exactly once.
"""

from __future__ import annotations

import numpy as np


class LedgerError(RuntimeError):
    """A deferred-noise span was applied out of order, twice, or not at all."""


class VersionVector:
    """Applied-through iteration per embedding row of one table."""

    def __init__(self, num_rows: int, initial=None):
        if num_rows < 1:
            raise ValueError("num_rows must be positive")
        if initial is None:
            # Zero mirrors the HistoryTable convention: "all noise through
            # iteration 0 applied", i.e. none (iterations are 1-based).
            self._applied_through = np.zeros(num_rows, dtype=np.int64)
        else:
            # Mid-stream ledgers (the serving engine audits catch-up from
            # a HistoryTable snapshot, not from iteration 0) start each
            # row at its already-applied-through point.
            initial = np.asarray(initial, dtype=np.int64)
            if initial.shape != (num_rows,):
                raise ValueError(
                    f"initial must cover all {num_rows} rows"
                )
            self._applied_through = initial.copy()

    @classmethod
    def attach(cls, storage: np.ndarray) -> "VersionVector":
        """A VersionVector over caller-owned int64 storage, zero-copy.

        The process-shard backend (``repro.procshard``) keeps each
        table's ledger in ``multiprocessing.shared_memory``: every shard
        worker advances its row range (:meth:`window`) as it applies
        noise, and the router attaches the whole segment to audit
        exactly-once application across the process boundary — both
        sides see one vector, so a skipped or
        double-applied span in a worker raises in the parent's
        ``audit_noise_ledger`` just as it would in the async engine.
        The storage must be a writable, C-contiguous int64 vector; it
        is used in place, never copied.
        """
        storage = np.asarray(storage)
        if storage.dtype != np.int64 or storage.ndim != 1:
            raise ValueError("attach expects a 1-D int64 vector")
        if storage.size < 1:
            raise ValueError("num_rows must be positive")
        if not storage.flags.writeable or not storage.flags.c_contiguous:
            raise ValueError("attach expects writable contiguous storage")
        vector = cls.__new__(cls)
        vector._applied_through = storage
        return vector

    def window(self, lo: int, hi: int) -> "VersionVector | None":
        """Rows ``[lo, hi)`` as a VersionVector of their own, zero-copy:
        a shard's window, addressed by ``row - lo`` (``None``: no rows)."""
        return VersionVector.attach(self._applied_through[lo:hi]) if hi > lo else None

    @property
    def num_rows(self) -> int:
        return self._applied_through.shape[0]

    def applied_through(self, rows: np.ndarray) -> np.ndarray:
        """Per-row applied-through iterations (diagnostics, tests)."""
        return self._applied_through[np.asarray(rows, dtype=np.int64)].copy()

    def advance(self, rows: np.ndarray, delays: np.ndarray, iteration: int) -> None:
        """Record that ``rows`` just received noise for the spans
        ``(iteration - delays, iteration]`` — verifying each span starts
        exactly at the row's current applied-through version.

        Raises :class:`LedgerError` on any gap (noise skipped) or overlap
        (noise double-applied); both indicate an async scheduling bug
        that would silently corrupt the privacy bookkeeping.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return
        delays = np.asarray(delays, dtype=np.int64)
        if delays.shape != rows.shape:
            raise ValueError("delays must align with rows")
        # ``applied + delay == iteration`` is ``applied == iteration -
        # delay`` in the same wrapping int64 arithmetic: one gather, one
        # in-place add and one compare on the clean path.
        landed = self._applied_through[rows]
        landed += delays
        if (landed != iteration).any():
            expected = np.int64(iteration) - delays
            actual = self._applied_through[rows]
            bad = np.nonzero(actual != expected)[0]
            first = int(bad[0])
            raise LedgerError(
                f"noise ledger violation at iteration {iteration}: row "
                f"{int(rows[first])} is applied through "
                f"{int(actual[first])} but the span being applied starts "
                f"at {int(expected[first])} ({bad.size} row(s) affected)"
            )
        self._applied_through[rows] = iteration

    def pending_rows(self, iteration: int) -> np.ndarray:
        """Rows whose applied noise lags ``iteration`` (audit helper)."""
        return np.nonzero(self._applied_through < np.int64(iteration))[0]

    def audit_complete(self, final_iteration: int) -> None:
        """Prove noise was applied exactly once per (row, iteration).

        ``advance`` guarantees spans never overlap or leave gaps, so the
        only remaining failure mode is rows that never caught up; after
        the terminal flush every row must stand at ``final_iteration``.
        """
        behind = self.pending_rows(final_iteration)
        if behind.size:
            raise LedgerError(
                f"{behind.size} row(s) still owe noise at iteration "
                f"{final_iteration} (first: row {int(behind[0])} applied "
                f"through {int(self._applied_through[behind[0]])})"
            )
        ahead = np.nonzero(self._applied_through > np.int64(final_iteration))[0]
        if ahead.size:
            raise LedgerError(
                f"{ahead.size} row(s) carry noise beyond iteration "
                f"{final_iteration} (first: row {int(ahead[0])})"
            )

    def snapshot(self) -> np.ndarray:
        """Copy of the raw vector (tests and diagnostics)."""
        return self._applied_through.copy()

    def load_snapshot(self, applied_through: np.ndarray) -> None:
        """Rebase the vector in place (checkpoint resume): each row
        restarts at its already-applied-through point.  In place, so a
        shared-memory window keeps its mapping."""
        applied_through = np.asarray(applied_through, dtype=np.int64)
        if applied_through.shape != self._applied_through.shape:
            raise ValueError("snapshot size does not match vector")
        self._applied_through[...] = applied_through
