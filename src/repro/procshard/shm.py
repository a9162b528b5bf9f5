"""Shared-memory layout of one table's cross-process training state.

Per embedding table the router allocates three
``multiprocessing.shared_memory`` segments:

``slab``
    The full ``(num_rows, dim)`` float64 parameter table.  The router
    re-points the model's :class:`repro.nn.parameter.Parameter` at this
    mapping, so forward/backward reads and worker slab writes touch the
    same physical pages — the zero-copy contract of the process
    backend.
``history``
    One int32 entry per row, in global row order — the table's one
    :class:`repro.lazydp.history.HistoryTable`.  A shard owns a
    contiguous row range, so worker ``s``'s history window is the slice
    ``[lo, hi)`` (:meth:`~repro.lazydp.history.HistoryTable.window`);
    the router attaches the whole segment, so export, serving and
    checkpointing keep reading live state.
``ledger``
    One int64 entry per row, same global order: the table's one
    :class:`repro.lazydp.ledger.VersionVector`.  Each worker advances
    its slice at apply time; the router attaches the whole segment for
    ``audit_noise_ledger``.

Lifecycle: the router creates the segments, workers attach by name
during their startup handshake, and once every worker has acked the
router **unlinks** all names.  From then on the memory lives exactly as
long as a mapping does — a crashed run leaks nothing and the
``resource_tracker`` (one process, shared by router and workers alike)
has nothing left to warn about.
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory

import numpy as np


def attach_array(segment, shape, dtype) -> np.ndarray:
    """A writable ndarray view over a shared-memory segment."""
    count = int(np.prod(shape))
    return np.frombuffer(segment.buf, dtype=dtype, count=count).reshape(shape)


def release_segment(segment) -> None:
    """Close a segment's mapping, tolerating still-exported views.

    On the emergency path (a worker died mid-step) the
    ``ShardWorkerError`` being raised holds traceback frames whose
    locals still view the buffer, so ``close()`` raises ``BufferError``.
    In that case drop our handles instead: the fd closes now, the
    mapping is freed the moment the last view dies (the name is already
    unlinked, so nothing can outlive the process), and neutralizing the
    object stops ``SharedMemory.__del__`` from retrying the close and
    printing the ``BufferError`` at interpreter exit.
    """
    try:
        segment.close()
    except BufferError:
        if getattr(segment, "_fd", -1) >= 0:
            try:
                os.close(segment._fd)
            except OSError:  # pragma: no cover - already closed
                pass
            segment._fd = -1
        segment._buf = None
        segment._mmap = None


class _Views:
    """The three whole-segment views, shared by both sides."""

    def slab_array(self) -> np.ndarray:
        return attach_array(self.slab, (self.num_rows, self.dim), np.float64)

    def history_array(self) -> np.ndarray:
        return attach_array(self.history, (self.num_rows,), np.int32)

    def ledger_array(self) -> np.ndarray:
        return attach_array(self.ledger, (self.num_rows,), np.int64)


class TableSegments(_Views):
    """Creator-side handle on one table's three shared segments."""

    def __init__(self, num_rows: int, dim: int):
        self.num_rows = int(num_rows)
        self.dim = int(dim)
        self.slab = shared_memory.SharedMemory(
            create=True, size=max(1, num_rows * dim * 8)
        )
        self.history = shared_memory.SharedMemory(
            create=True, size=max(1, num_rows * 4)
        )
        self.ledger = shared_memory.SharedMemory(
            create=True, size=max(1, num_rows * 8)
        )
        # Fresh state: zero mirrors the "noise through iteration 0
        # applied" convention of HistoryTable and VersionVector.
        self.history_array()[...] = 0
        self.ledger_array()[...] = 0
        self._unlinked = False

    def names(self) -> tuple:
        return (self.slab.name, self.history.name, self.ledger.name)

    # -- lifecycle -----------------------------------------------------------
    def unlink(self) -> None:
        """Remove the segment names (mappings stay valid); idempotent."""
        if self._unlinked:
            return
        self._unlinked = True
        for segment in (self.slab, self.history, self.ledger):
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def close(self) -> None:
        """Release this process's mappings.

        Callers drop their ndarray views first on the orderly path; on
        the emergency path (worker death mid-step) straggler views in
        live traceback frames are tolerated — see ``release_segment``.
        """
        for segment in (self.slab, self.history, self.ledger):
            release_segment(segment)


class AttachedSegments(_Views):
    """Worker-side handle on one table's segments (attach by name).

    Attaching registers each name with the resource tracker the worker
    shares with the router; the router's ``unlink`` drops that one
    entry, so a worker never unregisters a segment itself.
    """

    def __init__(self, names, num_rows: int, dim: int):
        slab_name, history_name, ledger_name = names
        self.num_rows = int(num_rows)
        self.dim = int(dim)
        self.slab = shared_memory.SharedMemory(name=slab_name)
        self.history = shared_memory.SharedMemory(name=history_name)
        self.ledger = shared_memory.SharedMemory(name=ledger_name)

    def close(self) -> None:
        for segment in (self.slab, self.history, self.ledger):
            release_segment(segment)
