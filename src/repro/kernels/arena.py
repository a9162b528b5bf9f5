"""Reusable scratch buffers for the apply-phase hot path.

The noisy model-update is bandwidth-bound (paper Section 4.3): every
per-iteration allocation that feeds it — the union row buffer, the
merged value buffer, the gathered rows — costs a page-faulting
first-touch pass over memory the algorithm already has to stream once.
A :class:`BufferArena` keeps one named, geometrically-grown backing
buffer per scratch role so steady-state iterations reuse warm memory
and allocate nothing.

Ownership rules (what makes lock-free use legal):

* An arena is **single-threaded**: each concurrent consumer (a shard's
  apply task, the apply worker, a serving table stripe) owns its own
  arena.  Nothing here locks.
* A view returned by :meth:`BufferArena.request` is valid until the
  same ``key`` is requested again; distinct keys never alias.  Kernel
  outputs that outlive the call (e.g. staged noise crossing a thread
  boundary) must therefore be owned arrays, never arena views — the
  kernels in this package follow that rule.
"""

from __future__ import annotations

import numpy as np


class BufferArena:
    """Named scratch buffers, reused across iterations.

    Counters:

    ``hits``
        Requests served from an existing backing buffer (the
        steady-state case — no allocation happened).
    ``allocs``
        Requests that had to allocate or grow a backing buffer
        (start-up, or a batch larger than anything seen before).
    """

    #: Growth factor when a request outgrows its backing buffer.  Doubling
    #: amortises reallocation to O(log max_size) allocs per key.
    GROWTH = 2

    def __init__(self):
        self._buffers: dict = {}
        self.hits = 0
        self.allocs = 0

    def request(
        self, key: str, shape: tuple, dtype: np.dtype = np.float64
    ) -> np.ndarray:
        """A ``shape``-shaped view of the backing buffer for ``key``.

        Contents are unspecified (previous uses leak through) — callers
        must fully overwrite what they read.  The view stays valid until
        ``key`` is requested again.
        """
        shape = tuple(int(s) for s in shape)
        size = 1
        for extent in shape:
            if extent < 0:
                raise ValueError(f"negative extent in shape {shape}")
            size *= extent
        dtype = np.dtype(dtype)
        backing = self._buffers.get(key)
        if backing is None or backing.dtype != dtype or backing.size < size:
            capacity = size
            if backing is not None and backing.dtype == dtype:
                capacity = max(size, backing.size * self.GROWTH)
            self._buffers[key] = backing = np.empty(capacity, dtype=dtype)
            self.allocs += 1
        else:
            self.hits += 1
        return backing[:size].reshape(shape)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by backing buffers."""
        return int(sum(buf.nbytes for buf in self._buffers.values()))

    def stats(self) -> dict:
        """Hit/alloc counters plus resident footprint."""
        return {
            "hits": int(self.hits),
            "allocs": int(self.allocs),
            "nbytes": self.nbytes,
            "buffers": len(self._buffers),
        }

    def clear(self) -> None:
        """Drop every backing buffer (counters are kept)."""
        self._buffers.clear()
