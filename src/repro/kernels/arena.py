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

Owned outputs are warm too.  glibc hands a freed block of 128 KiB or
more back to the kernel (its per-size ``mmap`` threshold, and the trim
of the heap's top), and gives each thread a heap of its own, so the
per-step outputs — the weighted gradients, the catch-up noise — faulted
their pages in again every step: ~1 160 pages a step on a serial
LazyDP fit at 8 x 250 000 x 32, batch 2 048.  At import this module
makes "reuse warm memory" a policy of the process
(:func:`_keep_freed_blocks`), and :func:`owned` allocates those outputs
in size classes, so a block the last step freed fits this step's
output.  The arena stays for scratch reused within one call.  The
policy is process state, like the lanes and the BLAS pin
(:mod:`repro.kernels.lanes`, which imports this module before its
threads start): no option turns it off, a forked worker inherits it, a
spawned one imports it, and another libc is left as it is.  It changes
where memory comes from, never what is computed.
"""

from __future__ import annotations

import ctypes
import resource

import numpy as np

#: glibc's ``mallopt`` parameters (``malloc.h``).
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
M_ARENA_MAX = -8
#: Blocks below this come from the heap: glibc's ceiling for its own
#: dynamic threshold on 64-bit (``DEFAULT_MMAP_THRESHOLD_MAX``).
MMAP_THRESHOLD = 32 << 20
#: Free heap top kept rather than trimmed: twice the mmap threshold,
#: glibc's own rule when it raises that threshold dynamically.
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def _keep_freed_blocks() -> bool:
    """Keep the blocks this process frees, in one heap; ``True`` once
    set (glibc only).

    Both thresholds are set because setting either one turns glibc's
    dynamic adjustment off: with only the mmap threshold a serial step
    still trimmed ~1 480 pages, with only the trim threshold blocks of
    128 KiB+ stayed ``mmap``-ed and the faults rose to ~3 200.  One
    arena, because work lands on whichever thread is free: a lane, a
    shard thread or the apply worker allocates an output another thread
    frees, and with a heap per thread each heap grew, step after step,
    to the most outputs that ever landed on its thread at once (20-50
    pages a step on ``shards=2,pipeline=2,async=strict,inflight=2,
    backend=threads:2``, mostly the prefetch side's catch-up noise on
    the shard threads).
    """
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # present on glibc only
    except (AttributeError, OSError):
        return False
    mallopt = libc.mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
        and mallopt(M_ARENA_MAX, 1)
    )


#: Whether the process keeps its freed blocks (glibc), set at import.
KEEPS_FREED_BLOCKS = _keep_freed_blocks()

#: Outputs of this many bytes or more get a size-class block.
SIZE_CLASS_MIN = 64 << 10
#: Size classes per doubling: a block rounds up to ``2**k * (1 + i/4)``.
SIZE_CLASS_STEPS = 4


def size_class(nbytes: int) -> int:
    """The bytes :func:`owned` allocates for an ``nbytes`` output."""
    if nbytes < SIZE_CLASS_MIN:
        return nbytes
    step = (1 << (nbytes.bit_length() - 1)) // SIZE_CLASS_STEPS
    return -(-nbytes // step) * step


def owned(shape: tuple, zero: bool = False) -> np.ndarray:
    """A new float64 array the caller owns — ``np.empty(shape)``, or
    ``np.zeros`` with ``zero`` — on a block of :func:`size_class` bytes.

    A per-step output's size follows the batch's unique rows, so it
    differs a little from step to step: allocated exactly, a freed
    block a few rows too small for the next request leaves a hole and
    the heap grows past it.  Rounded up to one of four classes per
    doubling (at most a quarter more bytes, never touched unless a later
    output needs them), the outputs of neighbouring steps share a class
    and reuse each other's blocks.
    """
    count = 1
    for extent in shape:
        count *= int(extent)
    nbytes = count * 8
    capacity = size_class(nbytes)
    if capacity == nbytes:
        return np.zeros(shape) if zero else np.empty(shape)
    out = np.empty(capacity // 8)[:count].reshape(shape)
    if zero:
        out.fill(0.0)
    return out


def minor_faults() -> int:
    """Minor page faults of this process so far, every thread's: the
    pages it mapped in without I/O, first touches of fresh memory
    among them.  A difference of two reads is the policy's witness."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


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
    #: A first buffer of :data:`SIZE_CLASS_MIN` bytes or more gets this
    #: share of headroom: a role's size follows the batch's unique rows,
    #: a few percent apart from step to step, and without it the first
    #: step a little larger than the first doubled the buffer mid-run
    #: (new pages, on the numpy apply, as late as step 24 of 25).
    HEADROOM = 4

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
            elif size * dtype.itemsize >= SIZE_CLASS_MIN:
                capacity += size // self.HEADROOM
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
