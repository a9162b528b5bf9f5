"""Warm memory for the per-step outputs: the process keeps what it frees.

The noisy model-update is bandwidth-bound (paper Section 4.3), so a
step must not pay a page-faulting first-touch pass over memory the
algorithm already streams once.  glibc hands a freed block of 128 KiB
or more back to the kernel (its per-size ``mmap`` threshold, and the
trim of the heap's top), and gives each thread a heap of its own, so
the per-step outputs — the weighted gradients, the catch-up noise, the
numpy apply's merged and scaled rows — faulted their pages in again
every step: ~1 160 pages a step on a serial LazyDP fit at
8 x 250 000 x 32, batch 2 048.  At import this module makes "reuse
warm memory" a policy of the process (:func:`_keep_freed_blocks`), and
:func:`owned` allocates those outputs in size classes, so a block the
last step freed fits this step's output.  It is the one mechanism that
keeps memory warm: a kernel's scratch is a plain temporary or an
:func:`owned` block, and a warm call maps no new page.  The policy is
process state, like the lanes and the BLAS pin
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
