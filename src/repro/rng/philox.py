"""Philox4x32-10: a counter-based pseudo-random number generator.

The generator follows Salmon et al., "Parallel Random Numbers: As Easy as
1, 2, 3" (SC'11), the same family PyTorch uses for GPU noise generation.

Why counter-based?  LazyDP's correctness argument (paper Section 5.1,
Figure 7) is that *when* a noise value is applied does not matter as long as
every deferred value is applied before the row is read.  A counter-based
generator makes the noise destined for ``(table, row, iteration)`` a pure
function of those coordinates, so an eager DP-SGD run and a lazy run consume
bit-identical noise regardless of evaluation order.  That converts the
paper's "mathematically equivalent" claim into an exactly testable property
(see ``tests/test_lazydp_equivalence.py``).

All functions are vectorised over numpy arrays of counters; the cipher
itself runs block by block over fixed per-thread scratch (:data:`BLOCK`).
"""

from __future__ import annotations

import functools
import threading

import numpy as np

from . import _native

# Philox4x32 round constants (Salmon et al., Table 2).
PHILOX_M0 = np.uint64(0xD2511F53)
PHILOX_M1 = np.uint64(0xCD9E8D57)
PHILOX_W0 = 0x9E3779B9  # golden ratio
PHILOX_W1 = 0xBB67AE85  # sqrt(3) - 1

PHILOX_ROUNDS = 10

_U32_MASK = np.uint64(0xFFFFFFFF)
_SHIFT_32 = np.uint64(32)
#: Word -> uniform scale, see :func:`uniform_from_uint32`.
INV_2_32 = 1.0 / 4294967296.0

#: Counters per kernel block.  Every consumer of the cipher walks its
#: counter space in blocks of this many, through per-thread scratch of
#: exactly this size, so the ~100 array passes of ten rounds plus
#: Box-Muller run over cache-resident lanes (6 x 128 KB of words,
#: 5 x 128 KB of reals) whatever the size of the draw.  Measured best of
#: 2 K - 64 K on the 4 MB-L2 reference host; a constant, not a knob —
#: no output bit depends on it.
BLOCK = 16384


class _BlockScratch(threading.local):
    """One thread's block scratch: six uint64 word lanes (four counter
    words + two products) and five float64 lanes (four uniforms /
    Gaussians + one trig temporary).  Thread-local because shard tasks,
    the prefetch worker and the async apply worker all draw through one
    :class:`~repro.rng.noise.NoiseStream` concurrently."""

    def __init__(self):
        self.words = np.empty((6, BLOCK), dtype=np.uint64)
        self.reals = np.empty((5, BLOCK), dtype=np.float64)
        #: ``reals[:4]`` as the two flat lanes of ``2 * BLOCK`` uniforms
        #: ``_gauss.c`` fills and reads (radii, angles), and their
        #: addresses.
        self.pairs = self.reals[:4].reshape(2, -1)
        self.pair_addresses = tuple(lane.ctypes.data for lane in self.pairs)
        #: The iteration word and the scale shared by every row of a
        #: draw, read by ``_gauss.c`` as zero-stride columns.
        self.cell = np.zeros(2, dtype=np.uint64)
        self.cell_reals = self.cell.view(np.float64)
        self.cell_address = self.cell.ctypes.data


_SCRATCH = _BlockScratch()


def tile_scratch() -> _BlockScratch:
    """The calling thread's scratch (see :class:`_BlockScratch`)."""
    return _SCRATCH


def block_scratch(shape: tuple) -> tuple:
    """``(words, reals)``: the calling thread's scratch lanes, each
    viewed as ``shape`` (at most :data:`BLOCK` elements)."""
    count = int(np.prod(shape))
    return (
        [lane.reshape(shape) for lane in _SCRATCH.words[:, :count]],
        [lane.reshape(shape) for lane in _SCRATCH.reals[:, :count]],
    )


#: Cumulative count of cipher invocations ("kernel launches"): one per
#: :func:`philox4x32` or keyed-Gaussian *call*, however many blocks the
#: call walks.  Each invocation processes an arbitrarily large counter
#: batch, so this counts launch *overheads*, not work — the number the
#: batched no-ANS sampler collapses from O(max_delay) to O(1) per
#: catch-up (see ``repro.kernels.sampler`` and ``benchmarks/run.py
#: apply_fusion``).  Guarded by a lock: shard executors, the prefetch
#: worker and the async apply worker all invoke Philox concurrently,
#: and a bare ``+=`` on a global drops increments under preemption.
#: One lock acquisition per *batch* (not per element) is noise next to
#: the cipher itself.
_INVOCATIONS = 0
_INVOCATIONS_LOCK = threading.Lock()


def philox_invocations() -> int:
    """Total cipher invocations so far (diagnostics only)."""
    with _INVOCATIONS_LOCK:
        return _INVOCATIONS


def record_invocations(count: int = 1) -> None:
    """Fold cipher launches into the counter.

    :func:`philox4x32` and the keyed-Gaussian kernel record one launch
    per call, whichever inner loop (``_gauss.c`` or the ufunc chain)
    runs the rounds, so the O(launches) diagnostics stay comparable.
    """
    global _INVOCATIONS
    with _INVOCATIONS_LOCK:
        _INVOCATIONS += int(count)


def philox_rounds(lanes: list, key: np.ndarray, rounds: int = PHILOX_ROUNDS) -> list:
    """The S-P rounds, in place, over one block.

    ``lanes`` is six equal-shape uint64 arrays: the four counter words
    (each < 2**32) and two product scratch lanes.  A 32 x 32 product
    fits a uint64 lane, so ``mulhilo`` is a multiply, a shift and a
    mask with ``out=`` — no casts, no temporaries.  Returns the four
    output-word lanes (four of the six arrays passed in).
    """
    c0, c1, c2, c3, p0, p1 = lanes
    k0, k1 = int(key[0]), int(key[1])
    for _ in range(rounds):
        np.multiply(c0, PHILOX_M0, out=p0)
        np.multiply(c2, PHILOX_M1, out=p1)
        # The Feistel-like shuffle of the reference implementation:
        # c0' = hi1 ^ c1 ^ k0, c1' = lo1, c2' = hi0 ^ c3 ^ k1, c3' = lo0.
        np.right_shift(p1, _SHIFT_32, out=c0)
        np.bitwise_xor(c0, c1, out=c0)
        np.bitwise_xor(c0, np.uint64(k0), out=c0)
        np.right_shift(p0, _SHIFT_32, out=c2)
        np.bitwise_xor(c2, c3, out=c2)
        np.bitwise_xor(c2, np.uint64(k1), out=c2)
        np.bitwise_and(p1, _U32_MASK, out=p1)
        np.bitwise_and(p0, _U32_MASK, out=p0)
        c1, p1 = p1, c1
        c3, p0 = p0, c3
        k0 = (k0 + PHILOX_W0) & 0xFFFFFFFF  # the key schedule wraps mod 2^32
        k1 = (k1 + PHILOX_W1) & 0xFFFFFFFF
    return [c0, c1, c2, c3]


def philox4x32(
    counters: np.ndarray, key: np.ndarray, rounds: int = PHILOX_ROUNDS
) -> np.ndarray:
    """Run the Philox4x32 block cipher over a batch of counters.

    Parameters
    ----------
    counters:
        ``(n, 4)`` uint32 array; each row is one 128-bit counter block.
    key:
        ``(2,)`` uint32 array, the 64-bit key shared by all blocks.
    rounds:
        Number of S-P rounds; 10 is the standard, cryptographically vetted
        choice.

    Returns
    -------
    ``(n, 4)`` uint32 array of pseudo-random words.
    """
    record_invocations(1)
    counters = np.asarray(counters, dtype=np.uint32)
    if counters.ndim != 2 or counters.shape[1] != 4:
        raise ValueError(f"counters must have shape (n, 4), got {counters.shape}")
    key = np.asarray(key, dtype=np.uint32)
    if key.shape != (2,):
        raise ValueError(f"key must have shape (2,), got {key.shape}")

    words = np.empty(counters.shape, dtype=np.uint32)
    lib = _native.LIB
    if lib is not None:  # the keyed-Gaussian kernel's round function
        counters = np.ascontiguousarray(counters)
        lib.philox4x32_blocks(
            counters.ctypes.data, counters.shape[0], int(key[0]), int(key[1]),
            rounds, words.ctypes.data,
        )
        return words
    for start in range(0, counters.shape[0], BLOCK):
        block = counters[start : start + BLOCK]
        lanes, _ = block_scratch(block.shape[:1])
        for word in range(4):
            lanes[word][...] = block[:, word]
        for word, lane in enumerate(philox_rounds(lanes, key, rounds)):
            words[start : start + BLOCK, word] = lane
    return words


def splitmix64(x: np.ndarray | int) -> np.ndarray | np.uint64:
    """SplitMix64 finaliser: a high-quality 64-bit mixing function.

    Used to derive statistically independent Philox keys for each
    (seed, domain, table) combination.  Vectorised over uint64 arrays.
    """
    with np.errstate(over="ignore"):
        z = np.asarray(x, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    if np.ndim(x) == 0:
        return np.uint64(z)
    return z


@functools.lru_cache(maxsize=4096)
def derive_key(seed: int, domain: int = 0, stream: int = 0) -> np.ndarray:
    """Derive a ``(2,)`` uint32 Philox key for a (seed, domain, stream) tuple.

    ``domain`` separates unrelated uses of randomness (weight init, row
    noise, ANS noise, ...) so that no two subsystems ever share a key, and
    ``stream`` separates instances within a domain (e.g. embedding tables).

    A key is a pure function of its three arguments, so it is derived
    once and then handed out from a cache, read-only: every draw of a
    table's noise, every lookup's catch-up and every synthesised batch
    reuses it instead of running two ``splitmix64`` passes again.
    """
    mixed = splitmix64(
        splitmix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ np.uint64(domain))
        + np.uint64(stream)
    )
    key = np.empty(2, dtype=np.uint32)
    key[0] = np.uint32(int(mixed) & 0xFFFFFFFF)
    key[1] = np.uint32((int(mixed) >> 32) & 0xFFFFFFFF)
    key.flags.writeable = False
    return key


def make_counters(
    word0: np.ndarray, word1: np.ndarray, word2: np.ndarray, word3: np.ndarray
) -> np.ndarray:
    """Assemble a ``(n, 4)`` uint32 counter array from four word arrays.

    Inputs broadcast against each other; each must fit in 32 bits.
    """
    broadcast = np.broadcast(word0, word1, word2, word3)
    counters = np.empty((broadcast.size, 4), dtype=np.uint32)
    counters[:, 0] = np.broadcast_to(word0, broadcast.shape).ravel()
    counters[:, 1] = np.broadcast_to(word1, broadcast.shape).ravel()
    counters[:, 2] = np.broadcast_to(word2, broadcast.shape).ravel()
    counters[:, 3] = np.broadcast_to(word3, broadcast.shape).ravel()
    return counters


def uniform_from_uint32(words: np.ndarray) -> np.ndarray:
    """Map uint32 words to float64 uniforms in the open interval (0, 1).

    The +0.5 offset keeps the result strictly inside (0, 1), which protects
    the Box-Muller ``log`` and keeps ``2*pi*u`` away from exact phase wraps.
    """
    return (words.astype(np.float64) + 0.5) * INV_2_32
