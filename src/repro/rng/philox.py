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

All functions are vectorised over numpy arrays of counters.
"""

from __future__ import annotations

import threading

import numpy as np

# Philox4x32 round constants (Salmon et al., Table 2).
PHILOX_M0 = np.uint64(0xD2511F53)
PHILOX_M1 = np.uint64(0xCD9E8D57)
PHILOX_W0 = np.uint32(0x9E3779B9)  # golden ratio
PHILOX_W1 = np.uint32(0xBB67AE85)  # sqrt(3) - 1

PHILOX_ROUNDS = 10

_U32_MASK = np.uint64(0xFFFFFFFF)
_SHIFT_32 = np.uint64(32)

#: Cumulative count of :func:`philox4x32` invocations ("kernel launches").
#: Each invocation processes an arbitrarily large counter batch, so this
#: counts launch *overheads*, not work — the number the batched no-ANS
#: sampler collapses from O(max_delay) to O(1) per catch-up (see
#: ``repro.kernels.sampler`` and ``benchmarks/run.py apply_fusion``).
#: Guarded by a lock: shard executors, the prefetch worker and the async
#: apply worker all invoke Philox concurrently, and a bare ``+=`` on a
#: global drops increments under preemption.  One lock acquisition per
#: *batch* (not per element) is noise next to the cipher itself.
_INVOCATIONS = 0
_INVOCATIONS_LOCK = threading.Lock()


def philox_invocations() -> int:
    """Total :func:`philox4x32` calls so far (diagnostics only)."""
    with _INVOCATIONS_LOCK:
        return _INVOCATIONS


def record_invocations(count: int = 1) -> None:
    """Fold externally-performed cipher launches into the counter.

    The compiled njit kernels (``repro.kernels.njit``) run the Philox
    rounds in-register inside their own loops rather than calling
    :func:`philox4x32`; they record one launch per compiled call so the
    O(launches) diagnostics stay comparable across backends.
    """
    global _INVOCATIONS
    with _INVOCATIONS_LOCK:
        _INVOCATIONS += int(count)


def _mulhilo(a: np.ndarray, m: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """Return the (high, low) 32-bit halves of the 64-bit product ``a * m``.

    ``a`` is a uint32 array; the product is formed in uint64 so no precision
    is lost.
    """
    product = a.astype(np.uint64) * m
    hi = (product >> _SHIFT_32).astype(np.uint32)
    lo = (product & _U32_MASK).astype(np.uint32)
    return hi, lo


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
    counters = np.ascontiguousarray(counters, dtype=np.uint32)
    if counters.ndim != 2 or counters.shape[1] != 4:
        raise ValueError(f"counters must have shape (n, 4), got {counters.shape}")
    key = np.asarray(key, dtype=np.uint32)
    if key.shape != (2,):
        raise ValueError(f"key must have shape (2,), got {key.shape}")

    c0 = counters[:, 0].copy()
    c1 = counters[:, 1].copy()
    c2 = counters[:, 2].copy()
    c3 = counters[:, 3].copy()
    k0 = np.uint32(key[0])
    k1 = np.uint32(key[1])

    with np.errstate(over="ignore"):  # the key schedule wraps mod 2^32
        for _ in range(rounds):
            hi0, lo0 = _mulhilo(c0, PHILOX_M0)
            hi1, lo1 = _mulhilo(c2, PHILOX_M1)
            # The Feistel-like shuffle from the reference implementation.
            new_c0 = hi1 ^ c1 ^ k0
            new_c1 = lo1
            new_c2 = hi0 ^ c3 ^ k1
            new_c3 = lo0
            c0, c1, c2, c3 = new_c0, new_c1, new_c2, new_c3
            k0 = np.uint32(k0 + PHILOX_W0)
            k1 = np.uint32(k1 + PHILOX_W1)

    return np.stack([c0, c1, c2, c3], axis=1)


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


def derive_key(seed: int, domain: int = 0, stream: int = 0) -> np.ndarray:
    """Derive a ``(2,)`` uint32 Philox key for a (seed, domain, stream) tuple.

    ``domain`` separates unrelated uses of randomness (weight init, row
    noise, ANS noise, ...) so that no two subsystems ever share a key, and
    ``stream`` separates instances within a domain (e.g. embedding tables).
    """
    mixed = splitmix64(
        splitmix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ np.uint64(domain))
        + np.uint64(stream)
    )
    key = np.empty(2, dtype=np.uint32)
    key[0] = np.uint32(int(mixed) & 0xFFFFFFFF)
    key[1] = np.uint32((int(mixed) >> 32) & 0xFFFFFFFF)
    return key


def make_counters(
    word0: np.ndarray,
    word1: np.ndarray,
    word2: np.ndarray,
    word3: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Assemble a ``(n, 4)`` uint32 counter array from four word arrays.

    Inputs broadcast against each other; each must fit in 32 bits.
    ``out`` optionally supplies the destination (an arena scratch block
    in the hot path) — it must be ``(n, 4)`` uint32 and is returned.
    """
    broadcast = np.broadcast(word0, word1, word2, word3)
    if out is None:
        counters = np.empty((broadcast.size, 4), dtype=np.uint32)
    else:
        if out.shape != (broadcast.size, 4) or out.dtype != np.uint32:
            raise ValueError(
                f"out must be ({broadcast.size}, 4) uint32, "
                f"got {out.shape} {out.dtype}"
            )
        counters = out
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
    return (words.astype(np.float64) + 0.5) * (1.0 / 4294967296.0)
