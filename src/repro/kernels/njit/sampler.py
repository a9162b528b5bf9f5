"""Compiled no-ANS catch-up sampling: draw, transform, sum in registers.

The numpy sampler (:mod:`repro.kernels.sampler`) flattens a catch-up
into one big ``(row, iteration)`` draw list: it materialises a counter
block per draw, a uint32 word block, a float64 Gaussian block, then
segment-sums with ``np.add.reduceat`` — four full-size arrays streamed
through memory for values that are each consumed exactly once.  The
compiled kernel eliminates the materialisation wholesale: one ``prange``
loop over rows walks each row's deferred iterations in the same
descending order, runs the Philox cipher and Box-Muller transform on
scalars (:func:`philox4x32_scalar` / :func:`gauss4`), and accumulates
straight into the output row.  No counter blocks, no flattened batch,
no chunking budgets — memory is O(rows * dim) regardless of delay.

Equivalence contract:

* The *draws* are keyed identically (counter words ``(row_lo, row_hi,
  iteration, block)`` under the same derived key), so the uint32 words
  feeding Box-Muller are bit-identical to the numpy path's.
* The per-row *sum* runs sequentially in draw order — the same order
  ``np.add.reduceat`` reduces a segment — and is a pure function of the
  row's own coordinates, so results are invariant under sharding,
  chunking and batching (asserted bitwise against an njit per-lag
  reference in the tests).
* The Gaussian *values* may differ from numpy's in the last ulp
  (compiled libm vs numpy SIMD transcendentals); the deviation is
  bounded by ``NUMERIC_TOLERANCE`` in the package root.  The one numpy
  path with a different summation order (the oversized-row pairwise
  window reduction) falls inside the same tolerance.

``max_scalars`` / ``max_row_scalars`` are accepted for signature
compatibility and ignored: they bound the flattened batch the compiled
kernel never builds.
"""

from __future__ import annotations

import numpy as np

from ...rng.noise import DOMAIN_ROW_NOISE
from ...rng.philox import derive_key, record_invocations
from ..sampler import DEFAULT_MAX_ROW_SCALARS, DEFAULT_MAX_SCALARS
from ._compat import njit, prange
from .philox import gauss4, philox4x32_scalar

_MASK32 = 0xFFFFFFFF


@njit(parallel=True, fastmath=False, cache=True)
def _catchup_sum(k0, k1, rows, delays, iteration, dim, std, out):
    blocks_per_row = (dim + 3) // 4
    for i in prange(rows.shape[0]):
        row = rows[i]
        row_lo = np.uint64(row & _MASK32)
        row_hi = np.uint64((row >> 32) & _MASK32)
        for lag in range(delays[i]):
            # Draw k covers iteration - k: the descending-iteration
            # order the numpy flattening (and the original lag loop)
            # visits, masked to counter word width with two's-complement
            # wrap for negative iterations, same as the uint64 cast.
            word2 = np.uint64((iteration - lag) & _MASK32)
            for block in range(blocks_per_row):
                c0, c1, c2, c3 = philox4x32_scalar(
                    row_lo, row_hi, word2, np.uint64(block), k0, k1
                )
                z0, z1, z2, z3 = gauss4(c0, c1, c2, c3)
                base = 4 * block
                if base < dim:
                    out[i, base] += std * z0
                if base + 1 < dim:
                    out[i, base + 1] += std * z1
                if base + 2 < dim:
                    out[i, base + 2] += std * z2
                if base + 3 < dim:
                    out[i, base + 3] += std * z3


def batched_catchup_sum(
    stream,
    table_id: int,
    rows: np.ndarray,
    delays: np.ndarray,
    iteration: int,
    dim: int,
    std: float = 1.0,
    max_scalars: int = DEFAULT_MAX_SCALARS,
    max_row_scalars: int = DEFAULT_MAX_ROW_SCALARS,
) -> np.ndarray:
    """Drop-in compiled replacement for the numpy ``batched_catchup_sum``.

    Row ``k`` receives the sum of its individually-keyed draws for
    iterations ``iteration - delays[k] + 1 .. iteration``; rows with
    ``delays[k] == 0`` receive exactly zero.  One compiled launch per
    catch-up, no flattened draw list (the two budget arguments are
    accepted and ignored — there is nothing to bound).
    """
    if dim <= 0:
        raise ValueError("dim must be positive")
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    delays = np.ascontiguousarray(delays, dtype=np.int64)
    if delays.shape != rows.shape:
        raise ValueError("delays must align with rows")
    out = np.zeros((rows.size, dim), dtype=np.float64)
    if rows.size == 0 or int(delays.sum()) == 0:
        return out
    key = derive_key(stream.seed, DOMAIN_ROW_NOISE, table_id)
    record_invocations(1)
    _catchup_sum(
        np.uint64(key[0]),
        np.uint64(key[1]),
        rows,
        delays,
        int(iteration),
        int(dim),
        float(std),
        out,
    )
    return out


def batched_row_noise_sum(
    stream,
    table_id: int,
    rows: np.ndarray,
    first_iteration: int,
    last_iteration: int,
    dim: int,
    std: float = 1.0,
    max_scalars: int = DEFAULT_MAX_SCALARS,
    max_row_scalars: int = DEFAULT_MAX_ROW_SCALARS,
) -> np.ndarray:
    """Uniform-delay catch-up: every row sums the same iteration window."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    count = int(last_iteration) - int(first_iteration) + 1
    if count <= 0 or rows.size == 0:
        return np.zeros((rows.size, dim), dtype=np.float64)
    delays = np.full(rows.size, count, dtype=np.int64)
    return batched_catchup_sum(
        stream,
        table_id,
        rows,
        delays,
        int(last_iteration),
        dim,
        std=std,
    )
