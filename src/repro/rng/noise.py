"""Deterministic, coordinate-keyed Gaussian noise streams.

``NoiseStream`` gives every DP noise value a *name*: the Gaussian destined
for row ``r`` of table ``t`` at iteration ``i`` is a pure function of
``(seed, t, r, i)``.  Eager DP-SGD applies that value at iteration ``i``;
LazyDP applies the sum of several of them years (well, iterations) later.
Because both consume the same named values, the two training schedules can
be compared for *exact* equality, which is how we verify the paper's
equivalence claim (Section 5.1) rather than taking it on faith.

Domains keep unrelated consumers of randomness on disjoint key spaces:

* ``DOMAIN_ROW_NOISE``   - per-(table, row, iteration) embedding noise
* ``DOMAIN_ANS_NOISE``   - aggregated noise draws (one per deferred span)
* ``DOMAIN_DENSE_NOISE`` - per-iteration MLP weight noise
* ``DOMAIN_INIT``        - model weight initialisation
* ``DOMAIN_DATA``        - synthetic trace generation
"""

from __future__ import annotations

import itertools

import numpy as np

from ..kernels.arena import owned
from ..kernels.lanes import fan_out
from . import _native
from .boxmuller import gaussian_lanes
from .philox import (
    BLOCK,
    block_scratch,
    derive_key,
    philox_rounds,
    record_invocations,
    tile_scratch,
)

DOMAIN_ROW_NOISE = 1
DOMAIN_ANS_NOISE = 2
DOMAIN_DENSE_NOISE = 3
DOMAIN_INIT = 4
DOMAIN_DATA = 5

_U32 = np.uint64(0xFFFFFFFF)
_SHIFT_32 = np.uint64(32)
_BLOCK_IDS = np.arange(BLOCK, dtype=np.uint64)
#: The one "row" dense tensors and initialisations are drawn as.
_ROW_ZERO = np.zeros(1, dtype=np.uint64)


def _words(values: np.ndarray, dtype) -> np.ndarray:
    """``values`` flat, as the 8-byte words of ``dtype`` ``_gauss.c``
    reads (int64 rows and iterations are already their uint64 bits)."""
    kinds = "iu" if dtype is np.uint64 else "f"
    if values.dtype.itemsize != 8 or values.dtype.kind not in kinds:
        values = values.astype(dtype)
    return values if values.ndim == 1 else values.reshape(-1)


def _native_columns(rows, iteration, scale, out) -> tuple:
    """``(columns, arrays)``: the ``(address, byte stride)`` of the rows,
    iterations, scales and output rows of one draw as ``_gauss.c``
    walks them, taken once per draw, and the arrays behind them (alive
    until the draw ends).  A scalar iteration or scale is written to
    this thread's cell, and a one-value array is walked in place: stride
    0 either way, with no broadcast view."""
    n_rows = out.shape[0]
    scratch = tile_scratch()
    rows = _words(rows, np.uint64)
    arrays = [rows]
    columns = [(_native.address(rows), rows.strides[0])]
    for slot, values, dtype, cell in (
        (0, iteration, np.uint64, scratch.cell),
        (1, scale, np.float64, scratch.cell_reals),
    ):
        if not (isinstance(values, np.ndarray) and values.ndim):
            cell[slot] = values
            columns.append((scratch.cell_address + 8 * slot, 0))
            continue
        values = _words(values, dtype)
        if values.size not in (1, n_rows):
            raise ValueError(f"{values.size} per-row values for {n_rows} rows")
        arrays.append(values)
        columns.append(
            (_native.address(values), values.strides[0] if values.size > 1 else 0)
        )
    columns.append((_native.address(out), out.strides[0]))
    return columns, arrays


def _native_tile(lib, key, columns, dim, r0, r1, b0, b1) -> int:
    """One tile of :meth:`NoiseStream._keyed_gaussians` through
    ``_gauss.c`` — three calls, the same bits: counters to uniforms,
    numpy's ``log`` over the radius lane (libm's differs in the last
    ulp), then the Box-Muller tail, scale and store.  ``columns`` are
    the draw's (:func:`_native_columns`).  Returns how many of the
    tile's angles the AVX-512 body handed to ``sincos`` (0 on the
    scalar C)."""
    (rows, row_step), (iterations, iteration_step), (scales, scale_step), (
        out, out_step
    ) = columns
    n, blocks = r1 - r0, b1 - b0
    scratch = tile_scratch()
    radius, angle = scratch.pair_addresses
    k0, k1 = key.tolist()
    if lib.gauss_uniforms(
        rows + r0 * row_step, row_step, iterations + r0 * iteration_step,
        iteration_step, n, b0, blocks, k0, k1, radius, angle,
    ):
        raise ValueError("u1 must lie in (0, 1]")
    lane = scratch.pairs[0, : 2 * n * blocks]
    np.log(lane, out=lane)
    return lib.gauss_finish(
        radius, angle, scales + r0 * scale_step, scale_step, n, b0, blocks,
        out + r0 * out_step, out_step, dim,
    )


def _empty(rows: np.ndarray, dim: int) -> np.ndarray:
    """The ``(len(rows), dim)`` output of a per-row draw, on a
    size-class block (:func:`repro.kernels.arena.owned`)."""
    if dim <= 0:
        raise ValueError("dim must be positive")
    return owned((rows.shape[0], dim))


class NoiseStream:
    """Factory for deterministic Gaussian noise, keyed by coordinates.

    Parameters
    ----------
    seed:
        Master seed.  Two streams with the same seed produce identical
        values for identical coordinates; different seeds are independent.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    # ------------------------------------------------------------------
    # Per-row embedding noise (the values LazyDP defers).
    # ------------------------------------------------------------------
    def row_noise(
        self,
        table_id: int,
        rows: np.ndarray,
        iteration: int,
        dim: int,
        std: float = 1.0,
    ) -> np.ndarray:
        """N(0, std^2) noise for ``rows`` of ``table_id`` at ``iteration``.

        Returns a ``(len(rows), dim)`` float64 array.  The value for a given
        (table, row, iteration, lane) never depends on which other rows are
        requested alongside it.
        """
        rows = np.asarray(rows)
        if rows.ndim != 1:
            raise ValueError("rows must be a 1-D array of row indices")
        key = derive_key(self.seed, DOMAIN_ROW_NOISE, table_id)
        return self._keyed_gaussians(key, rows, iteration, std, _empty(rows, dim))

    def row_iteration_noise(
        self,
        table_id: int,
        rows: np.ndarray,
        iterations: np.ndarray,
        dim: int,
        std: float = 1.0,
    ) -> np.ndarray:
        """Per-draw keyed noise: draw ``k`` is the ``(table_id, rows[k],
        iterations[k])`` value — the batched generalisation of
        :meth:`row_noise`.

        One Philox invocation covers the whole ``(row, iteration)`` draw
        list, which is how the batched no-ANS sampler
        (``repro.kernels.sampler``) collapses its per-lag launch loop.
        Each draw is bit-identical to the :meth:`row_noise` value of the
        same coordinates.
        """
        rows = np.asarray(rows)
        iterations = np.asarray(iterations, dtype=np.int64)
        if rows.ndim != 1:
            raise ValueError("rows must be a 1-D array of row indices")
        if iterations.shape != rows.shape:
            raise ValueError("iterations must align with rows")
        key = derive_key(self.seed, DOMAIN_ROW_NOISE, table_id)
        return self._keyed_gaussians(key, rows, iterations, std, _empty(rows, dim))

    def row_noise_sum(
        self,
        table_id: int,
        rows: np.ndarray,
        first_iteration: int,
        last_iteration: int,
        dim: int,
        std: float = 1.0,
    ) -> np.ndarray:
        """Exact sum of per-iteration row noise over an inclusive range.

        This is what LazyDP *without* ANS applies when it catches a row up:
        the same values eager DP-SGD would have applied one at a time
        (paper Algorithm 1, lines 31-35), generated in a single flattened
        invocation and segment-summed (value-equal to the one-at-a-time
        loop; only the accumulation order differs, within float rounding).
        """
        # Through the package-level wrapper, so the tracer's swap point
        # (repro.kernels.dispatch) covers this facade too.
        from ..kernels import batched_row_noise_sum

        return batched_row_noise_sum(
            self, table_id, rows, first_iteration, last_iteration, dim, std=std
        )

    def aggregated_row_noise(
        self,
        table_id: int,
        rows: np.ndarray,
        delays: np.ndarray,
        iteration: int,
        dim: int,
        std: float = 1.0,
    ) -> np.ndarray:
        """One ANS draw per row: N(0, delays * std^2) (paper Theorem 5.1).

        ``delays`` holds, per row, how many per-iteration noise values the
        single draw replaces.  Rows with ``delays == 0`` get exactly zero.
        The draw is keyed by the iteration at which the catch-up happens, so
        repeated catch-ups of the same row use fresh randomness.
        """
        rows = np.asarray(rows)
        delays = np.asarray(delays)
        if delays.shape != rows.shape:
            raise ValueError("delays must align with rows")
        if delays.size and delays.min() < 0:
            raise ValueError("delays must be non-negative")
        key = derive_key(self.seed, DOMAIN_ANS_NOISE, table_id)
        # std * sqrt(delays), one factor per row, applied inside the
        # kernel while each block is cache-hot.
        scale = np.sqrt(delays, dtype=np.float64)
        scale *= std
        return self._keyed_gaussians(key, rows, iteration, scale, _empty(rows, dim))

    # ------------------------------------------------------------------
    # Dense (MLP) noise and generic draws.
    # ------------------------------------------------------------------
    def dense_noise(
        self, param_id: int, iteration: int, shape: tuple, std: float = 1.0
    ) -> np.ndarray:
        """Per-iteration N(0, std^2) noise for a dense parameter tensor."""
        key = derive_key(self.seed, DOMAIN_DENSE_NOISE, param_id)
        noise = np.empty(shape, dtype=np.float64)
        self._keyed_gaussians(key, _ROW_ZERO, iteration, std, noise.reshape(1, -1))
        return noise

    def init_values(self, param_id: int, shape: tuple, std: float = 1.0) -> np.ndarray:
        """Deterministic Gaussian weight-initialisation values, drawn
        straight into the array the parameter will own."""
        key = derive_key(self.seed, DOMAIN_INIT, param_id)
        values = np.empty(shape, dtype=np.float64)
        self._keyed_gaussians(key, _ROW_ZERO, 0, std, values.reshape(1, -1))
        return values

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _keyed_gaussians(
        key: np.ndarray, rows: np.ndarray, iteration, scale, out: np.ndarray
    ) -> np.ndarray:
        """Fill ``out`` — ``(len(rows), dim)`` — with Gaussians for one
        key, times ``scale``; returns ``out``.

        ``iteration`` is a scalar (every row drawn at the same iteration,
        the :meth:`row_noise` case) or a per-row int64 array (the batched
        :meth:`row_iteration_noise` case); ``scale`` is a scalar or one
        factor per row.  Each Philox block yields 4 Gaussians, so a row
        of width ``dim`` consumes ``ceil(dim / 4)`` counter blocks
        distinguished by counter word 3.

        The one kernel under every draw: it walks the (row, lane-block)
        counter space in tiles of at most :data:`BLOCK` counters — whole
        rows, or a slice of one row wider than a block (a dense tensor,
        a table's init) — and per tile builds the counters, runs the
        cipher and Box-Muller and scales, all in place over this
        thread's scratch, then writes the four Gaussian lanes straight
        into ``out``.  One launch per call; nothing is allocated, and
        no bit depends on the tiling — nor on which lane draws a tile
        (a draw of several tiles spreads them over
        :func:`repro.kernels.lanes.fan_out`), nor on whether a tile runs
        as the ufunc chain below or, where :mod:`._native` loaded it, as
        the same arithmetic compiled (:func:`_native_tile`).  The
        compiled tiles read the draw's own arrays by address, taken once
        per draw (:func:`_native_columns`): a one-tile draw — every
        lookup, every per-step table draw, every dense-noise draw — is
        three calls and a ``log`` on the caller, with no per-tile view.

        Counter words are 32 bits wide (the row takes two), so an
        iteration outside ``[0, 2**32)`` or a negative row would alias
        another coordinate's noise; both raise ``ValueError``.
        """
        n_rows, dim = out.shape
        if n_rows == 0:
            return out
        if isinstance(iteration, np.ndarray) and iteration.ndim:
            low, high = iteration.min(), iteration.max()
        else:
            low = high = iteration
        if low < 0 or high >= 2**32:
            raise ValueError(
                f"iteration must lie in [0, 2**32), got [{low}, {high}]"
            )
        if rows.dtype.kind != "u" and rows.min() < 0:
            raise ValueError(f"rows must be non-negative, got {rows.min()}")
        record_invocations(1)
        lib = _native.LIB if out.strides[1] == out.itemsize else None
        blocks_per_row = (dim + 3) // 4
        tile_blocks = min(blocks_per_row, BLOCK)
        tile_rows = BLOCK // tile_blocks
        if lib is not None:
            # Addresses taken once: a tile offsets them by its first row
            # (``_alive`` holds the arrays behind them until we return).
            columns, _alive = _native_columns(rows, iteration, scale, out)

            def draw(corner: tuple) -> None:
                r0, b0 = corner
                r1 = min(r0 + tile_rows, n_rows)
                b1 = min(b0 + tile_blocks, blocks_per_row)
                _native_tile(lib, key, columns, dim, r0, r1, b0, b1)

        else:
            # Per-row columns; a scalar iteration / scale is one
            # zero-stride column, so a tile slices all three alike.
            rows = rows.astype(np.uint64, copy=False)[:, None]
            iteration = np.asarray(iteration).astype(np.uint64).reshape(-1, 1)
            iteration = np.broadcast_to(iteration, rows.shape)
            scale = np.asarray(scale, dtype=np.float64).reshape(-1, 1)
            scale = np.broadcast_to(scale, rows.shape)

            def draw(corner: tuple) -> None:
                r0, b0 = corner
                r1 = min(r0 + tile_rows, n_rows)
                b1 = min(b0 + tile_blocks, blocks_per_row)
                tile = slice(r0, r1)
                words, reals = block_scratch((r1 - r0, b1 - b0))
                np.bitwise_and(rows[tile], _U32, out=words[0])
                np.right_shift(rows[tile], _SHIFT_32, out=words[1])
                np.bitwise_and(iteration[tile], _U32, out=words[2])
                np.add(_BLOCK_IDS[: b1 - b0], np.uint64(b0), out=words[3])
                lanes = gaussian_lanes(philox_rounds(words, key), reals)
                for k, lane in enumerate(lanes):
                    columns = out[tile, 4 * b0 + k : 4 * b1 : 4]
                    np.multiply(
                        lane[:, : columns.shape[1]], scale[tile], out=columns
                    )

        if n_rows <= tile_rows and blocks_per_row <= tile_blocks:
            draw((0, 0))  # one tile: every per-step draw and lookup
            return out
        # Tiles write disjoint parts of ``out`` through per-thread
        # scratch: a draw of several spreads them over the lanes.
        tiles = itertools.product(
            range(0, n_rows, tile_rows), range(0, blocks_per_row, tile_blocks)
        )
        fan_out(draw, list(tiles))
        return out
