"""Batched no-ANS sampling: one Philox invocation, a segmented sum.

LazyDP *without* ANS must replay, for every caught-up row, each deferred
per-iteration noise value individually (Algorithm 1 lines 31-35) — the
paper's ablation and the bridge that makes lazy-vs-eager equivalence
exactly testable.  The original implementation looped over lags,
launching one Philox + Box-Muller batch per lag: O(max_delay) kernel
launches, the very iteration structure the eager baselines suffer from.

:func:`batched_catchup_sum` flattens the whole catch-up into one
``(row, iteration)`` draw list, generates every Gaussian in a single
keyed invocation (:meth:`NoiseStream.row_iteration_noise
<repro.rng.noise.NoiseStream.row_iteration_noise>`), and reduces each
row's segment with ``np.add.reduceat``.  Each draw keeps its exact
per-coordinate Philox keying, so individual values are bit-identical to
the lag loop's; only the order the segment is *summed* in changes
(pairwise instead of sequential), which every consumer tolerates —
cross-trainer equivalence stays bitwise because all trainers share this
sampler, and a row's sum depends only on its own ``(row, delay,
iteration)`` segment, never on which other rows were batched alongside
it (the property sharded-vs-serial equality rests on).

Two budgets bound the flattened batch's memory:

* ``max_scalars`` splits a *catch-up* into row-aligned chunks — a row's
  segment is never split by it, so sums are chunk-invariant and
  launches stay O(total / budget), independent of ``max_delay``;
* ``max_row_scalars`` bounds a *single row* whose own delay exceeds the
  chunk budget (a rare cold row at terminal flush after a very long
  run): its draws are generated in fixed-size lag windows accumulated
  sequentially.  The window size is a function of ``dim`` only — never
  of ``max_scalars`` or of the other rows in the batch — so a row's sum
  remains a pure function of its own coordinates and the chunk-
  invariance above still holds bitwise.
"""

from __future__ import annotations

import numpy as np

#: Cap on scalars (draws x dim) generated per Philox invocation.  It
#: bounds the memory of the flattened draw list and its ~512 KB of
#: float64 draws, nothing more: keeping the cipher and Box-Muller
#: cache-resident is the noise kernel's own job (it walks any draw in
#: fixed blocks, see ``repro.rng.noise``), not this budget's.
#: Launches per catch-up are O(total_draws / budget): independent of
#: ``max_delay``, the loop's O(max_delay) structure this replaces.
DEFAULT_MAX_SCALARS = 1 << 16

#: Cap on scalars generated for ONE row's segment per invocation.  Rows
#: owing more (delay > budget/dim) are summed in sequential lag windows
#: of exactly this many scalars, so no single cold row can force an
#: unbounded flattened batch.  Deliberately independent of
#: ``max_scalars``: changing the chunk budget must not change any bits.
DEFAULT_MAX_ROW_SCALARS = 1 << 16


def _segment_sum_into(
    out: np.ndarray,
    stream,
    table_id: int,
    rows: np.ndarray,
    delays: np.ndarray,
    iteration: int,
    dim: int,
    std: float,
) -> None:
    """One flattened draw + segmented sum for one chunk of rows."""
    ends = np.cumsum(delays)
    total = int(ends[-1])
    if total == 0:
        return
    starts = ends - delays
    draw_rows = np.repeat(rows, delays)
    # Draw k of a row covers lag k+1, i.e. iteration - k — the same
    # descending-iteration order the lag loop visited.
    draw_iters = np.arange(total, dtype=np.int64)
    draw_iters -= np.repeat(starts, delays)
    np.subtract(iteration, draw_iters, out=draw_iters)
    draws = stream.row_iteration_noise(
        table_id, draw_rows, draw_iters, dim, std=std
    )
    caught_up = delays > 0
    out[caught_up] = np.add.reduceat(draws, starts[caught_up], axis=0)


def _windowed_row_sum(
    stream,
    table_id: int,
    row: int,
    delay: int,
    iteration: int,
    dim: int,
    std: float,
    window_draws: int,
) -> np.ndarray:
    """One oversized row's deferred sum, in fixed-size lag windows.

    Windows are generated and accumulated in ascending lag order, each
    one Philox invocation of at most ``window_draws`` draws, so memory
    stays bounded no matter how large ``delay`` is.  The window size
    never depends on the surrounding batch, keeping the row's sum pure.
    """
    acc = np.zeros(dim, dtype=np.float64)
    rows = np.full(window_draws, row, dtype=np.int64)
    for lag_start in range(0, delay, window_draws):
        count = min(window_draws, delay - lag_start)
        iters = np.arange(count, dtype=np.int64)
        np.subtract(iteration - lag_start, iters, out=iters)
        draws = stream.row_iteration_noise(
            table_id, rows[:count], iters, dim, std=std
        )
        acc += np.add.reduce(draws, axis=0)
    return acc


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
    """Exact deferred-noise sum per row, batched over ``(row, iteration)``.

    Row ``k`` receives the sum of its individually-keyed draws for
    iterations ``iteration - delays[k] + 1 .. iteration``; rows with
    ``delays[k] == 0`` receive exactly zero.  Value-equal to the lag
    loop (same draws, commutative-and-associative-up-to-rounding sum)
    and a pure function of each row alone, so any partition of ``rows``
    across shards, chunks or serving lookups yields identical bits.
    """
    rows = np.asarray(rows, dtype=np.int64)
    delays = np.asarray(delays, dtype=np.int64)
    out = np.zeros((rows.size, dim), dtype=np.float64)
    if rows.size == 0:
        return out
    total = int(delays.sum())
    if total == 0:
        return out
    window_draws = max(1, int(max_row_scalars) // max(dim, 1))
    oversized = delays > window_draws
    if np.any(oversized):
        # Rare cold rows whose own delay exceeds the per-invocation
        # budget: windowed, memory-bounded accumulation row by row.
        for k in np.nonzero(oversized)[0]:
            out[k] = _windowed_row_sum(
                stream,
                table_id,
                int(rows[k]),
                int(delays[k]),
                iteration,
                dim,
                std,
                window_draws,
            )
        rest = np.nonzero(~oversized)[0]
        if rest.size:
            out[rest] = batched_catchup_sum(
                stream,
                table_id,
                rows[rest],
                delays[rest],
                iteration,
                dim,
                std=std,
                max_scalars=max_scalars,
                max_row_scalars=max_row_scalars,
            )
        return out
    budget = max(1, int(max_scalars) // max(dim, 1))
    if total <= budget:
        _segment_sum_into(
            out, stream, table_id, rows, delays, iteration, dim, std
        )
        return out
    # Row-aligned chunking: split where cumulative draws cross the
    # budget, never inside a row's segment.
    ends = np.cumsum(delays)
    start = 0
    while start < rows.size:
        drawn = 0 if start == 0 else int(ends[start - 1])
        stop = int(np.searchsorted(ends, drawn + budget, side="right"))
        stop = min(max(stop, start + 1), rows.size)
        _segment_sum_into(
            out[start:stop],
            stream,
            table_id,
            rows[start:stop],
            delays[start:stop],
            iteration,
            dim,
            std,
        )
        start = stop
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
    """Sum of per-iteration row noise over an inclusive iteration range.

    The uniform-delay case of :func:`batched_catchup_sum`: every row
    sums the same ``first_iteration .. last_iteration`` window, in one
    flattened invocation instead of one per iteration.
    """
    rows = np.asarray(rows, dtype=np.int64)
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
        max_scalars=max_scalars,
        max_row_scalars=max_row_scalars,
    )
