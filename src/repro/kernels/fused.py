"""Single-pass noisy-update scatter: merge + slab write in one traversal.

The reference apply phase (Algorithm 1 lines 19-25) ran four passes over
the update rows — a ``union1d`` sort, a scratch ``zeros`` fill, and two
``searchsorted`` scatter-adds — followed by a fancy-indexed
read-modify-write of the slab that allocates a gathered temporary and a
``lr * values`` product.  :func:`fused_noisy_update` produces the same
bits with one merge pass over the two (sorted, unique) row sets and one
gather/subtract/scatter traversal of the slab.  Its intermediates are
plain temporaries and :func:`owned <repro.kernels.arena.owned>` blocks:
the process keeps the blocks it frees, so a warm call maps no new page.

Bitwise contract: for sorted unique inputs the result is identical to
``merge_sparse_updates`` + ``table[rows] -= lr * values`` — shared rows
see exactly one summed write ``grad + noise`` (IEEE addition is
commutative, so operand order cannot change the bits), and the slab
update computes ``value - lr * merged`` with the same two operations.
The single deliberate deviation: a row whose merged value is a signed
zero may carry the opposite zero sign than the reference's ``0.0 + x``
accumulation produced — indistinguishable under ``==`` and harmless to
the written slab unless the parameter itself is a negative zero.

Unsorted or duplicate-bearing inputs fall back to the reference merge;
the hot paths all feed sorted unique rows (``np.unique`` batch dedup,
sorted pending-row lists, and the shard router preserves per-shard
sortedness).

Where :mod:`repro.rng._native` loaded the compiled library, the same
arithmetic runs as one two-pointer pass of ``_sparse.c`` with no
intermediate at all (:func:`_compiled_update`) — the bits of the numpy
fused path, signed-zero note included.  The numpy expressions below are
the reference it is tested against, what a host without a C compiler
runs, and what runs whenever the compiled pass refuses its operands.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from ..rng import _native
from .arena import owned


def merge_sparse_updates(
    rows_a: np.ndarray,
    values_a: np.ndarray,
    rows_b: np.ndarray,
    values_b: np.ndarray,
) -> tuple:
    """Union two sparse row-update sets, summing values on shared rows.

    This is Algorithm 1 line 20: ``noisy_gradient <- gradient + noise``,
    where the gradient covers the current batch's rows and the noise
    covers the next batch's rows.  The reference (allocating)
    implementation; :func:`fused_merge` is the one-pass fast path and
    :mod:`tests.test_kernels` pins their equivalence.
    """
    if rows_a.size == 0:
        return rows_b, values_b
    if rows_b.size == 0:
        return rows_a, values_a
    rows = np.union1d(rows_a, rows_b)
    dim = values_a.shape[1]
    values = np.zeros((rows.shape[0], dim), dtype=np.float64)
    values[np.searchsorted(rows, rows_a)] += values_a
    values[np.searchsorted(rows, rows_b)] += values_b
    return rows, values


def _sorted_unique(rows: np.ndarray) -> bool:
    """Cheap strictly-increasing check (one vectorised compare)."""
    if rows.size < 2:
        return True
    return bool(np.all(rows[1:] > rows[:-1]))


def fused_merge(
    grad_rows: np.ndarray,
    grad_values: np.ndarray,
    noise_rows: np.ndarray,
    noise_values: np.ndarray,
) -> tuple:
    """Merge two sorted-unique sparse update sets in one pass.

    Returns ``(rows, values)``: new arrays when both sides are
    non-empty, and for a one-sided merge the caller's arrays unchanged,
    exactly like :func:`merge_sparse_updates`'s early returns.

    Each union slot is written exactly once: gradient-only slots take
    the gradient value, noise-only slots the noise value, and shared
    slots the single sum ``grad + noise`` — the "one summed write"
    invariant double application of either operand would break.
    """
    na, nb = grad_rows.size, noise_rows.size
    if na == 0:
        return noise_rows, noise_values
    if nb == 0:
        return grad_rows, grad_values
    dim = grad_values.shape[1]

    # One binary-search pass positions every noise row among the grad
    # rows; equality at the insertion point marks a shared row.
    insert = np.searchsorted(grad_rows, noise_rows)
    shared = grad_rows[np.minimum(insert, na - 1)] == noise_rows
    shared &= insert < na
    n_shared = int(np.count_nonzero(shared))
    n_union = na + nb - n_shared

    rows = np.empty(n_union, dtype=np.int64)
    values = owned((n_union, dim))

    if n_shared == 0:
        # Disjoint: standard merge arithmetic, direct scatters.
        pos_b = insert + np.arange(nb, dtype=np.int64)
        pos_a = np.arange(na, dtype=np.int64)
        pos_a += np.searchsorted(noise_rows, grad_rows)
        rows[pos_a] = grad_rows
        rows[pos_b] = noise_rows
        values[pos_a] = grad_values
        values[pos_b] = noise_values
        return rows, values

    # General case.  A noise row's union position is its insertion point
    # among grad rows plus the number of noise-only rows before it; a
    # grad row's is its own index plus the noise-only rows before it.
    keep = ~shared
    before = np.cumsum(keep)
    before -= keep  # exclusive cumsum: noise-only rows strictly earlier
    pos_b = insert + before
    only_b = np.nonzero(keep)[0]
    b_rows = noise_rows[only_b]
    pos_a = np.arange(na, dtype=np.int64)
    pos_a += np.searchsorted(b_rows, grad_rows)

    rows[pos_a] = grad_rows
    values[pos_a] = grad_values

    pos_only_b = pos_b[only_b]
    rows[pos_only_b] = b_rows
    values[pos_only_b] = noise_values[only_b]

    # Shared rows: one summed write (grad + noise), overwriting the
    # gradient value scattered above.
    in_b = np.nonzero(shared)[0]
    in_a = insert[in_b]
    acc = grad_values[in_a]
    acc += noise_values[in_b]
    values[pos_b[in_b]] = acc
    return rows, values


def _update_set(rows, values, dim: int):
    """``(rows address, values address, count)`` of one side of
    :func:`_compiled_update` — ``(None, None, 0)`` for no side — or
    ``None`` where the layout is not what ``_sparse.c`` indexes."""
    if rows is None:
        return None, None, 0
    if not (
        _native.vector(rows, np.int64)
        and _native.f64_matrix(values)
        and values.shape == (rows.size, dim)
    ):
        return None
    return _native.address(rows), _native.address(values), rows.size


def _compiled_update(
    lib,
    table: np.ndarray,
    target: np.ndarray,
    learning_rate: float,
    grad_rows: np.ndarray | None,
    grad_values: np.ndarray | None,
    noise_rows: np.ndarray | None,
    noise_values: np.ndarray | None,
    row_base: int,
) -> int:
    """``target[r] = table[r] - lr * (grad | noise | grad + noise)`` over
    the union of the two row sets as one pass of ``_sparse.c``; either
    side may be ``None`` (no rows).

    Returns the number of rows written, or a negative refusal with
    nothing written: the operands are not what the library was built
    for (layouts, checked here once each; sorted-unique rows inside the
    slab, checked in C before the first store) and the numpy path runs
    — and raises, wraps or falls back exactly as it always did.
    """
    if not (
        _native.f64_matrix(table)
        and target.flags.writeable
        and isinstance(learning_rate, (float, int))
        and isinstance(row_base, int)
    ):
        return -1
    if target is not table and not (
        _native.f64_matrix(target)
        and target.shape == table.shape
        and not np.may_share_memory(table, target)
    ):
        return -1
    dim = table.shape[1]
    grad = _update_set(grad_rows, grad_values, dim)
    noise = _update_set(noise_rows, noise_values, dim)
    if grad is None or noise is None:
        return -1
    return lib.sparse_rows_update(
        _native.address(table), _native.address(target), table.shape[0], dim,
        row_base, learning_rate, *grad, *noise,
    )


def apply_sparse_update(
    table: np.ndarray,
    rows: np.ndarray,
    values: np.ndarray,
    learning_rate: float,
    row_base: int = 0,
    out: np.ndarray | None = None,
    values_writable: bool = False,
) -> None:
    """``table[rows - row_base] -= lr * values`` in one slab traversal.

    Bitwise-identical to the fancy-indexed reference expression (the
    same ``value - lr * merged`` per element): scale (into ``values``
    itself, or an :func:`owned <repro.kernels.arena.owned>` float64
    block), gather, subtract, scatter.  A run of consecutive rows is
    updated through a slice instead.

    ``row_base`` shifts global row ids into a contiguous shard slab's
    local window.  ``out`` redirects the written rows into a different
    array of the same geometry (the serving engine's memo) instead of
    updating ``table`` in place.  ``values_writable=True`` lets the
    kernel scale ``values`` in place (legal only for scratch the caller
    does not reuse, e.g. the values :func:`fused_merge` returns).
    """
    n = rows.size
    if n == 0:
        return
    lib = _native.LIB
    if (
        lib is not None
        and rows[-1] - rows[0] != n - 1  # a consecutive run: the slice path's
        and _compiled_update(
            lib, table, table if out is None else out, learning_rate,
            rows, values, None, None, row_base,
        ) >= 0
    ):
        return
    scaled = np.multiply(
        values, learning_rate, out=values if values_writable else owned(values.shape)
    )
    target = table if out is None else out
    if rows[-1] - rows[0] == n - 1 and _sorted_unique(rows):
        # Consecutive rows (every chunk of an all-pending terminal
        # flush): one slice read-modify-write, no gather / scatter.
        start = int(rows[0]) - row_base
        np.subtract(table[start : start + n], scaled, out=target[start : start + n])
        return
    index = rows - row_base if row_base else rows
    gathered = table[index]
    np.subtract(gathered, scaled, out=gathered)
    target[index] = gathered


def fused_noisy_update(
    table: np.ndarray,
    learning_rate: float,
    grad_rows: np.ndarray,
    grad_values: np.ndarray,
    noise_rows: np.ndarray,
    noise_values: np.ndarray,
    row_base: int = 0,
    timer=None,
) -> int:
    """The fused apply phase: merge gradient + staged noise, write the slab.

    Single-pass replacement for ``merge_sparse_updates`` followed by
    ``table[rows] -= lr * values`` (Algorithm 1 lines 19-25), preserving
    the phase's two stage timings (``noisy_grad_generation`` /
    ``noisy_grad_update``).  Returns the number of union rows written.

    The compiled pass is one interval: it is timed as
    ``noisy_grad_update`` beside an empty ``noisy_grad_generation``.
    ``timer.count("numpy_applies")`` counts the calls the numpy
    expressions ran (0 on the compiled pass, so the stage and counter
    names do not depend on the host) — which apply ran, in the
    counters of any fit.
    """
    lib = _native.LIB
    if lib is not None:
        generation = timer.time("noisy_grad_generation") if timer else nullcontext()
        with generation:
            pass
        update = timer.time("noisy_grad_update") if timer else nullcontext()
        with update:
            written = _compiled_update(
                lib, table, table, learning_rate,
                grad_rows, grad_values, noise_rows, noise_values, row_base,
            )
        if written >= 0:
            if timer is not None:
                timer.count("numpy_applies", 0)
            return written
    sortable = _sorted_unique(grad_rows) and _sorted_unique(noise_rows)

    generation = timer.time("noisy_grad_generation") if timer else nullcontext()
    with generation:
        if sortable:
            rows, values = fused_merge(
                grad_rows, grad_values, noise_rows, noise_values
            )
        else:
            # Fallback for inputs no hot path produces.
            rows, values = merge_sparse_updates(
                grad_rows, grad_values, noise_rows, noise_values
            )

    # A one-sided merge aliases the caller's arrays; only the merge's
    # own values may be scaled in place.
    writable = values is not grad_values and values is not noise_values
    update = timer.time("noisy_grad_update") if timer else nullcontext()
    with update:
        apply_sparse_update(
            table,
            rows,
            values,
            learning_rate,
            row_base=row_base,
            values_writable=writable,
        )
    if timer is not None:
        timer.count("numpy_applies")
    return int(rows.size)
