"""Fused hot-path kernels for the noisy model-update (apply phase).

The paper's Figure 6/11 analysis shows the noisy embedding update is
*bandwidth-bound* (85.5% of DRAM bandwidth at 2 AVX ops/element), so the
apply phase's cost is dominated by how many times the update rows
traverse memory — and by per-iteration allocations feeding those
traversals.  This package is the shared kernel layer every trainer's
apply phase sits on:

* :mod:`repro.kernels.arena` — the allocator policy set at import: the
  process keeps the blocks it frees, and :func:`owned
  <repro.kernels.arena.owned>` hands out per-step outputs in size
  classes, so a warm step's outputs and scratch map no new page.
* :func:`fused_noisy_update` — merges the clipped gradient with the
  staged catch-up noise and writes the parameter slab in one traversal,
  bitwise-identical to the reference ``merge_sparse_updates`` +
  ``table[rows] -= lr * values`` two-step (shared rows still see
  exactly one summed write); where the loader vouched for it
  (:mod:`repro.rng._native`) the inner loop is one pass of
  ``_sparse.c`` — the same bits, no scratch.
* :func:`batched_catchup_sum` — the no-ANS exact replay as ONE
  flattened ``(row, iteration)`` Philox invocation followed by a
  segmented sum, collapsing the O(max_delay) per-lag kernel launches of
  the eager-style loop to O(1).

The three hot kernels above are called through package-level wrappers
over the one :class:`KernelTable <repro.kernels.dispatch.KernelTable>`
(the vectorised numpy reference), so every consumer — serial / sharded
/ pipelined / async trainers, the terminal flush, the private serving
engine — shares one spelling and the benchmark tracer wraps all of them
at one swap point (see :mod:`repro.kernels.dispatch`).  The
bitwise-equivalence suites that pin trainer-vs-trainer equality
therefore also pin the kernels.
"""

from . import dispatch
from .dispatch import (
    KernelTable,
    active_kernel_table,
    register_kernel_table,
    set_kernel_backend,
)
from .fused import apply_sparse_update, fused_merge, merge_sparse_updates
from .sampler import DEFAULT_MAX_ROW_SCALARS, DEFAULT_MAX_SCALARS


def fused_noisy_update(
    table,
    learning_rate,
    grad_rows,
    grad_values,
    noise_rows,
    noise_values,
    row_base=0,
    timer=None,
):
    """The fused apply phase, routed through the active kernel table.

    See :func:`repro.kernels.fused.fused_noisy_update` (the numpy
    reference and contract holder).
    """
    return dispatch.active_kernel_table().fused_noisy_update(
        table,
        learning_rate,
        grad_rows,
        grad_values,
        noise_rows,
        noise_values,
        row_base=row_base,
        timer=timer,
    )


def batched_catchup_sum(
    stream,
    table_id,
    rows,
    delays,
    iteration,
    dim,
    std=1.0,
    max_scalars=DEFAULT_MAX_SCALARS,
    max_row_scalars=DEFAULT_MAX_ROW_SCALARS,
):
    """Per-row deferred-noise sum, routed through the active kernel table.

    See :func:`repro.kernels.sampler.batched_catchup_sum` for the
    contract (exact per-row sums, chunk/shard-invariant bits).
    """
    return dispatch.active_kernel_table().batched_catchup_sum(
        stream,
        table_id,
        rows,
        delays,
        iteration,
        dim,
        std=std,
        max_scalars=max_scalars,
        max_row_scalars=max_row_scalars,
    )


def batched_row_noise_sum(
    stream,
    table_id,
    rows,
    first_iteration,
    last_iteration,
    dim,
    std=1.0,
    max_scalars=DEFAULT_MAX_SCALARS,
    max_row_scalars=DEFAULT_MAX_ROW_SCALARS,
):
    """Uniform-window noise sum, routed through the active kernel table.

    See :func:`repro.kernels.sampler.batched_row_noise_sum`.
    """
    return dispatch.active_kernel_table().batched_row_noise_sum(
        stream,
        table_id,
        rows,
        first_iteration,
        last_iteration,
        dim,
        std=std,
        max_scalars=max_scalars,
        max_row_scalars=max_row_scalars,
    )


__all__ = [
    "KernelTable",
    "active_kernel_table",
    "apply_sparse_update",
    "batched_catchup_sum",
    "batched_row_noise_sum",
    "fused_merge",
    "fused_noisy_update",
    "merge_sparse_updates",
    "register_kernel_table",
    "set_kernel_backend",
]
