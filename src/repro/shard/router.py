"""Scattering batch indices to shards and gathering results back.

The router is the glue between global row ids (what batches, gradients
and the noise stream speak) and shard-local row ids (what a shard's
history and ledger windows speak).  Every shard owns a contiguous row
range ``[lo, hi)`` of each table (:func:`repro.shard.plan.row_range_bounds`),
so ``scatter`` of a sorted row array is one ``searchsorted`` against the
table's bounds: shard ``s``'s rows
are a slice of the input and its local ids are ``global - lo``.
``gather`` reassembles per-shard row results into the input order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plan import row_range_bounds


@dataclass(frozen=True)
class RoutedIndices:
    """One table's sorted global index array split by owning shard.

    ``global_rows[s]`` is shard ``s``'s slice of the input (a view),
    ``local[s]`` the same rows less the shard's first row, and
    ``origin[s]`` the ``slice`` of input positions they came from, so
    ``gather`` can restore the input order.
    """

    table_index: int
    input_size: int
    local: tuple  # per shard: (n_s,) int64 local row ids
    global_rows: tuple  # per shard: (n_s,) int64 global row ids
    origin: tuple  # per shard: slice of input positions

    @property
    def num_shards(self) -> int:
        return len(self.local)

    def shard_count(self, shard: int) -> int:
        return int(self.local[shard].size)

    def counts(self) -> np.ndarray:
        """Per-shard routed index counts (load-balance diagnostics)."""
        return np.array([rows.size for rows in self.local], dtype=np.int64)


class ShardRouter:
    """Scatter/gather between global and shard-local index spaces."""

    def __init__(self, table_rows, num_shards: int):
        self.num_shards = int(num_shards)
        #: Per table, the ``num_shards + 1`` cut points of its row ranges.
        self.bounds = [
            row_range_bounds(int(rows), self.num_shards) for rows in table_rows
        ]

    def scatter(self, table_index: int, rows: np.ndarray) -> RoutedIndices:
        """Split ``rows`` (global ids, ascending, duplicates allowed) by
        owning shard.

        Each shard's rows are a contiguous slice of the input, so sorted
        unique inputs stay sorted unique per shard — the invariant
        HistoryTable and ``merge_sparse_updates`` rely on — and its
        gradient values are the same slice of the value array.
        """
        bounds = self.bounds[table_index]
        num_rows = int(bounds[-1])
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows[0] < 0 or rows[-1] >= num_rows):
            raise IndexError(
                f"row id out of range for table {table_index} "
                f"({num_rows} rows)"
            )
        cuts = np.searchsorted(rows, bounds).tolist()
        local, global_rows, origin = [], [], []
        for s in range(self.num_shards):
            span = slice(cuts[s], cuts[s + 1])
            shard_globals = rows[span]
            lo = int(bounds[s])
            local.append(shard_globals - lo if lo else shard_globals)
            global_rows.append(shard_globals)
            origin.append(span)
        return RoutedIndices(
            table_index=table_index,
            input_size=rows.size,
            local=tuple(local),
            global_rows=tuple(global_rows),
            origin=tuple(origin),
        )

    def gather(
        self, routed: RoutedIndices, per_shard_values: list, dim: int | None = None
    ) -> np.ndarray:
        """Reassemble per-shard row results into input order.

        ``per_shard_values[s]`` is ``(n_s, dim)`` (or ``(n_s,)``), aligned
        with ``routed.local[s]``.  Returns the array the flat code path
        would have produced for the original index array.
        """
        if len(per_shard_values) != routed.num_shards:
            raise ValueError("one value array per shard required")
        reference = None
        for values in per_shard_values:
            if values is not None and np.asarray(values).size:
                reference = np.asarray(values)
                break
        if reference is None:
            shape = (
                (routed.input_size,) if dim is None else (routed.input_size, dim)
            )
            return np.zeros(shape, dtype=np.float64)
        out_shape = (routed.input_size,) + reference.shape[1:]
        out = np.empty(out_shape, dtype=reference.dtype)
        for span, values in zip(routed.origin, per_shard_values):
            if span.stop > span.start:
                out[span] = values
        return out
