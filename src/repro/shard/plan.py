"""Where every table is cut into shards.

Shard ``s`` of a table owns the contiguous rows ``[bounds[s],
bounds[s + 1])``: equal-row ranges whose sizes differ by at most one
row.  A shard's parameters, history and ledger are slice views of the
table's one slab, one HistoryTable and one VersionVector, so the cut is
``num_shards + 1`` integers per table — no per-row map.  The cut is a
pure function of ``(num_rows, num_shards)``, so the router and every
worker process agree on ownership without exchanging it.
"""

from __future__ import annotations

import numpy as np


def row_range_bounds(num_rows: int, num_shards: int) -> np.ndarray:
    """The ``num_shards + 1`` cut points of a ``num_rows``-row table.

    With more shards than rows the trailing shards own empty ranges.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be positive")
    shards = min(num_shards, num_rows)
    bounds = np.linspace(0, num_rows, shards + 1).round().astype(np.int64)
    return np.pad(bounds, (0, num_shards - shards), constant_values=num_rows)
