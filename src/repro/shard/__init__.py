"""Sharded embedding layout: partitioned tables and how shard tasks run.

The one-shard engine holds every embedding table as one array; at the
paper's 100s-of-GB scale a production system partitions each table into
shards and updates them in parallel.  This package supplies the layout
and the schedule — the update itself is
:class:`repro.lazydp.optimizer.ShardState`, the same code for one shard
or many:

* :mod:`plan <repro.shard.plan>` — :func:`row_range_bounds`: every
  table cut into contiguous equal-row ranges (``num_shards + 1`` ints
  per table).
* :mod:`router <repro.shard.router>` — :class:`ShardRouter` splitting a
  batch's sorted per-table rows into per-shard slices with local ids
  ``row - lo``, and gathering results back.
* :mod:`tables <repro.shard.tables>` — :func:`shard_windows`, the one
  layout every plan shares: one slab, one HistoryTable and one
  VersionVector per table, each shard's
  :class:`repro.lazydp.optimizer.TableWindow` a slice view of them.
* :mod:`executor <repro.shard.executor>` — serial and thread-pool shard
  executors.
"""

from .executor import SerialExecutor, ShardExecutor, ThreadPoolShardExecutor
from .plan import row_range_bounds
from .router import RoutedIndices, ShardRouter
from .tables import shard_windows

__all__ = [
    "SerialExecutor",
    "ShardExecutor",
    "ThreadPoolShardExecutor",
    "RoutedIndices",
    "ShardRouter",
    "row_range_bounds",
    "shard_windows",
]
