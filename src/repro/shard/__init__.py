"""Sharded embedding layout: partitioned tables and how shard tasks run.

The one-shard engine holds every embedding table as one array; at the
paper's 100s-of-GB scale a production system partitions each table into
shards and updates them in parallel.  This package supplies the layout
and the schedule — the update itself is
:class:`repro.lazydp.optimizer.ShardState`, the same code for one shard
or many:

* :mod:`plan <repro.shard.plan>` — :class:`PartitionPlan` + planners
  (``row_range`` / ``frequency`` / ``hash``), frequency-balanced from
  observed trace statistics.
* :mod:`router <repro.shard.router>` — :class:`ShardRouter` scattering a
  batch's per-table indices into shard-local index arrays and gathering
  results back.
* :mod:`tables <repro.shard.tables>` — :class:`ShardedEmbeddingBag`
  (per-shard ``Parameter`` slabs), :class:`ShardedHistoryTable`
  (per-shard delay bookkeeping, flat-API compatible) and
  :func:`shard_windows`, which lays a model out as per-shard
  :class:`repro.lazydp.optimizer.TableWindow` lists.
* :mod:`executor <repro.shard.executor>` — serial and thread-pool shard
  executors.
"""

from .executor import SerialExecutor, ShardExecutor, ThreadPoolShardExecutor
from .plan import (
    PARTITION_STRATEGIES,
    PartitionPlan,
    TablePartition,
    access_weights_from_skew,
    access_weights_from_trace,
    build_partition_plan,
    partition_frequency,
    partition_hash,
    partition_row_range,
    plan_from_loader,
)
from .router import RoutedIndices, ShardRouter
from .tables import (
    ShardedEmbeddingBag,
    ShardedHistoryTable,
    ShardSlab,
    shard_windows,
)

__all__ = [
    "SerialExecutor",
    "ShardExecutor",
    "ThreadPoolShardExecutor",
    "PARTITION_STRATEGIES",
    "PartitionPlan",
    "TablePartition",
    "access_weights_from_skew",
    "access_weights_from_trace",
    "build_partition_plan",
    "partition_frequency",
    "partition_hash",
    "partition_row_range",
    "plan_from_loader",
    "RoutedIndices",
    "ShardRouter",
    "ShardedEmbeddingBag",
    "ShardedHistoryTable",
    "ShardSlab",
    "shard_windows",
]
