"""Sharded views of embedding tables and their lazy-noise bookkeeping.

``ShardedEmbeddingBag`` keeps the flat table (global row order) as the
storage of record — forward/backward and every gradient view are
inherited from :class:`repro.nn.layers.EmbeddingBag` unchanged, exactly
as the paper leaves forward/backward untouched.  What it adds is the
*model-update* structure: per-shard :class:`ShardSlab` windows (zero-copy
slice-view ``Parameter`` slabs for contiguous partitions, index windows
for hash partitions) so every noisy write stays shard-local.

``ShardedHistoryTable`` holds one :class:`HistoryTable` per shard,
indexed by shard-local row ids, while also implementing the flat
table's API (``delays`` / ``mark_updated`` / ``pending_rows`` /
``snapshot`` over global ids) so checkpointing and private-model export
work on sharded plans without change.  :func:`shard_windows` lays a
model out as the per-shard window lists
:class:`repro.lazydp.optimizer.ShardState` updates through.

Ownership invariants (what makes lock-free parallel and pipelined
updates legal):

* **Row ownership** — every global row belongs to exactly one shard
  (:class:`repro.shard.plan.TablePartition` is a partition in the
  mathematical sense), so per-row arithmetic happens exactly once, on
  state only that shard's task touches.
* **Noise keying** — noise is always drawn against *global* row ids;
  shard-local ids exist only for compact history/slab addressing.  A
  row's noise is therefore identical no matter which shard (or thread,
  or pipeline stage) draws it.
"""

from __future__ import annotations

import numpy as np

from ..lazydp.history import HistoryTable
from ..lazydp.ledger import VersionVector
from ..lazydp.optimizer import TableWindow
from ..nn.layers import EmbeddingBag
from ..nn.parameter import Parameter
from .plan import PartitionPlan, TablePartition
from .router import ShardRouter


class ShardSlab:
    """One shard's window onto an embedding table's parameter storage.

    For contiguous partitions the slab owns a real ``Parameter`` whose
    data is a zero-copy slice view of the flat table — reading or writing
    the slab touches exactly the shard's rows and nothing else.  For hash
    partitions the shard's rows are scattered, so the slab routes reads
    and writes through its global row list instead.
    """

    def __init__(self, table: Parameter, partition: TablePartition, shard_index: int):
        self.table = table
        self.shard_index = int(shard_index)
        self.rows = partition.shard_rows[shard_index]
        self.param: Parameter | None = None
        self._start = 0
        if partition.contiguous and self.rows.size:
            start, stop = int(self.rows[0]), int(self.rows[-1]) + 1
            self._start = start
            self.param = Parameter(
                f"{table.name}.shard_{shard_index}",
                table.data[start:stop],
                param_id=table.param_id,
                is_embedding=True,
            )

    @property
    def num_rows(self) -> int:
        return int(self.rows.size)

    @property
    def nbytes(self) -> int:
        return int(
            self.rows.size * self.table.data.shape[1] * self.table.data.itemsize
        )

    def read_rows(self, global_rows: np.ndarray) -> np.ndarray:
        """Values of shard-owned rows, addressed by global id."""
        if self.param is not None:
            return self.param.data[global_rows - self._start]
        return self.table.data[global_rows]

    def update_target(self) -> tuple:
        """``(array, row_base)`` the fused apply kernel writes through.

        A contiguous slab resolves to its zero-copy window with the
        window's global start as the row base; a hash slab resolves to
        the flat table addressed by global ids.  Either way the kernel
        touches exactly the bytes ``write_rows`` would.
        """
        if self.param is not None:
            return self.param.data, self._start
        return self.table.data, 0

    def window(self, history, ledger=None) -> TableWindow:
        """This slab as the :class:`TableWindow` a
        :class:`repro.lazydp.optimizer.ShardState` updates through —
        the same ``(array, row_base)`` as :meth:`update_target`, next
        to the shard's history / ledger windows."""
        return TableWindow(*self.update_target(), self.rows, history, ledger)

    def write_rows(
        self, global_rows: np.ndarray, values: np.ndarray, learning_rate: float
    ) -> None:
        """``row -= lr * value`` for shard-owned rows (global ids).

        Bitwise identical to the flat table's update: a contiguous slab
        is a view of the same memory, and the fancy-indexed fallback
        addresses the same elements.
        """
        if global_rows.size == 0:
            return
        if self.param is not None:
            self.param.data[global_rows - self._start] -= learning_rate * values
        else:
            self.table.data[global_rows] -= learning_rate * values

    def materialize(self) -> np.ndarray:
        """Copy of the shard's rows in shard-local order (diagnostics)."""
        if self.param is not None:
            return self.param.data.copy()
        return self.table.data[self.rows].copy()


class ShardedEmbeddingBag(EmbeddingBag):
    """An :class:`EmbeddingBag` carrying a partition and per-shard slabs.

    Forward, backward and all four gradient views are inherited — the
    flat table in global row order remains the storage of record, so
    every existing consumer (checkpointing, export, audit) keeps
    working.  The shard states update through ``slabs``
    (:meth:`ShardSlab.window`).
    """

    def __init__(self, table: Parameter, partition: TablePartition):
        super().__init__(table)
        if partition.num_rows != self.num_rows:
            raise ValueError(
                f"partition covers {partition.num_rows} rows, table "
                f"{table.name} has {self.num_rows}"
            )
        self.partition = partition
        self.slabs = [
            ShardSlab(table, partition, s) for s in range(partition.num_shards)
        ]

    @classmethod
    def adopt(
        cls, bag: EmbeddingBag, partition: TablePartition
    ) -> "ShardedEmbeddingBag":
        """Wrap an existing bag's table (shared storage, no copy)."""
        return cls(bag.table, partition)

    @property
    def num_shards(self) -> int:
        return len(self.slabs)

    def shard_rows(self, shard: int) -> np.ndarray:
        return self.partition.shard_rows[shard]


class ShardedHistoryTable:
    """Per-shard HistoryTables with a flat-compatible facade.

    ``shards[s]`` is shard ``s``'s own :class:`HistoryTable`, indexed by
    shard-local row ids — the window that shard's
    :class:`repro.lazydp.optimizer.ShardState` reads and advances on the
    hot path.  The flat API (global row ids) mirrors
    :class:`repro.lazydp.history.HistoryTable` so release/export and
    checkpoint code is oblivious to sharding.
    """

    BYTES_PER_ENTRY = HistoryTable.BYTES_PER_ENTRY

    def __init__(self, partition: TablePartition, shards: list | None = None):
        self.partition = partition
        #: One HistoryTable per shard (``None`` for an empty shard);
        #: ``shards`` passes in tables over caller-owned storage (the
        #: process backend's shared-memory windows).
        self.shards = shards if shards is not None else [
            HistoryTable(rows.size) if rows.size else None
            for rows in partition.shard_rows
        ]

    @property
    def num_rows(self) -> int:
        return self.partition.num_rows

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def nbytes(self) -> int:
        return int(sum(s.nbytes for s in self.shards if s is not None))

    def shard_pending_rows(self, shard: int, iteration: int) -> np.ndarray:
        """Shard-local ids of rows still owed noise."""
        if self.shards[shard] is None:
            return np.zeros(0, dtype=np.int64)
        return self.shards[shard].pending_rows(iteration)

    # -- flat-compatible API (global row ids) ------------------------------
    def _route(self, rows: np.ndarray) -> tuple:
        rows = np.asarray(rows, dtype=np.int64)
        return (self.partition.shard_of[rows], self.partition.local_of[rows], rows)

    def last_updated(self, rows: np.ndarray) -> np.ndarray:
        owners, locals_, rows = self._route(rows)
        out = np.zeros(rows.size, dtype=np.int32)
        for s in range(self.num_shards):
            mask = owners == s
            if mask.any():
                out[mask] = self.shards[s].last_updated(locals_[mask])
        return out

    def delays(self, rows: np.ndarray, iteration: int) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        delays = np.int64(iteration) - self.last_updated(rows).astype(np.int64)
        if np.any(delays < 0):
            raise ValueError(
                "HistoryTable is ahead of the requested iteration; "
                "rows must not be caught up twice in one iteration"
            )
        return delays

    def mark_updated(self, rows: np.ndarray, iteration: int) -> None:
        owners, locals_, rows = self._route(rows)
        for s in range(self.num_shards):
            mask = owners == s
            if mask.any():
                self.shards[s].mark_updated(locals_[mask], iteration)

    def pending_rows(self, iteration: int) -> np.ndarray:
        """Global ids of all rows still owed noise (sorted)."""
        pending = [
            self.partition.shard_rows[s][self.shard_pending_rows(s, iteration)]
            for s in range(self.num_shards)
        ]
        pending = [p for p in pending if p.size]
        if not pending:
            return np.zeros(0, dtype=np.int64)
        return np.sort(np.concatenate(pending))

    def snapshot(self) -> np.ndarray:
        """Global-order copy of the raw table (checkpointing, tests)."""
        out = np.zeros(self.num_rows, dtype=np.int32)
        for s, table in enumerate(self.shards):
            if table is not None:
                out[self.partition.shard_rows[s]] = table.snapshot()
        return out

    def load_snapshot(self, snapshot: np.ndarray) -> None:
        """Restore from a global-order snapshot (checkpoint resume)."""
        snapshot = np.asarray(snapshot, dtype=np.int32)
        if snapshot.shape[0] != self.num_rows:
            raise ValueError("snapshot size does not match table")
        for s, table in enumerate(self.shards):
            if table is not None:
                table.load_snapshot(snapshot[self.partition.shard_rows[s]])


def check_partition(model, plan: PartitionPlan) -> None:
    """Raise unless ``plan`` covers exactly ``model``'s tables and rows."""
    if plan.num_tables != len(model.embeddings):
        raise ValueError(
            f"plan covers {plan.num_tables} tables, model has "
            f"{len(model.embeddings)}"
        )
    for t, bag in enumerate(model.embeddings):
        if plan.table(t).num_rows != bag.num_rows:
            raise ValueError(
                f"plan table {t} covers {plan.table(t).num_rows} rows, "
                f"model table has {bag.num_rows}"
            )


def shard_windows(
    model, plan: PartitionPlan, with_ledger: bool = False, segments=None
) -> tuple:
    """The N-shard layout of ``model``: ``(windows, histories, router)``.

    ``windows[s][t]`` is shard ``s``'s :class:`TableWindow` of table
    ``t``; ``histories[t]`` the flat-API facade over the same per-shard
    HistoryTables.  Every bag is re-adopted as a
    :class:`ShardedEmbeddingBag` — always, because a bag sharded by an
    *earlier* trainer carries that plan's slabs, which would silently
    misaddress rows under this partition.  ``segments[t]`` (the process
    backend's shared-memory handles) supplies the history and ledger
    storage instead of private arrays.
    """
    check_partition(model, plan)
    windows: list = [[] for _ in range(plan.num_shards)]
    histories = []
    for t, bag in enumerate(model.embeddings):
        part = plan.table(t)
        sharded = model.embeddings[t] = ShardedEmbeddingBag(bag.table, part)
        shards = None
        if segments is not None:
            shards = [
                None if slab.num_rows == 0
                else HistoryTable.attach(segments[t].history_window(s))
                for s, slab in enumerate(sharded.slabs)
            ]
        history = ShardedHistoryTable(part, shards)
        histories.append(history)
        for s, slab in enumerate(sharded.slabs):
            ledger = None
            if with_ledger and slab.num_rows:
                ledger = (
                    VersionVector(slab.num_rows) if segments is None
                    else VersionVector.attach(segments[t].ledger_window(s))
                )
            windows[s].append(slab.window(history.shards[s], ledger))
    return windows, histories, ShardRouter(plan)
