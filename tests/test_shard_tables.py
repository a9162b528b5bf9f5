"""Tests for sharded tables and history (repro.shard.tables)."""

import numpy as np
import pytest

from repro import configs
from repro.lazydp.history import HistoryTable
from repro.nn import DLRM
from repro.shard import (
    ShardedEmbeddingBag,
    ShardedHistoryTable,
    build_partition_plan,
)


@pytest.fixture
def config():
    return configs.tiny_dlrm(num_tables=2, rows=64, dim=8, lookups=2)


def replay(history, script):
    """Apply a (rows, iteration) access script to any history table."""
    for rows, iteration in script:
        history.delays(rows, iteration)
        history.mark_updated(rows, iteration)


ACCESS_SCRIPT = [
    (np.array([0, 3, 17, 40, 63]), 1),
    (np.array([3, 5, 41]), 2),
    (np.array([0, 62, 63]), 4),
    (np.array([17]), 7),
]


class TestShardedHistoryTable:
    @pytest.mark.parametrize("strategy", ["row_range", "hash"])
    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    def test_matches_flat_history(self, config, strategy, num_shards):
        plan = build_partition_plan(config, num_shards, strategy=strategy)
        flat = HistoryTable(64)
        sharded = ShardedHistoryTable(plan.table(0))

        replay(flat, ACCESS_SCRIPT)
        replay(sharded, ACCESS_SCRIPT)

        np.testing.assert_array_equal(flat.snapshot(), sharded.snapshot())
        probe = np.arange(64)
        np.testing.assert_array_equal(
            flat.delays(probe, 9), sharded.delays(probe, 9)
        )
        np.testing.assert_array_equal(
            flat.pending_rows(9), sharded.pending_rows(9)
        )

    def test_shard_local_ops_match_flat_api(self, config):
        plan = build_partition_plan(config, 3, strategy="hash")
        part = plan.table(0)
        sharded = ShardedHistoryTable(part)
        rows = np.array([1, 8, 30, 55])
        sharded.mark_updated(rows, 5)
        for s in range(3):
            owned = rows[part.shard_of[rows] == s]
            local = part.local_of[owned]
            np.testing.assert_array_equal(
                sharded.shards[s].delays(local, 8), 8 - 5
            )

    def test_ahead_of_iteration_rejected(self, config):
        sharded = ShardedHistoryTable(build_partition_plan(config, 2).table(0))
        sharded.mark_updated(np.array([5]), 6)
        with pytest.raises(ValueError):
            sharded.delays(np.array([5]), 4)

    def test_snapshot_round_trip(self, config):
        plan = build_partition_plan(config, 4, strategy="hash")
        source = ShardedHistoryTable(plan.table(0))
        replay(source, ACCESS_SCRIPT)
        restored = ShardedHistoryTable(plan.table(0))
        restored.load_snapshot(source.snapshot())
        np.testing.assert_array_equal(
            source.snapshot(), restored.snapshot()
        )
        with pytest.raises(ValueError):
            restored.load_snapshot(np.zeros(3, dtype=np.int32))

    def test_nbytes_matches_flat(self, config):
        plan = build_partition_plan(config, 7)
        assert ShardedHistoryTable(plan.table(0)).nbytes == \
            HistoryTable(64).nbytes

    def test_empty_padded_shard(self):
        config = configs.tiny_dlrm(num_tables=1, rows=3, dim=8, lookups=1)
        plan = build_partition_plan(config, 5)
        sharded = ShardedHistoryTable(plan.table(0))
        assert sharded.shard_pending_rows(4, 1).size == 0
        sharded.mark_updated(np.array([0, 1, 2]), 1)
        assert sharded.pending_rows(1).size == 0


class TestShardedEmbeddingBag:
    @pytest.mark.parametrize("strategy", ["row_range", "hash"])
    def test_forward_matches_flat_bag(self, config, strategy):
        model = DLRM(config, seed=7)
        reference = DLRM(config, seed=7)
        plan = build_partition_plan(config, 3, strategy=strategy)
        bag = ShardedEmbeddingBag.adopt(model.embeddings[0], plan.table(0))
        indices = np.array([[0, 63], [5, 5], [17, 40]])
        np.testing.assert_array_equal(
            bag.forward(indices),
            reference.embeddings[0].forward(indices),
        )

    def test_contiguous_slabs_are_views(self, config):
        model = DLRM(config, seed=7)
        table = model.embeddings[0].table
        plan = build_partition_plan(config, 4, strategy="row_range")
        bag = ShardedEmbeddingBag.adopt(model.embeddings[0], plan.table(0))
        for slab in bag.slabs:
            assert slab.param is not None
            assert slab.param.data.base is table.data
        # A slab write is visible through the flat table (shared memory).
        rows = bag.shard_rows(1)[:2]
        before = table.data[rows].copy()
        bag.slabs[1].write_rows(rows, np.ones((2, 8)), 0.5)
        np.testing.assert_allclose(table.data[rows], before - 0.5)

    def test_hash_slabs_write_same_rows(self, config):
        model = DLRM(config, seed=7)
        table = model.embeddings[0].table
        plan = build_partition_plan(config, 4, strategy="hash")
        bag = ShardedEmbeddingBag.adopt(model.embeddings[0], plan.table(0))
        slab = bag.slabs[2]
        assert slab.param is None          # scattered rows: index window
        rows = slab.rows[:3]
        before = table.data[rows].copy()
        slab.write_rows(rows, np.full((3, 8), 2.0), 0.25)
        np.testing.assert_allclose(table.data[rows], before - 0.5)
        np.testing.assert_allclose(slab.read_rows(rows), table.data[rows])

    def test_materialize_and_nbytes(self, config):
        model = DLRM(config, seed=7)
        plan = build_partition_plan(config, 2, strategy="hash")
        bag = ShardedEmbeddingBag.adopt(model.embeddings[0], plan.table(0))
        total = sum(slab.nbytes for slab in bag.slabs)
        assert total == model.embeddings[0].table.data.nbytes
        for slab in bag.slabs:
            np.testing.assert_array_equal(
                slab.materialize(), bag.table.data[slab.rows]
            )

    def test_partition_size_mismatch_rejected(self, config):
        model = DLRM(config, seed=7)
        other = configs.tiny_dlrm(num_tables=2, rows=32, dim=8, lookups=2)
        plan = build_partition_plan(other, 2)
        with pytest.raises(ValueError, match="rows"):
            ShardedEmbeddingBag.adopt(model.embeddings[0], plan.table(0))
