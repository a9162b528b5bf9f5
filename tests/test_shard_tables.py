"""Tests for the one table layout (repro.shard.tables).

A sharded table is the model's own table, history and ledger cut into
contiguous row ranges: each shard's window is a slice view, addressed
by local id ``row - lo``.
"""

import numpy as np
import pytest

from repro import configs
from repro.lazydp.history import HistoryTable
from repro.nn import DLRM
from repro.shard import ShardRouter, row_range_bounds, shard_windows


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


def layout(config, num_shards, with_ledger=False):
    """The model, table 0's cut points and the layout's four parts."""
    model = DLRM(config, seed=7)
    bounds = row_range_bounds(config.table_rows[0], num_shards)
    return model, bounds, *shard_windows(model, num_shards, with_ledger)


class TestShardedHistoryTable:
    """A sharded table's history: the table's one HistoryTable, each
    shard's window a slice of it."""

    @pytest.mark.parametrize("num_rows", [64, 67])
    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    def test_matches_flat_history(self, num_rows, num_shards):
        """The access script replayed through the shard windows (routed
        by the router, local ids) leaves the table's history exactly
        where the flat HistoryTable stands."""
        config = configs.tiny_dlrm(num_tables=2, rows=num_rows, dim=8, lookups=2)
        _, _, windows, histories, _, _ = layout(config, num_shards)
        router = ShardRouter(config.table_rows, num_shards)
        flat = HistoryTable(num_rows)
        replay(flat, ACCESS_SCRIPT)
        for rows, iteration in ACCESS_SCRIPT:
            routed = router.scatter(0, rows)
            for s, shard in enumerate(windows):
                if routed.shard_count(s):
                    shard[0].history.delays(routed.local[s], iteration)
                    shard[0].history.mark_updated(routed.local[s], iteration)

        sharded = histories[0]
        np.testing.assert_array_equal(flat.snapshot(), sharded.snapshot())
        probe = np.arange(num_rows)
        np.testing.assert_array_equal(
            flat.delays(probe, 9), sharded.delays(probe, 9)
        )
        np.testing.assert_array_equal(
            flat.pending_rows(9), sharded.pending_rows(9)
        )

    def test_shard_local_ops_match_flat_api(self, config):
        _, bounds, windows, histories, _, _ = layout(config, 3)
        rows = np.array([1, 8, 30, 55])
        histories[0].mark_updated(rows, 5)
        for s, shard in enumerate(windows):
            lo, hi = bounds[s], bounds[s + 1]
            owned = rows[(rows >= lo) & (rows < hi)]
            np.testing.assert_array_equal(
                shard[0].history.delays(owned - lo, 8), 8 - 5
            )

    def test_ahead_of_iteration_rejected(self, config):
        _, _, windows, histories, _, _ = layout(config, 2)
        histories[0].mark_updated(np.array([40]), 6)
        lo = windows[1][0].row_base
        with pytest.raises(ValueError):
            windows[1][0].history.delays(np.array([40 - lo]), 4)

    def test_snapshot_round_trip(self, config):
        """A checkpoint restore into the table's history is what every
        shard window then reads."""
        _, _, _, source, _, _ = layout(config, 4)
        replay(source[0], ACCESS_SCRIPT)
        _, _, windows, restored, _, _ = layout(config, 4)
        restored[0].load_snapshot(source[0].snapshot())
        np.testing.assert_array_equal(
            source[0].snapshot(), restored[0].snapshot()
        )
        np.testing.assert_array_equal(
            np.concatenate([shard[0].history.snapshot() for shard in windows]),
            source[0].snapshot(),
        )
        with pytest.raises(ValueError):
            restored[0].load_snapshot(np.zeros(3, dtype=np.int32))

    def test_nbytes_matches_flat(self, config):
        _, _, _, histories, _, _ = layout(config, 7)
        assert histories[0].nbytes == HistoryTable(64).nbytes

    def test_empty_padded_shard(self):
        """More shards than rows: the trailing shards own empty ranges,
        whose windows hold no history and no rows."""
        config = configs.tiny_dlrm(num_tables=1, rows=3, dim=8, lookups=1)
        _, bounds, windows, histories, _, _ = layout(config, 5)
        assert bounds.tolist() == [0, 1, 2, 3, 3, 3]
        assert windows[4][0].history is None
        assert windows[4][0].target.shape == (0, 8)
        histories[0].mark_updated(np.array([0, 1, 2]), 1)
        assert histories[0].pending_rows(1).size == 0


class TestShardedEmbeddingBag:
    """A sharded table's parameters: the model's own bag, each shard's
    window a slice view of its table."""

    def test_forward_matches_flat_bag(self, config):
        model, _, _, _, _, _ = layout(config, 3)
        reference = DLRM(config, seed=7)
        indices = np.array([[0, 63], [5, 5], [17, 40]])
        np.testing.assert_array_equal(
            model.embeddings[0].forward(indices),
            reference.embeddings[0].forward(indices),
        )

    def test_contiguous_slabs_are_views(self, config):
        model, bounds, windows, _, _, _ = layout(config, 4)
        table = model.embeddings[0].table
        for s, shard in enumerate(windows):
            lo, hi = bounds[s], bounds[s + 1]
            assert shard[0].target.base is table.data
            assert shard[0].row_base == lo
            assert shard[0].target.shape == (hi - lo, 8)
        # A window write is visible through the flat table (shared memory).
        lo = windows[1][0].row_base
        before = table.data[lo : lo + 2].copy()
        windows[1][0].target[:2] -= 0.5
        np.testing.assert_allclose(table.data[lo : lo + 2], before - 0.5)


class TestOneLayout:
    def test_one_range_is_the_whole_table(self, config):
        """One shard lays out one whole-table window per table, no
        router; its history and ledger are the tables' own."""
        model = DLRM(config, seed=7)
        (windows,), histories, ledgers, router = shard_windows(
            model, with_ledger=True
        )
        assert router is None
        for bag, window, history, ledger in zip(
            model.embeddings, windows, histories, ledgers
        ):
            assert window.whole and window.row_base == 0
            assert window.target is bag.table.data
            window.history.mark_updated(np.array([3]), 2)
            assert history.last_updated(np.array([3]))[0] == 2
            window.ledger.advance(np.array([3]), np.array([2]), 2)
            assert ledger.applied_through(np.array([3]))[0] == 2

    @pytest.mark.parametrize("num_shards", [2, 7])
    def test_ledger_windows_are_slices_of_one_vector(self, config, num_shards):
        _, bounds, windows, _, ledgers, router = layout(
            config, num_shards, with_ledger=True
        )
        assert isinstance(router, ShardRouter)
        assert len(ledgers) == config.num_tables
        for s, shard in enumerate(windows):
            lo, hi = bounds[s], bounds[s + 1]
            assert not shard[0].whole
            if hi > lo:
                shard[0].ledger.advance(np.array([0]), np.array([1]), 1)
                assert ledgers[0].applied_through(np.array([lo]))[0] == 1
        assert ledgers[0].pending_rows(1).size == 64 - np.count_nonzero(
            np.diff(bounds)
        )
