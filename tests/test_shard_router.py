"""Round-trip property tests for the shard router (repro.shard.router)."""

import numpy as np
import pytest

from repro import configs
from repro.data.skew import zipf_weights
from repro.shard import ShardRouter, row_range_bounds


@pytest.fixture
def config():
    return configs.tiny_dlrm(num_tables=2, rows=128, dim=8, lookups=2)


def router_for(config, num_shards, num_rows=None):
    """A router over ``config``'s tables, or over two ``num_rows``-row
    tables (an uneven cut when ``num_shards`` does not divide it)."""
    table_rows = config.table_rows if num_rows is None else [num_rows] * 2
    return ShardRouter(table_rows, num_shards)


def skewed_rows(num_rows, count, exponent, seed):
    """Zipf-distributed row draws, sorted (duplicates included): the
    router's input contract."""
    weights = zipf_weights(num_rows, exponent)
    probabilities = weights / weights.sum()
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(num_rows, size=count, p=probabilities))


class TestScatterGatherRoundTrip:
    @pytest.mark.parametrize("num_rows", [128, 125])
    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    @pytest.mark.parametrize("exponent", [0.3, 1.0, 1.8])
    def test_values_survive_round_trip(self, config, num_rows, num_shards,
                                       exponent):
        """gather(scatter(rows)) restores per-row values in input order."""
        router = router_for(config, num_shards, num_rows)
        rows = skewed_rows(num_rows, 300, exponent, seed=num_shards)
        routed = router.scatter(0, rows)
        assert sum(routed.counts()) == rows.size
        # Per-shard "computation": value = global row id (identity probe).
        per_shard = [
            np.stack([g.astype(np.float64)] * 4, axis=1)
            for g in routed.global_rows
        ]
        gathered = router.gather(routed, per_shard)
        np.testing.assert_array_equal(gathered[:, 0], rows.astype(np.float64))

    @pytest.mark.parametrize("num_rows", [128, 125])
    def test_local_ids_address_owner_rows(self, config, num_rows):
        router = router_for(config, 4, num_rows)
        rows = skewed_rows(num_rows, 200, 1.2, seed=9)
        routed = router.scatter(0, rows)
        bounds = row_range_bounds(num_rows, 4)
        np.testing.assert_array_equal(router.bounds[0], bounds)
        for s in range(4):
            lo, hi = bounds[s], bounds[s + 1]
            np.testing.assert_array_equal(
                routed.local[s] + lo, routed.global_rows[s]
            )
            assert np.all((routed.global_rows[s] >= lo) & (routed.global_rows[s] < hi))

    def test_a_shard_is_a_slice_of_the_input(self, config):
        """Each shard's rows are a view of the input, so its gradient
        values are the same slice of the value array."""
        router = router_for(config, 3)
        rows = np.unique(skewed_rows(128, 400, 0.3, seed=4))
        routed = router.scatter(0, rows)
        for s in range(3):
            assert np.shares_memory(routed.global_rows[s], rows)
            np.testing.assert_array_equal(
                rows[routed.origin[s]], routed.global_rows[s]
            )

    def test_row_on_a_bound_belongs_to_the_upper_shard(self, config):
        router = router_for(config, 4)
        below, lo = router.bounds[0][1], router.bounds[0][2]
        routed = router.scatter(0, np.array([lo - 1, lo, lo + 1]))
        assert routed.counts().tolist() == [0, 1, 2, 0]
        np.testing.assert_array_equal(routed.local[1], [lo - 1 - below])
        np.testing.assert_array_equal(routed.local[2], [0, 1])

    def test_sorted_unique_input_stays_sorted_per_shard(self, config):
        """The invariant HistoryTable and merge_sparse_updates rely on."""
        router = router_for(config, 3, 125)
        rows = np.unique(skewed_rows(125, 400, 1.0, seed=3))
        routed = router.scatter(0, rows)
        for s in range(3):
            shard_globals = routed.global_rows[s]
            assert np.all(np.diff(shard_globals) > 0)   # sorted, unique

    def test_empty_input(self, config):
        router = router_for(config, 3)
        routed = router.scatter(0, np.empty(0, dtype=np.int64))
        assert routed.input_size == 0
        gathered = router.gather(
            routed, [np.zeros((0, 8))] * 3, dim=8
        )
        assert gathered.shape == (0, 8)

    def test_out_of_range_rejected(self, config):
        router = router_for(config, 2)
        with pytest.raises(IndexError):
            router.scatter(0, np.array([128]))
        with pytest.raises(IndexError):
            router.scatter(0, np.array([-1]))
        with pytest.raises(IndexError):
            router.scatter(0, np.array([0, 5, 128]))

    def test_hot_row_all_on_one_shard(self, config):
        """Worst-case skew: every lookup hits one row -> one shard."""
        router = router_for(config, 4)
        rows = np.zeros(100, dtype=np.int64)
        counts = router.scatter(0, rows).counts()
        assert counts.max() == 100
        assert np.count_nonzero(counts) == 1

    def test_more_shards_than_rows_routes_nothing_to_empty_shards(self, config):
        """Trailing shards of a short table own empty ranges and see no
        rows; every row still lands on its one owner."""
        router = router_for(config, 5, 3)
        routed = router.scatter(0, np.array([0, 1, 1, 2]))
        assert routed.counts().tolist() == [1, 2, 1, 0, 0]
        assert all(local.size == 0 or local.max() == 0 for local in routed.local)
