"""Tests for the partition planner (repro.shard.plan)."""

import numpy as np
import pytest

from repro import configs
from repro.data.skew import SkewSpec, paper_skew_spec, zipf_weights
from repro.shard import (
    PARTITION_STRATEGIES,
    access_weights_from_skew,
    access_weights_from_trace,
    build_partition_plan,
    partition_frequency,
    partition_hash,
    partition_row_range,
    plan_from_loader,
)
from repro.testing import make_loader


@pytest.fixture
def config():
    return configs.tiny_dlrm(num_tables=3, rows=64, dim=8, lookups=2)


class TestStrategies:
    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    def test_partition_is_exact(self, config, strategy, num_shards):
        plan = build_partition_plan(config, num_shards, strategy=strategy)
        assert plan.num_shards == num_shards
        assert plan.num_tables == config.num_tables
        for part in plan.tables:
            part.validate()   # every row owned exactly once

    def test_row_range_balanced_and_contiguous(self):
        part = partition_row_range(0, 100, 7)
        sizes = [rows.size for rows in part.shard_rows]
        assert sum(sizes) == 100
        assert max(sizes) - min(sizes) <= 1
        assert part.contiguous
        for rows in part.shard_rows:
            if rows.size:
                np.testing.assert_array_equal(
                    rows, np.arange(rows[0], rows[-1] + 1)
                )

    def test_hash_is_deterministic_and_spread(self):
        a = partition_hash(0, 4096, 4)
        b = partition_hash(0, 4096, 4)
        np.testing.assert_array_equal(a.shard_of, b.shard_of)
        sizes = np.array([rows.size for rows in a.shard_rows])
        # Hash spread: no shard more than 25% off the mean.
        assert np.all(np.abs(sizes - sizes.mean()) < 0.25 * sizes.mean())
        # Different tables get different scatters (salted by table index).
        other = partition_hash(1, 4096, 4)
        assert np.any(a.shard_of != other.shard_of)

    def test_frequency_balances_zipf_mass(self):
        num_rows = 4096
        weights = zipf_weights(num_rows, 1.0)
        part = partition_frequency(0, weights, 4)
        part.validate()
        assert part.contiguous
        masses = np.array(
            [weights[rows].sum() for rows in part.shard_rows]
        )
        # Equal-mass cuts: every shard within 2x of the mean mass, while
        # equal-row cuts would give the head shard ~3.4x the mean.
        assert masses.max() / masses.mean() < 2.0
        naive = partition_row_range(0, num_rows, 4)
        naive_masses = np.array(
            [weights[rows].sum() for rows in naive.shard_rows]
        )
        assert masses.max() < naive_masses.max()

    def test_frequency_zero_weights_falls_back_to_row_range(self):
        part = partition_frequency(0, np.zeros(50), 5)
        part.validate()
        sizes = [rows.size for rows in part.shard_rows]
        assert max(sizes) - min(sizes) <= 1


class TestPlanEdges:
    def test_more_shards_than_rows_pads_empty(self):
        config = configs.tiny_dlrm(num_tables=2, rows=3, dim=8, lookups=1)
        plan = build_partition_plan(config, 5)
        for part in plan.tables:
            assert part.num_shards == 5
            assert sum(rows.size for rows in part.shard_rows) == 3
        part.validate()

    def test_invalid_inputs_rejected(self, config):
        with pytest.raises(ValueError, match="num_shards"):
            build_partition_plan(config, 0)
        with pytest.raises(ValueError, match="strategy"):
            build_partition_plan(config, 2, strategy="nope")
        with pytest.raises(ValueError, match="weights"):
            build_partition_plan(
                config, 2, strategy="frequency",
                weights_per_table=[np.ones(5)] * config.num_tables,
            )

    def test_describe_mentions_every_table(self, config):
        plan = build_partition_plan(config, 2)
        text = plan.describe()
        for t in range(config.num_tables):
            assert f"table {t}" in text


class TestShardConfig:
    def test_defaults_are_flat(self):
        shard = configs.ShardConfig()
        assert not shard.is_sharded
        assert shard.num_shards == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="num_shards"):
            configs.ShardConfig(num_shards=0)
        with pytest.raises(ValueError, match="partition"):
            configs.ShardConfig(partition="columns")

    def test_dict_round_trip(self):
        shard = configs.ShardConfig(num_shards=4, partition="hash")
        assert shard.is_sharded
        assert shard.to_dict() == {"num_shards": 4, "partition": "hash"}
        assert configs.ShardConfig.from_dict(shard.to_dict()) == shard


class TestTraceDrivenWeights:
    def test_weights_count_access_mass(self):
        trace = [np.array([0, 0, 1]), np.array([1, 2])]
        weights = access_weights_from_trace(trace, 4)
        np.testing.assert_array_equal(weights, [2.0, 2.0, 1.0, 0.0])

    def test_skew_weights_uniform_and_zipf(self):
        assert np.all(access_weights_from_skew(10, None) == 1.0)
        spec = SkewSpec(kind="zipf", exponent=1.0)
        weights = access_weights_from_skew(10, spec)
        assert np.all(np.diff(weights) < 0)   # popularity-ranked

    def test_plan_from_loader_balances_skewed_trace(self, config):
        skew = paper_skew_spec("medium", 64)
        loader = make_loader(config, batch_size=16, num_batches=12,
                            skew=skew)
        plan = plan_from_loader(config, 4, loader)
        naive = build_partition_plan(config, 4, strategy="row_range")
        assert plan.strategy == "frequency"
        for part, naive_part in zip(plan.tables, naive.tables):
            part.validate()
            # The trace-balanced plan never does worse than equal-row
            # cuts on the observed mass (a single hot row can still cap
            # how even contiguous cuts can get).
            weights = access_weights_from_trace(
                [batch.sparse[:, part.table_index, :].ravel()
                 for batch in loader],
                64,
            )
            masses = np.array(
                [weights[rows].sum() for rows in part.shard_rows]
            )
            naive_masses = np.array(
                [weights[rows].sum() for rows in naive_part.shard_rows]
            )
            # No shard starves (the adaptive greedy keeps >= 1 row each)
            # and the cut is never much worse than equal-row cuts.  A
            # single hot row bounds how even *any* contiguous cut can be,
            # so exact balance is not asserted on sampled traces.
            assert all(rows.size > 0 for rows in part.shard_rows)
            assert masses.max() <= max(naive_masses.max(), weights.max())
