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
    partition_row_range,
    plan_from_loader,
)
from repro.session import ExecutionPlan
from repro.testing import make_loader


@pytest.fixture
def config():
    return configs.tiny_dlrm(num_tables=3, rows=64, dim=8, lookups=2)


def check_ranges(part):
    """``bounds`` cut the table into contiguous ranges: every row owned
    exactly once, in order."""
    bounds = part.bounds
    assert bounds.shape == (part.num_shards + 1,)
    assert bounds[0] == 0 and bounds[-1] == part.num_rows
    assert np.all(np.diff(bounds) >= 0)


def masses(weights, part):
    return np.array(
        [weights[slice(*part.shard_range(s))].sum() for s in range(part.num_shards)]
    )


class TestStrategies:
    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    def test_partition_is_exact(self, config, strategy, num_shards):
        plan = build_partition_plan(config, num_shards, strategy=strategy)
        assert plan.num_shards == num_shards
        assert plan.num_tables == config.num_tables
        for part in plan.tables:
            check_ranges(part)

    def test_row_range_balanced_and_contiguous(self):
        part = partition_row_range(0, 100, 7)
        check_ranges(part)
        sizes = np.diff(part.bounds)
        assert sizes.sum() == 100
        assert sizes.max() - sizes.min() <= 1

    def test_frequency_balances_zipf_mass(self):
        num_rows = 4096
        weights = zipf_weights(num_rows, 1.0)
        part = partition_frequency(0, weights, 4)
        check_ranges(part)
        cut = masses(weights, part)
        # Equal-mass cuts: every shard within 2x of the mean mass, while
        # equal-row cuts would give the head shard ~3.4x the mean.
        assert cut.max() / cut.mean() < 2.0
        assert part.weights_balanced == pytest.approx(cut.max() / cut.mean())
        naive = partition_row_range(0, num_rows, 4)
        assert cut.max() < masses(weights, naive).max()

    def test_frequency_zero_weights_falls_back_to_row_range(self):
        part = partition_frequency(0, np.zeros(50), 5)
        check_ranges(part)
        sizes = np.diff(part.bounds)
        assert sizes.max() - sizes.min() <= 1


class TestPlanEdges:
    def test_more_shards_than_rows_pads_empty(self):
        config = configs.tiny_dlrm(num_tables=2, rows=3, dim=8, lookups=1)
        plan = build_partition_plan(config, 5)
        for part in plan.tables:
            assert part.num_shards == 5
            check_ranges(part)
            assert part.bounds.tolist() == [0, 1, 2, 3, 3, 3]

    def test_invalid_inputs_rejected(self, config):
        with pytest.raises(ValueError, match="num_shards"):
            build_partition_plan(config, 0)
        with pytest.raises(ValueError, match="strategy"):
            build_partition_plan(config, 2, strategy="nope")
        with pytest.raises(ValueError, match="'row_range', 'frequency'"):
            build_partition_plan(config, 2, strategy="hash")
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


class TestShardsAxis:
    """The plan's ``shards`` / ``partition`` keys: the partition list is
    :data:`repro.shard.plan.PARTITION_STRATEGIES`, checked once."""

    def test_defaults_are_flat(self):
        plan = ExecutionPlan()
        assert plan.shards == 0 and not plan.is_sharded
        assert plan.partition == "row_range"

    def test_validation(self):
        with pytest.raises(ValueError, match="shards"):
            ExecutionPlan(shards=-1)
        with pytest.raises(ValueError, match="partition"):
            ExecutionPlan(shards=2, partition="columns")
        # The per-row hash map is gone: a shard is a row range.
        with pytest.raises(ValueError, match=r"\('row_range', 'frequency'\)"):
            ExecutionPlan(shards=2, partition="hash")
        assert PARTITION_STRATEGIES == ("row_range", "frequency")

    def test_spec_round_trip(self):
        plan = ExecutionPlan(shards=4, partition="frequency")
        assert plan.to_spec() == "ans=on,shards=4,partition=frequency"
        assert ExecutionPlan.from_spec(plan.to_spec()) == plan


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
            check_ranges(part)
            # The trace-balanced plan never does worse than equal-row
            # cuts on the observed mass (a single hot row can still cap
            # how even contiguous cuts can get).
            weights = access_weights_from_trace(
                [batch.sparse[:, part.table_index, :].ravel()
                 for batch in loader],
                64,
            )
            cut, naive_cut = masses(weights, part), masses(weights, naive_part)
            # No shard starves (the adaptive greedy keeps >= 1 row each)
            # and the cut is never much worse than equal-row cuts.  A
            # single hot row bounds how even *any* contiguous cut can be,
            # so exact balance is not asserted on sampled traces.
            assert np.all(np.diff(part.bounds) > 0)
            assert cut.max() <= max(naive_cut.max(), weights.max())
