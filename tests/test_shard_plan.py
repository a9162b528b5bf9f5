"""Tests for the row-range cut (repro.shard.plan)."""

import numpy as np
import pytest

from repro import configs
from repro.session import ExecutionPlan
from repro.shard import row_range_bounds


@pytest.fixture
def config():
    return configs.tiny_dlrm(num_tables=3, rows=64, dim=8, lookups=2)


def check_ranges(bounds, num_rows, num_shards):
    """``bounds`` cut the table into contiguous ranges: every row owned
    exactly once, in order."""
    assert bounds.dtype == np.int64
    assert bounds.shape == (num_shards + 1,)
    assert bounds[0] == 0 and bounds[-1] == num_rows
    assert np.all(np.diff(bounds) >= 0)


class TestRowRanges:
    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    def test_partition_is_exact(self, config, num_shards):
        for num_rows in config.table_rows:
            check_ranges(row_range_bounds(num_rows, num_shards), num_rows, num_shards)

    def test_row_range_balanced_and_contiguous(self):
        bounds = row_range_bounds(100, 7)
        check_ranges(bounds, 100, 7)
        sizes = np.diff(bounds)
        assert sizes.sum() == 100
        assert sizes.max() - sizes.min() <= 1

    @pytest.mark.parametrize("num_rows", [1, 3, 40, 61, 2000])
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 7, 64])
    def test_the_cut_is_the_rounded_linspace(self, num_rows, num_shards):
        """Up to ``num_rows`` shards the cut is exactly
        ``linspace(0, rows, n + 1).round()``: the layout every released
        digest was measured on."""
        bounds = row_range_bounds(num_rows, num_shards)
        check_ranges(bounds, num_rows, num_shards)
        shards = min(num_rows, num_shards)
        expected = np.linspace(0, num_rows, shards + 1).round().astype(np.int64)
        np.testing.assert_array_equal(bounds[: shards + 1], expected)
        assert np.all(np.diff(bounds)[:shards] >= 1)


class TestPlanEdges:
    def test_more_shards_than_rows_pads_empty(self):
        bounds = row_range_bounds(3, 5)
        check_ranges(bounds, 3, 5)
        assert bounds.tolist() == [0, 1, 2, 3, 3, 3]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="num_shards"):
            row_range_bounds(10, 0)


class TestShardsAxis:
    """The plan's ``shards`` key: a count of equal-row ranges, nothing
    else to choose."""

    def test_defaults_are_flat(self):
        plan = ExecutionPlan()
        assert plan.shards == 0 and not plan.is_sharded

    def test_validation(self):
        with pytest.raises(ValueError, match="shards"):
            ExecutionPlan(shards=-1)
        with pytest.raises(TypeError, match="partition"):
            ExecutionPlan(shards=2, partition="frequency")

    def test_spec_round_trip(self):
        plan = ExecutionPlan(shards=4)
        assert plan.to_spec() == "ans=on,shards=4"
        assert ExecutionPlan.from_spec(plan.to_spec()) == plan
