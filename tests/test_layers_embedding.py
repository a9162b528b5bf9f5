"""Tests for EmbeddingBag: the sparse layer at the heart of the paper."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Batch, SyntheticClickDataset
from repro.data.batch import LookupSort
from repro.nn import EmbeddingBag, Parameter, PerExamplePairs
from repro.rng import _native
from repro.session import TrainSession


def make_bag(rows=10, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    table = Parameter("t", rng.normal(size=(rows, dim)), 0, is_embedding=True)
    return EmbeddingBag(table)


def run_bag(indices, rows=10, dim=4, seed=0, delta_seed=1):
    bag = make_bag(rows, dim, seed)
    indices = np.asarray(indices, dtype=np.int64)
    bag.forward(indices)
    delta = np.random.default_rng(delta_seed).normal(
        size=(indices.shape[0], dim)
    )
    bag.backward(delta)
    return bag, delta


class TestForward:
    def test_sum_pooling(self):
        bag = make_bag()
        indices = np.array([[0, 1], [2, 2]])
        out = bag.forward(indices)
        table = bag.table.data
        np.testing.assert_allclose(out[0], table[0] + table[1])
        np.testing.assert_allclose(out[1], 2 * table[2])

    def test_single_lookup(self):
        bag = make_bag()
        out = bag.forward(np.array([[3]]))
        np.testing.assert_allclose(out[0], bag.table.data[3])

    def test_rejects_out_of_range(self):
        bag = make_bag(rows=4)
        with pytest.raises(IndexError):
            bag.forward(np.array([[4]]))

    def test_rejects_negative(self):
        bag = make_bag()
        with pytest.raises(IndexError):
            bag.forward(np.array([[-1]]))

    def test_rejects_1d_indices(self):
        bag = make_bag()
        with pytest.raises(ValueError):
            bag.forward(np.array([1, 2]))

    def test_accessed_rows_sorted_unique(self):
        bag, _ = run_bag([[5, 2], [2, 7]])
        np.testing.assert_array_equal(bag.accessed_rows(), [2, 5, 7])


class TestPairs:
    def test_multiplicities(self):
        bag, _ = run_bag([[1, 1, 3], [3, 3, 3]])
        pairs = bag.per_example_pairs()
        # Example 0: row 1 twice, row 3 once; example 1: row 3 thrice.
        lookup = {
            (int(e), int(r)): m
            for e, r, m in zip(pairs.example_ids, pairs.rows, pairs.mults)
        }
        assert lookup == {(0, 1): 2.0, (0, 3): 1.0, (1, 3): 3.0}

    def test_dense_per_example_matches_definition(self):
        bag, delta = run_bag([[0, 1], [1, 1]])
        dense = bag.per_example_pairs().dense_per_example(10)
        np.testing.assert_allclose(dense[0, 0], delta[0])
        np.testing.assert_allclose(dense[0, 1], delta[0])
        np.testing.assert_allclose(dense[1, 1], 2 * delta[1])
        assert np.all(dense[:, 2:] == 0.0)


class TestGradientViews:
    def test_batch_grad_matches_scatter(self):
        bag, delta = run_bag([[0, 1], [1, 2]])
        sparse = bag.batch_grads()["t"]
        dense = np.zeros((10, 4))
        for b, row_set in enumerate([[0, 1], [1, 2]]):
            for row in row_set:
                dense[row] += delta[b]
        np.testing.assert_allclose(sparse.to_dense(10), dense)

    def test_ghost_norm_matches_dense(self):
        bag, _ = run_bag([[1, 1, 5], [2, 3, 3]])
        dense = bag.per_example_pairs().dense_per_example(10)
        expected = (dense.reshape(2, -1) ** 2).sum(axis=1)
        np.testing.assert_allclose(bag.ghost_norm_sq(), expected, rtol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),   # batch
        st.integers(min_value=1, max_value=5),   # lookups
        st.integers(min_value=2, max_value=12),  # rows
        st.integers(min_value=0, max_value=999),
    )
    def test_ghost_norm_property(self, batch, lookups, rows, seed):
        rng = np.random.default_rng(seed)
        indices = rng.integers(0, rows, size=(batch, lookups))
        bag = make_bag(rows=rows, dim=3, seed=seed)
        bag.forward(indices)
        delta = rng.normal(size=(batch, 3))
        bag.backward(delta)
        dense = bag.per_example_pairs().dense_per_example(rows)
        expected = (dense.reshape(batch, -1) ** 2).sum(axis=1)
        np.testing.assert_allclose(bag.ghost_norm_sq(), expected, rtol=1e-9)

    def test_weighted_grad_matches_dense(self):
        bag, delta = run_bag([[0, 1], [1, 2], [4, 4]])
        weights = np.array([0.5, 1.0, 0.25])
        sparse = bag.weighted_grads(np.array(weights))["t"]
        dense = bag.per_example_pairs().dense_per_example(10)
        expected = np.einsum("brd,b->rd", dense, weights)
        np.testing.assert_allclose(sparse.to_dense(10), expected)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=999),
    )
    def test_weighted_grad_property(self, batch, lookups, rows, seed):
        rng = np.random.default_rng(seed + 1)
        indices = rng.integers(0, rows, size=(batch, lookups))
        bag = make_bag(rows=rows, dim=3, seed=seed)
        bag.forward(indices)
        delta = rng.normal(size=(batch, 3))
        bag.backward(delta)
        weights = rng.random(batch)
        sparse = bag.weighted_grads(weights)["t"]
        dense = bag.per_example_pairs().dense_per_example(rows)
        expected = np.einsum("brd,b->rd", dense, weights)
        np.testing.assert_allclose(
            sparse.to_dense(rows), expected, atol=1e-12
        )

    def test_grad_only_touches_accessed_rows(self):
        bag, _ = run_bag([[3, 7]])
        sparse = bag.batch_grads()["t"]
        assert set(sparse.rows.tolist()) == {3, 7}

    def test_views_require_cache(self):
        bag = make_bag()
        with pytest.raises(RuntimeError):
            bag.batch_grads()
        bag.forward(np.array([[1]]))
        with pytest.raises(RuntimeError):
            bag.ghost_norm_sq()

    def test_backward_returns_none(self):
        bag = make_bag()
        bag.forward(np.array([[1]]))
        assert bag.backward(np.zeros((1, 4))) is None


def _pairs_by_example(indices, rows):
    """The pairs as three ``np.unique`` sorts gave them: (example, row)
    order, the scatter's rows and inverse from a sort of their own."""
    batch = indices.shape[0]
    combined = indices + np.int64(rows) * np.arange(batch, dtype=np.int64)[:, None]
    unique_combined, counts = np.unique(combined, return_counts=True)
    return (
        unique_combined // rows, unique_combined % rows, counts.astype(np.float64)
    )


class TestOneSort:
    """One sort per table per batch (:class:`LookupSort`) in place of
    the dedup's, the pairs' and the scatter's ``np.unique``."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=9),    # batch
        st.integers(min_value=0, max_value=12),   # lookups
        st.integers(min_value=1, max_value=30),   # rows
        st.integers(min_value=0, max_value=999),
    )
    def test_equals_the_three_unique_sorts(self, batch, lookups, rows, seed):
        rng = np.random.default_rng(seed)
        wide = rng.integers(0, rows, size=(batch, 3, lookups))
        indices = wide[:, 2, :]
        sort = LookupSort.of(indices)
        pairs = sort.pairs()
        example_ids, pair_rows, mults = _pairs_by_example(indices, rows)
        by_row = np.lexsort((example_ids, pair_rows))
        np.testing.assert_array_equal(sort.rows, np.unique(indices))
        assert pairs.rows is sort.rows
        np.testing.assert_array_equal(pairs.example_ids, example_ids[by_row])
        np.testing.assert_array_equal(pairs.rows[pairs.inverse], pair_rows[by_row])
        np.testing.assert_array_equal(pairs.mults, mults[by_row])
        unique_rows, inverse = np.unique(pair_rows[by_row], return_inverse=True)
        np.testing.assert_array_equal(pairs.rows, unique_rows)
        np.testing.assert_array_equal(pairs.inverse, inverse)
        assert pairs.mults.dtype == np.float64
        assert pairs.example_ids.dtype == pairs.inverse.dtype == np.int64

    def test_arrays_are_read_only(self):
        batch = Batch(np.zeros((2, 1)), np.array([[[3, 1]], [[1, 1]]]), np.zeros(2))
        rows = batch.accessed_rows(0)
        np.testing.assert_array_equal(rows, [1, 3])
        assert batch.lookups == 2  # the pooling factor, not shadowed
        with pytest.raises(ValueError):
            rows[0] = 5
        sort = batch.lookup_sort(0)
        for array in [sort.keys, sort.rows, *vars(sort.pairs()).values()]:
            assert not array.flags.writeable

    @pytest.mark.parametrize("numpy_side", [False, True])
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40),   # batch
        st.integers(min_value=1, max_value=16),   # lookups
        st.integers(min_value=0, max_value=999),
    )
    def test_both_pair_orders_give_the_same_bits(
        self, numpy_side, batch, lookups, seed
    ):
        """``bincount`` adds one example's rows ascending and the
        scatter-add one row's examples ascending in either order."""
        rng = np.random.default_rng(seed)
        rows = 12
        indices = np.minimum(rng.zipf(1.2, size=(batch, lookups)) - 1, rows - 1)
        # Magnitudes far apart: a reordered sum would round differently.
        deltas = rng.standard_normal((batch, 5)) * 10.0 ** rng.integers(
            -9, 9, size=(batch, 1)
        )
        weights = rng.random(batch) * 10.0 ** rng.integers(-6, 6, size=batch)
        example_ids, pair_rows, mults = _pairs_by_example(indices, rows)
        by_example = PerExamplePairs(
            example_ids=example_ids, rows=pair_rows, mults=mults,
            deltas=deltas, batch_size=batch,
        )
        by_row = PerExamplePairs.from_lookups(LookupSort.of(indices).pairs(), deltas)
        with _native.using(None) if numpy_side else contextlib.nullcontext():
            grad = by_row.weighted_row_grad(weights)
            expected = by_example.weighted_row_grad(weights)
        np.testing.assert_array_equal(grad.rows, expected.rows)
        assert grad.values.tobytes() == expected.values.tobytes()
        assert (
            by_row.norm_sq_per_example().tobytes()
            == by_example.norm_sq_per_example().tobytes()
        )

    def test_a_batch_holds_no_sort_after_its_step(self, tiny_model, dp_config):
        """The lookahead sorts the next batch (LazyDP's dedup); that
        batch's forward takes the sorts, so none outlives the step."""
        dataset = SyntheticClickDataset(tiny_model.config, seed=1)
        batches = [dataset.batch(np.arange(8 * i, 8 * i + 8)) for i in range(3)]
        with TrainSession.build(tiny_model, dp_config) as session:
            session.train_step(1, batches[0], batches[1])
            assert batches[0]._sorts == {}
            assert len(batches[1]._sorts) == tiny_model.config.num_tables
            session.train_step(2, batches[1], batches[2])
            assert batches[1]._sorts == {}
