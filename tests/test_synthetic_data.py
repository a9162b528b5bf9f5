"""Tests for the synthetic click-log dataset."""

import numpy as np
import pytest

from repro import configs
from repro.data import Batch, SkewSpec, SyntheticClickDataset
from repro.data.synthetic import _FIELD_SPARSE, _field_uniforms, cdf_ranks


@pytest.fixture
def config():
    return configs.tiny_dlrm(num_tables=3, rows=128, dim=8, lookups=4)


class TestDeterminism:
    def test_same_seed_same_batch(self, config):
        a = SyntheticClickDataset(config, seed=5).batch(np.arange(10))
        b = SyntheticClickDataset(config, seed=5).batch(np.arange(10))
        np.testing.assert_array_equal(a.sparse, b.sparse)
        np.testing.assert_array_equal(a.dense, b.dense)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seed_differs(self, config):
        a = SyntheticClickDataset(config, seed=5).batch(np.arange(10))
        b = SyntheticClickDataset(config, seed=6).batch(np.arange(10))
        assert not np.array_equal(a.sparse, b.sparse)

    def test_random_access_consistency(self, config):
        """Example 17 looks the same alone or inside any batch."""
        dataset = SyntheticClickDataset(config, seed=7)
        alone = dataset.batch(np.array([17]))
        grouped = dataset.batch(np.array([3, 17, 99]))
        np.testing.assert_array_equal(alone.sparse[0], grouped.sparse[1])
        np.testing.assert_array_equal(alone.dense[0], grouped.dense[1])
        assert alone.labels[0] == grouped.labels[1]


class TestShapesAndRanges:
    def test_batch_shapes(self, config):
        batch = SyntheticClickDataset(config, seed=0).batch(np.arange(6))
        assert batch.dense.shape == (6, config.dense_features)
        assert batch.sparse.shape == (6, 3, 4)
        assert batch.labels.shape == (6,)
        assert batch.size == 6
        assert batch.num_tables == 3
        assert batch.lookups == 4

    def test_indices_in_range(self, config):
        batch = SyntheticClickDataset(config, seed=1).batch(np.arange(200))
        assert batch.sparse.min() >= 0
        assert batch.sparse.max() < 128

    def test_dense_in_unit_interval(self, config):
        batch = SyntheticClickDataset(config, seed=2).batch(np.arange(100))
        assert batch.dense.min() >= -1.0
        assert batch.dense.max() <= 1.0

    def test_labels_binary(self, config):
        batch = SyntheticClickDataset(config, seed=3).batch(np.arange(100))
        assert set(np.unique(batch.labels)).issubset({0.0, 1.0})

    def test_labels_not_degenerate(self, config):
        labels = SyntheticClickDataset(config, seed=4).batch(
            np.arange(500)
        ).labels
        assert 0.05 < labels.mean() < 0.95

    def test_labels_carry_dense_signal(self, config):
        """Labels must correlate with the dense features (learnability)."""
        dataset = SyntheticClickDataset(config, seed=5)
        batch = dataset.batch(np.arange(4000))
        logits = batch.dense @ dataset._label_weights
        positive_rate_high = batch.labels[logits > 0.5].mean()
        positive_rate_low = batch.labels[logits < -0.5].mean()
        assert positive_rate_high > positive_rate_low + 0.2


class TestSkewedTraces:
    def test_uniform_spread(self, config):
        dataset = SyntheticClickDataset(config, seed=8)
        indices = dataset.batch(np.arange(3000)).sparse[:, 0, :].ravel()
        counts = np.bincount(indices, minlength=128)
        # Uniform: max row share should be small.
        assert counts.max() / counts.sum() < 0.03

    def test_zipf_concentrates_mass(self, config):
        skew = SkewSpec(kind="zipf", exponent=1.5)
        dataset = SyntheticClickDataset(config, seed=8, skew=skew)
        indices = dataset.batch(np.arange(3000)).sparse[:, 0, :].ravel()
        counts = np.sort(np.bincount(indices, minlength=128))[::-1]
        top_10pct = counts[:13].sum() / counts.sum()
        assert top_10pct > 0.5

    def test_hot_rows_are_scattered(self, config):
        """The permutation must decouple popularity rank from row id."""
        skew = SkewSpec(kind="zipf", exponent=1.5)
        dataset = SyntheticClickDataset(config, seed=9, skew=skew)
        indices = dataset.batch(np.arange(3000)).sparse[:, 0, :].ravel()
        counts = np.bincount(indices, minlength=128)
        hottest = int(np.argmax(counts))
        assert hottest != 0  # rank-0 should not be row 0 (with high prob.)

    def test_per_table_skew_list(self, config):
        skews = [SkewSpec(), SkewSpec(kind="zipf", exponent=2.0), SkewSpec()]
        dataset = SyntheticClickDataset(config, seed=10, skew=skews)
        batch = dataset.batch(np.arange(2000))
        skewed_counts = np.bincount(batch.sparse[:, 1, :].ravel(), minlength=128)
        uniform_counts = np.bincount(batch.sparse[:, 0, :].ravel(), minlength=128)
        assert skewed_counts.max() > uniform_counts.max() * 2

    @pytest.mark.parametrize("exponent", [0.5, 1.05, 1.5, 2.0, 3.0])
    def test_zipf_indices_equal_the_direct_search(self, exponent):
        """The ranks searched in key order and scattered back are
        ``np.searchsorted`` of the uniforms as drawn, index for index."""
        config = configs.tiny_dlrm(num_tables=2, rows=5000, dim=4, lookups=16)
        skew = SkewSpec(kind="zipf", exponent=exponent)
        dataset = SyntheticClickDataset(config, seed=11, skew=skew)
        ids = np.arange(700, dtype=np.uint64)
        for t in range(config.num_tables):
            uniforms = _field_uniforms(
                dataset.seed, stream=t, field=_FIELD_SPARSE, example_ids=ids,
                count=config.lookups_per_table,
            )
            direct = np.searchsorted(dataset._cdfs[t], uniforms, side="left")
            np.testing.assert_array_equal(cdf_ranks(dataset._cdfs[t], uniforms), direct)
            expected = dataset._perms[t][np.minimum(direct, 4999)]
            np.testing.assert_array_equal(dataset.sparse_indices(ids)[:, t], expected)

    def test_wrong_skew_list_length_rejected(self, config):
        with pytest.raises(ValueError):
            SyntheticClickDataset(config, seed=0, skew=[SkewSpec()])


class TestBatchContainer:
    def test_accessed_rows(self, config):
        batch = Batch(
            dense=np.zeros((2, 4)),
            sparse=np.array([[[1, 2], [3, 3], [0, 1]],
                             [[2, 2], [3, 4], [1, 1]]]),
            labels=np.zeros(2),
        )
        np.testing.assert_array_equal(batch.accessed_rows(0), [1, 2])
        np.testing.assert_array_equal(batch.accessed_rows(1), [3, 4])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Batch(dense=np.zeros((2, 4)), sparse=np.zeros((2, 3)),
                  labels=np.zeros(2))
        with pytest.raises(ValueError):
            Batch(dense=np.zeros((2, 4)), sparse=np.zeros((3, 1, 1)),
                  labels=np.zeros(2))
