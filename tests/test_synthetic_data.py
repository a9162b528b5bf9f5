"""Tests for the synthetic click-log dataset."""

import numpy as np
import pytest

from repro import configs
from repro.data import Batch, SkewSpec, SyntheticClickDataset
from repro.data.synthetic import (
    _FIELD_SPARSE,
    _field_uniforms,
    cdf_guide,
    cdf_ranks,
    zipf_ranks,
)
from repro.kernels import lanes
from repro.rng import _native


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
        indices = dataset.sparse_indices(ids)
        for t in range(config.num_tables):
            uniforms = _field_uniforms(
                dataset.seed, stream=t, field=_FIELD_SPARSE, example_ids=ids,
                count=config.lookups_per_table,
            )
            direct = np.searchsorted(dataset._cdfs[t], uniforms, side="left")
            np.testing.assert_array_equal(cdf_ranks(dataset._cdfs[t], uniforms), direct)
            expected = dataset._perms[t][np.minimum(direct, 4999)]
            np.testing.assert_array_equal(indices[:, t], expected)

    def test_wrong_skew_list_length_rejected(self, config):
        with pytest.raises(ValueError):
            SyntheticClickDataset(config, seed=0, skew=[SkewSpec()])


def _zipf_table(rows: int, exponent: float, seed: int = 12):
    """A one-table Zipf dataset: its CDF and guide as the batches use them."""
    config = configs.tiny_dlrm(num_tables=1, rows=rows, dim=2, lookups=16)
    skew = SkewSpec(kind="zipf", exponent=exponent)
    dataset = SyntheticClickDataset(config, seed=seed, skew=skew)
    return dataset, dataset._cdfs[0], dataset._guides[0]


def _boundary_keys(dataset, cdf: np.ndarray, guide: np.ndarray) -> np.ndarray:
    """Every CDF entry and bucket edge ``k / K``, their ``nextafter``
    neighbours, 0 and the largest double below 1 — the keys a search
    that is off by one would get wrong — then the dataset's own draws;
    all in ``[0, 1)``."""
    edges = np.arange(guide.size) / guide.size
    keys = np.concatenate([cdf, edges, [0.0, np.nextafter(1.0, 0.0)]])
    keys = np.concatenate([keys, np.nextafter(keys, 0.0), np.nextafter(keys, 1.0)])
    drawn = _field_uniforms(
        dataset.seed, stream=0, field=_FIELD_SPARSE,
        example_ids=np.arange(300, dtype=np.uint64), count=16,
    )
    return np.ascontiguousarray(np.concatenate([keys[keys < 1.0], drawn.ravel()]))


def _kernel_ranks(cdf: np.ndarray, guide: np.ndarray, keys: np.ndarray):
    """``cdf_search`` called directly into a ``-7``-filled destination:
    ``(its return, the destination)``."""
    ranks = np.full(keys.size, -7, dtype=np.int64)
    done = _native.LIB.cdf_search(
        ranks.ctypes.data, keys.ctypes.data, keys.size, cdf.ctypes.data,
        cdf.size, guide.ctypes.data, guide.size,
    )
    return done, ranks


class TestGuidedSearch:
    """``zipf_ranks`` is ``np.searchsorted(side="left")``, rank for rank:
    through ``_sparse.c``'s ``cdf_search`` where a library loaded, and
    through ``cdf_ranks`` under ``using(None)`` and where none did —
    nothing here skips without a compiler."""

    @pytest.mark.parametrize("exponent", [0.5, 1.05, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("rows", [1, 2, 7, 5000, 50000])
    def test_guide_and_search_equal_searchsorted(self, rows, exponent):
        dataset, cdf, guide = _zipf_table(rows, exponent)
        size = 1 << int(np.ceil(np.log2(rows)))
        assert guide.dtype == np.int64 and guide.size == size
        edges = np.arange(size) / size
        np.testing.assert_array_equal(guide, np.searchsorted(cdf, edges, side="left"))
        keys = _boundary_keys(dataset, cdf, guide)
        expected = np.searchsorted(cdf, keys, side="left")
        np.testing.assert_array_equal(zipf_ranks(cdf, guide, keys), expected)
        with _native.using(None):
            np.testing.assert_array_equal(zipf_ranks(cdf, guide, keys), expected)
        if _native.LIB is not None:  # the kernel ran: it wrote every key
            done, ranks = _kernel_ranks(cdf, guide, keys)
            assert done == keys.size
            np.testing.assert_array_equal(ranks, expected)

    def test_a_cdf_whose_tail_rounded_to_one(self):
        weights = 0.5 ** np.arange(64.0)
        cdf = np.cumsum(weights) / weights.sum()
        assert (cdf[-8:] == 1.0).all()
        guide = cdf_guide(cdf)
        edges = np.arange(guide.size) / guide.size
        np.testing.assert_array_equal(guide, np.searchsorted(cdf, edges, side="left"))
        keys = np.concatenate([cdf, edges, np.nextafter(cdf, 0.0)])
        keys = np.ascontiguousarray(keys[keys < 1.0])
        np.testing.assert_array_equal(
            zipf_ranks(cdf, guide, keys), np.searchsorted(cdf, keys, side="left")
        )

    @pytest.mark.parametrize("bad", [1.0, 1.5, np.nan, np.inf, -0.25])
    def test_a_key_outside_the_unit_interval_writes_nothing(self, bad):
        """The kernel checks every key before its first store: a refusal
        leaves the destination as it was and ``zipf_ranks`` falls back
        to the sorted search, which ranks any key."""
        dataset, cdf, guide = _zipf_table(5000, 1.05)
        keys = _boundary_keys(dataset, cdf, guide)
        keys[-3] = bad
        np.testing.assert_array_equal(
            zipf_ranks(cdf, guide, keys), np.searchsorted(cdf, keys, side="left")
        )
        if _native.LIB is not None:
            done, ranks = _kernel_ranks(cdf, guide, keys)
            assert done < 0 and (ranks == -7).all()

    @pytest.mark.parametrize(
        "damage", ["decreasing", "past_the_end", "negative", "size"]
    )
    def test_a_malformed_guide_writes_nothing(self, damage):
        dataset, cdf, guide = _zipf_table(5000, 1.05)
        keys = _boundary_keys(dataset, cdf, guide)
        guide = guide.copy()
        if damage == "decreasing":
            guide[-50] = guide[-51] - 1
        elif damage == "past_the_end":
            guide[-1] = cdf.size + 1
        elif damage == "negative":
            guide[0] = -1
        else:
            guide = guide[:-1]  # not a power of two
        np.testing.assert_array_equal(
            zipf_ranks(cdf, guide, keys), np.searchsorted(cdf, keys, side="left")
        )
        if _native.LIB is not None:
            done, ranks = _kernel_ranks(cdf, guide, keys)
            assert done < 0 and (ranks == -7).all()

    @pytest.mark.parametrize("layout", ["strided", "float32", "guide_int32"])
    def test_operands_it_was_not_built_for_fall_back(self, layout):
        dataset, cdf, guide = _zipf_table(5000, 1.05)
        keys = _boundary_keys(dataset, cdf, guide)
        if layout == "strided":
            keys = np.repeat(keys, 2)[::2]
        elif layout == "float32":
            keys = keys.astype(np.float32)
        else:
            guide = guide.astype(np.int32)
        np.testing.assert_array_equal(
            zipf_ranks(cdf, guide, keys), np.searchsorted(cdf, keys, side="left")
        )

    def test_lanes_and_inline_release_the_same_indices(self):
        """One table per lane item, a mixed uniform / Zipf skew list:
        the lanes, one lane and the numpy paths give the same indices."""
        config = configs.tiny_dlrm(num_tables=5, rows=3000, dim=4, lookups=7)
        skews = [
            SkewSpec(), SkewSpec(kind="zipf", exponent=1.05), SkewSpec(),
            SkewSpec(kind="zipf", exponent=2.0), SkewSpec(kind="zipf", exponent=0.5),
        ]
        dataset = SyntheticClickDataset(config, seed=13, skew=skews)
        ids = np.arange(40, 1064, dtype=np.uint64)
        fan_outs = lanes.stats()["fan_outs"]
        laned = dataset.sparse_indices(ids)
        if len(lanes.CPUS) > 1:
            assert lanes.stats()["fan_outs"] == fan_outs + 1
        with lanes.inline():
            inline = dataset.sparse_indices(ids)
        with _native.using(None):
            numpy_side = dataset.sparse_indices(ids)
        np.testing.assert_array_equal(laned, inline)
        np.testing.assert_array_equal(laned, numpy_side)


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
