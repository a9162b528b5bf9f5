"""The hot-row cache: skewed hit rates, bitwise transparency, invalidation.

Three contracts:

1. Under fig13d-skewed traffic a cache sized by
   :meth:`HotRowCache.for_skew` (capacity = the hot set carrying 90%
   of the mass) reaches a hit rate commensurate with that mass.
2. Cache-on and cache-off serve the *same bits* — entries are copies
   of memoized rows tagged with the engine generation, so a hit can
   never diverge from the slow path.
3. When the attached trainer advances, the refresh invalidates the
   cache; entries from the superseded generation are unreturnable
   either way (the tag mismatch catches stragglers).
"""

import numpy as np
import pytest

from repro import configs
from repro.data import LookaheadLoader
from repro.data.skew import PAPER_SKEW_TOP_FRACTIONS
from repro.lazydp import LazyDPTrainer, export_private_model
from repro.nn import DLRM
from repro.serve import HotRowCache, PrivateServingEngine, generate_traffic
from repro.testing import make_loader
from repro.train import DPConfig

ROWS = 256


@pytest.fixture
def config():
    return configs.tiny_dlrm(num_tables=2, rows=ROWS, dim=8, lookups=2)


@pytest.fixture
def trainer(config):
    model = DLRM(config, seed=7)
    trainer = LazyDPTrainer(model, DPConfig(), noise_seed=99)
    trainer.expected_batch_size = 16
    loader = make_loader(config, batch_size=16, num_batches=4)
    for index, batch, upcoming in LookaheadLoader(loader):
        trainer.train_step(index + 1, batch, upcoming)
    return trainer


def drive_point_lookups(engine, requests=3000, skew="medium", seed=0):
    """Hammer single-row lookups drawn from the fig13d traffic model."""
    traffic = generate_traffic(
        ROWS, requests, batch_size=1, skew=skew, seed=seed, perm_seed=seed
    )
    for rows in traffic:
        engine.lookup(0, rows)


class TestCacheUnit:
    def test_for_skew_sizes_to_paper_hot_set(self):
        for level, fraction in PAPER_SKEW_TOP_FRACTIONS.items():
            cache = HotRowCache.for_skew(level, 10_000)
            assert cache.capacity == int(np.ceil(fraction * 10_000))
        assert HotRowCache.for_skew("high", 10).capacity == 1
        with pytest.raises(ValueError, match="unknown skew level"):
            HotRowCache.for_skew("extreme", 100)

    def test_admission_threshold_filters_one_off_rows(self):
        cache = HotRowCache(capacity=4, admission_threshold=2)
        rows = np.array([1, 2])
        values = np.ones((2, 3))
        assert cache.offer(0, rows, values, generation=0) == 0
        assert len(cache) == 0          # first sighting: not admitted
        assert cache.offer(0, rows, values, generation=0) == 2
        assert len(cache) == 2          # second sighting clears the bar
        assert cache.get_rows(0, rows, generation=0) is not None

    def test_eviction_requires_beating_coldest_resident(self):
        cache = HotRowCache(capacity=2, admission_threshold=1,
                            decay_interval=10_000)
        hot = np.array([1, 2])
        cache.offer(0, hot, np.ones((2, 3)), generation=0)
        cache.offer(0, hot, np.ones((2, 3)), generation=0)   # freq 2 each
        cold = np.array([3])
        cache.offer(0, cold, np.ones((1, 3)), generation=0)  # freq 1: loses
        assert cache.get_rows(0, cold, generation=0) is None
        assert cache.evictions == 0
        # A genuinely hotter row displaces the coldest resident.
        for _ in range(3):
            cache.offer(0, cold, np.ones((1, 3)), generation=0)
        assert cache.get_rows(0, cold, generation=0) is not None
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_probe_is_all_or_nothing(self):
        cache = HotRowCache(capacity=4, admission_threshold=1)
        cache.offer(0, np.array([1]), np.ones((1, 3)), generation=0)
        assert cache.get_rows(0, np.array([1, 2]), generation=0) is None
        hit = cache.get_rows(0, np.array([1, 1]), generation=0)
        assert hit is not None and hit.shape == (2, 3)

    def test_stale_generation_never_served(self):
        cache = HotRowCache(capacity=4, admission_threshold=1)
        rows = np.array([1])
        cache.offer(0, rows, np.ones((1, 3)), generation=0)
        assert cache.get_rows(0, rows, generation=1) is None
        # A fresh-generation offer replaces the stale entry in place.
        cache.offer(0, rows, np.full((1, 3), 2.0), generation=1)
        hit = cache.get_rows(0, rows, generation=1)
        np.testing.assert_array_equal(hit, np.full((1, 3), 2.0))

    def test_invalidate_drops_entries_keeps_frequencies(self):
        cache = HotRowCache(capacity=4, admission_threshold=2)
        rows = np.array([1, 2])
        cache.offer(0, rows, np.ones((2, 3)), generation=0)
        cache.offer(0, rows, np.ones((2, 3)), generation=0)
        assert cache.invalidate() == 2
        assert len(cache) == 0
        # Popularity survives: one more offer readmits immediately.
        assert cache.offer(0, rows, np.ones((2, 3)), generation=1) == 2

    def test_frequency_decay_lets_hot_set_drift(self):
        cache = HotRowCache(capacity=1, admission_threshold=1,
                            decay_interval=4)
        old = np.array([1])
        for _ in range(8):
            cache.offer(0, old, np.ones((1, 3)), generation=0)
        new = np.array([2])
        # Without decay the old row's count would be unbeatable for 8
        # offers; decay halves it so fresh traffic wins in a few.
        for _ in range(8):
            cache.offer(0, new, np.ones((1, 3)), generation=0)
        assert cache.get_rows(0, new, generation=0) is not None

    def test_decay_inside_an_offer_is_seen_by_the_rest_of_it(self):
        """The second row of the first offer is the decay boundary: both
        counts so far halve to zero, and the third row's sighting is
        counted in the halved table, not lost with the old one.  The
        second offer is a boundary too: row 3's count 2 halves to 1
        before its admission is decided; the third offer admits it."""
        cache = HotRowCache(4, admission_threshold=2, decay_interval=2)
        values = np.ones((3, 2))
        assert cache.offer(0, np.array([1, 2, 3]), values, generation=0) == 0
        assert cache._freq == {(0, 3): 1}
        assert cache.offer(0, np.array([3]), values[:1], generation=0) == 0
        assert cache._freq == {(0, 3): 1}
        assert cache.offer(0, np.array([3]), values[:1], generation=0) == 1
        assert cache.get_rows(0, np.array([3]), generation=0) is not None

    def test_entries_are_private_copies(self):
        cache = HotRowCache(capacity=2, admission_threshold=1)
        values = np.ones((1, 3))
        cache.offer(0, np.array([1]), values, generation=0)
        values[:] = 99.0
        hit = cache.get_rows(0, np.array([1]), generation=0)
        np.testing.assert_array_equal(hit, np.ones((1, 3)))
        hit[:] = 77.0
        again = cache.get_rows(0, np.array([1]), generation=0)
        np.testing.assert_array_equal(again, np.ones((1, 3)))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="capacity"):
            HotRowCache(0)
        with pytest.raises(ValueError, match="admission_threshold"):
            HotRowCache(4, admission_threshold=0)
        with pytest.raises(ValueError, match="decay_interval"):
            HotRowCache(4, decay_interval=0)


class TestCacheServing:
    def test_skewed_traffic_hit_rate_bound(self, config, trainer):
        """A for_skew-sized cache must catch most of the 90% hot mass.

        The bound is deliberately below the asymptotic rate: admission
        needs two sightings, so early traffic misses while the filter
        learns the hot set.
        """
        for level, floor in (("medium", 0.60), ("high", 0.75)):
            cache = HotRowCache.for_skew(level, ROWS)
            engine = PrivateServingEngine.from_trainer(
                trainer, iteration=4, cache=cache
            )
            drive_point_lookups(engine, skew=level, seed=3)
            assert cache.stats()["hit_rate"] > floor, level

    def test_cache_on_equals_cache_off_bitwise(self, config, trainer):
        cached = PrivateServingEngine.from_trainer(
            trainer, iteration=4,
            cache=HotRowCache(capacity=64, admission_threshold=1),
        )
        plain = PrivateServingEngine.from_trainer(trainer, iteration=4)
        traffic = generate_traffic(ROWS, 400, batch_size=1, skew="medium",
                                   seed=11, perm_seed=11)
        for rows in traffic:
            np.testing.assert_array_equal(
                cached.lookup(0, rows), plain.lookup(0, rows)
            )
        assert cached.cache.stats()["hits"] > 0   # the fast path ran

    def test_cache_hits_count_as_served_memo_hits(self, config, trainer):
        cache = HotRowCache(capacity=8, admission_threshold=1)
        engine = PrivateServingEngine.from_trainer(
            trainer, iteration=4, cache=cache
        )
        row = np.array([5])
        engine.lookup(0, row)           # slow path; offered to cache
        assert cache.stats()["hits"] == 0
        served_before = engine.rows_served
        engine.lookup(0, row)           # cache fast path
        assert cache.stats()["hits"] == 1
        assert engine.rows_served == served_before + 1
        assert engine.memo_hits >= 1

    def test_trainer_advance_invalidates_cache(self, config, trainer):
        cache = HotRowCache(capacity=32, admission_threshold=1)
        engine = PrivateServingEngine.from_trainer(
            trainer, iteration=4, snapshot=True, cache=cache
        )
        engine.attach(trainer)
        rows = np.arange(8)
        engine.lookup(0, rows)
        engine.lookup(0, rows)          # admitted + hitting
        assert cache.stats()["hits"] > 0
        assert len(cache) > 0

        loader = make_loader(config, batch_size=16, num_batches=1, seed=35)
        for index, batch, upcoming in LookaheadLoader(loader):
            with engine.quiesce():
                trainer.train_step(5, batch, upcoming)
        # The next lookup refreshes: entries drop, served bits are the
        # new iteration's — bitwise against the flush.
        reference = export_private_model(trainer, iteration=5)
        name = engine.embedding_names[0]
        np.testing.assert_array_equal(
            engine.lookup(0, rows), reference[name][rows]
        )
        assert cache.stats()["invalidations"] == 1
        assert engine.generation == 1
        # Re-admitted entries carry the new generation and serve the
        # new bits.
        np.testing.assert_array_equal(
            engine.lookup(0, rows), reference[name][rows]
        )

    def test_cache_stats_surface_in_engine_stats(self, config, trainer):
        cache = HotRowCache(capacity=8, admission_threshold=1)
        engine = PrivateServingEngine.from_trainer(
            trainer, iteration=4, cache=cache
        )
        engine.lookup(0, np.array([1]))
        engine.lookup(0, np.array([1]))
        stats = engine.stats()
        assert stats["cache"]["capacity"] == 8
        assert stats["cache"]["hits"] == 1
        uncached = PrivateServingEngine.from_trainer(trainer, iteration=4)
        assert "cache" not in uncached.stats()

    def test_batched_lookups_bypass_cache_but_stay_exact(self, config,
                                                         trainer):
        """lookup_batch trades the cache for cross-table iteration
        consistency; the bits still match the flush."""
        cache = HotRowCache(capacity=64, admission_threshold=1)
        engine = PrivateServingEngine.from_trainer(
            trainer, iteration=4, cache=cache
        )
        reference = export_private_model(trainer, iteration=4)
        rows = [np.array([1, 2, 2]), np.array([7])]
        for _ in range(3):
            outputs = engine.lookup_batch(rows)
            for table_index, name in enumerate(engine.embedding_names):
                np.testing.assert_array_equal(
                    outputs[table_index],
                    reference[name][rows[table_index]],
                )
        assert cache.stats()["hits"] == 0
