"""The hot-row cache's heap victim search against the scan it replaced.

:class:`ReferenceHotRowCache` keeps the per-row ``offer`` loop that
found the coldest resident with ``min(entries, key=frequency)`` — a scan
of every resident per admission at capacity — with one fix: a decay in
the middle of an offer is seen by the rest of that offer (the boundary
row's count is read halved, later rows are counted in the halved
table).  :class:`repro.serve.HotRowCache` must make the same decisions
on every sequence: the same admissions per call, evictions, ``stats()``,
residents in the same dict order, the same stored bits and the same
frequency table.
"""

import numpy as np
import pytest

from repro.serve import HotRowCache


class ReferenceHotRowCache:
    """The scan-based cache: admission, eviction and decay as the
    serving tier first shipped them, with the mid-offer decay fixed."""

    def __init__(self, capacity, admission_threshold, decay_interval):
        self.capacity = capacity
        self.admission_threshold = admission_threshold
        self._decay_interval = decay_interval
        self._entries = {}
        self._freq = {}
        self._offers = 0
        self.hits = self.misses = 0
        self.admissions = self.evictions = self.invalidations = 0
        self.dropped_rows = 0

    def get_rows(self, table_index, rows, generation):
        n = int(rows.size)
        if n == 0:
            return None
        values = []
        for row in rows:
            entry = self._entries.get((table_index, int(row)))
            if entry is None or entry[0] != generation:
                self.misses += n
                return None
            values.append(entry[1])
        self.hits += n
        return np.stack(values)

    def offer(self, table_index, rows, values, generation):
        admitted = 0
        freq = self._freq
        entries = self._entries
        for k, row in enumerate(rows):
            key = (table_index, int(row))
            count = freq.get(key, 0) + 1
            freq[key] = count
            self._offers += 1
            if self._offers % self._decay_interval == 0:
                self._decay()
                freq = self._freq
                count = freq.get(key, 0)
            resident = entries.get(key)
            if resident is not None:
                if resident[0] != generation:
                    entries[key] = (generation, np.array(values[k]))
                continue
            if count < self.admission_threshold:
                continue
            if len(entries) >= self.capacity:
                victim = min(entries, key=lambda key: freq.get(key, 0))
                if count <= freq.get(victim, 0):
                    continue
                del entries[victim]
                self.evictions += 1
            entries[key] = (generation, np.array(values[k]))
            self.admissions += 1
            admitted += 1
        return admitted

    def _decay(self):
        self._freq = {
            key: half for key, count in self._freq.items()
            if (half := count // 2) > 0
        }

    def invalidate(self):
        dropped = len(self._entries)
        self._entries.clear()
        self.invalidations += 1
        self.dropped_rows += dropped
        return dropped

    def stats(self):
        probes = self.hits + self.misses
        return {
            "capacity": self.capacity,
            "resident_rows": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / probes if probes else 0.0,
            "admissions": self.admissions,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "dropped_rows": self.dropped_rows,
        }


def _same_state(cache, reference):
    assert cache.stats() == reference.stats()
    assert list(cache._entries) == list(reference._entries)
    for key, entry in reference._entries.items():
        generation, vector = cache._entries[key][:2]
        assert generation == entry[0]
        assert np.array_equal(vector.view(np.uint64), entry[1].view(np.uint64))
    assert cache._freq == reference._freq
    assert list(cache._freq) == list(reference._freq)


@pytest.mark.parametrize("seed", range(60))
def test_heap_cache_decides_as_the_scan(seed):
    """Random offers, probes, invalidations and stale-generation offers
    over 3 tables: capacity 1-30, threshold 1-3, decay interval 1-60."""
    rng = np.random.default_rng(seed)
    capacity = int(rng.integers(1, 31))
    threshold = int(rng.integers(1, 4))
    interval = int(rng.integers(1, 61))
    universe = int(rng.integers(capacity + 1, 4 * capacity + 12))
    cache = HotRowCache(capacity, threshold, interval)
    reference = ReferenceHotRowCache(capacity, threshold, interval)
    generation = 0
    for _ in range(400):
        op = rng.random()
        table = int(rng.integers(0, 3))
        if op < 0.04:
            generation += 1
            assert cache.invalidate() == reference.invalidate()
        elif op < 0.2:
            rows = rng.integers(0, universe, size=int(rng.integers(0, 6)))
            got = cache.get_rows(table, rows, generation)
            want = reference.get_rows(table, rows, generation)
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(got, want)
        else:
            # Skewed rows, unique per offer as the engine feeds them.
            size = int(rng.integers(1, min(universe, 12) + 1))
            weights = 1.0 / np.arange(1, universe + 1) ** 1.1
            rows = rng.choice(
                universe, size=size, replace=False, p=weights / weights.sum()
            ).astype(np.int64)
            values = rng.standard_normal((size, 3))
            # Now and then a late offer from a superseded generation.
            tag = generation - 1 if generation and rng.random() < 0.1 else generation
            assert cache.offer(table, rows, values, tag) == reference.offer(
                table, rows, values, tag
            )
        _same_state(cache, reference)


def test_heap_cache_decides_as_the_scan_at_serving_scale():
    """Thousands of residents, long runs of repeats between decays: the
    heap's lazily re-keyed bounds still pick the scan's victims."""
    rng = np.random.default_rng(7)
    cache = HotRowCache(256)
    reference = ReferenceHotRowCache(256, 2, 8 * 256)
    weights = 1.0 / np.arange(1, 4097) ** 1.05
    weights /= weights.sum()
    for step in range(600):
        rows = np.unique(rng.choice(4096, size=64, p=weights))
        values = rng.standard_normal((rows.size, 4))
        table = step % 2
        assert cache.offer(table, rows, values, step // 150) == reference.offer(
            table, rows, values, step // 150
        )
        if step % 150 == 149:
            assert cache.invalidate() == reference.invalidate()
    assert reference.evictions > 100
    _same_state(cache, reference)
