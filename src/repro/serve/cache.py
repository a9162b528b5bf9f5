"""Skew-aware hot-row cache in front of the serving engine's memo.

Real recommendation traffic is heavily skewed (paper Figure 13(d):
90% of accesses land on 0.6%-36% of rows), so a small cache holding
the hot rows can answer the overwhelming majority of point lookups
without touching the engine's reader/writer machinery at all.

Design:

* **Exact values.** Entries are copies of rows the engine's memo
  already privatized, tagged with the engine *generation* (bumped on
  every refresh).  A probe only returns entries whose tag matches the
  engine's current generation, so a cached answer is bitwise the
  answer the memo would give — cache-on == cache-off, always
  (``tests/test_serve_cache.py`` pins it).
* **Skew-aware admission.** A row is admitted only after
  ``admission_threshold`` slow-path serves (a TinyLFU-style frequency
  filter): one-off rows of the cold tail never displace the hot set.
  At capacity a candidate must beat the coldest resident's observed
  frequency to get in.  Frequencies are periodically halved so the
  hot set can drift with the traffic; they survive invalidation —
  popularity is a property of the traffic, not of the snapshot.
* **Invalidation.** When the attached trainer advances, the engine
  bumps its generation and calls :meth:`invalidate`; resident entries
  are dropped wholesale (and would be unreturnable anyway, since
  their generation tag no longer matches).

:meth:`HotRowCache.for_skew` sizes the cache from the paper's skew
operating points: capacity = the top fraction of rows that carries
90% of the access mass (``repro.data.skew``), i.e. exactly the hot
set the fig13d traffic model concentrates on.

At capacity the coldest resident is found through a heap of
``(frequency, admission sequence, key)``, one entry per resident, so an
admission costs O(log n) instead of a scan of every resident.  A
resident's frequency only grows between decays, so a heap entry is a
lower bound of its key's frequency: the top is re-keyed lazily when it
is read, and a decay (which halves them all) rebuilds the heap.  Ties
go to the first-admitted resident — exactly the pick of ``min(entries,
key=frequency)`` over the insertion-ordered entries.

All mutation happens under one small internal lock; probes hold it
only for the dictionary walk.  This lock is a leaf in the serving
lock hierarchy — the cache never calls back into the engine.
"""

from __future__ import annotations

import heapq
import math
import threading
from itertools import repeat

import numpy as np

from ..data.skew import PAPER_SKEW_TOP_FRACTIONS


class HotRowCache:
    """Frequency-admitted cache of privatized hot rows.

    Parameters
    ----------
    capacity:
        Maximum resident rows (across all tables).
    admission_threshold:
        Slow-path serves a row needs before it may be admitted.
    decay_interval:
        Offers between frequency halvings (defaults to ``8 *
        capacity``); keeps the popularity estimate fresh under
        drifting traffic while preserving the hot/cold ordering.
    """

    def __init__(
        self,
        capacity: int,
        admission_threshold: int = 2,
        decay_interval: int | None = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if admission_threshold < 1:
            raise ValueError("admission_threshold must be positive")
        self.capacity = int(capacity)
        self.admission_threshold = int(admission_threshold)
        self._decay_interval = (
            int(decay_interval) if decay_interval is not None
            else 8 * self.capacity
        )
        if self._decay_interval < 1:
            raise ValueError("decay_interval must be positive")
        self._lock = threading.Lock()
        #: (table_index, row) -> (generation, row-vector copy, admission
        #: sequence), in admission order.
        self._entries: dict = {}
        #: (table_index, row) -> slow-path serve count (approximate
        #: popularity; decayed, survives invalidation).
        self._freq: dict = {}
        #: One (frequency lower bound, admission sequence, key) per
        #: resident: the victim search (see the module docstring).
        self._heap: list = []
        self._admitted = 0
        #: Offers left until the next frequency halving.
        self._until_decay = self._decay_interval
        # -- counters (all mutated under the lock) --
        self.hits = 0
        self.misses = 0
        self.admissions = 0
        self.evictions = 0
        self.invalidations = 0
        #: Resident rows dropped by invalidations.
        self.dropped_rows = 0

    @classmethod
    def for_skew(
        cls,
        level: str,
        num_rows: int,
        admission_threshold: int = 2,
    ) -> "HotRowCache":
        """Size the cache to the paper's hot set for one skew level.

        Capacity is the number of rows that receives
        :data:`~repro.data.skew.PAPER_SKEW_MASS` (90%) of accesses at
        the fig13d operating point — 36% / 10% / 0.6% of ``num_rows``
        for low / medium / high skew.
        """
        if level not in PAPER_SKEW_TOP_FRACTIONS:
            raise ValueError(
                f"unknown skew level: {level!r} "
                f"(choose from {sorted(PAPER_SKEW_TOP_FRACTIONS)})"
            )
        fraction = PAPER_SKEW_TOP_FRACTIONS[level]
        capacity = max(1, math.ceil(fraction * num_rows))
        return cls(capacity, admission_threshold=admission_threshold)

    def __len__(self) -> int:
        return len(self._entries)

    # -- read path ---------------------------------------------------------
    def get_rows(
        self, table_index: int, rows: np.ndarray, generation: int
    ) -> np.ndarray | None:
        """All-or-nothing probe: the ``(len(rows), dim)`` values if every
        row is resident at ``generation``, else ``None``.

        All-or-nothing keeps the fast path trivially consistent: a
        probe never mixes cached rows with engine rows that could come
        from a different generation.
        """
        n = int(rows.size)
        if n == 0:
            return None
        entries = self._entries
        values = []
        with self._lock:
            for row in np.asarray(rows, dtype=np.int64).tolist():
                entry = entries.get((table_index, row))
                if entry is None or entry[0] != generation:
                    self.misses += n
                    return None
                values.append(entry[1])
            self.hits += n
        # np.stack copies, so the resident vectors stay private.
        return np.stack(values)

    # -- write path --------------------------------------------------------
    def offer(
        self,
        table_index: int,
        rows: np.ndarray,
        values: np.ndarray,
        generation: int,
    ) -> int:
        """Record a slow-path serve of ``rows`` (unique) and admit the
        ones whose popularity clears the filter; returns admissions.

        ``values[k]`` must be row ``rows[k]``'s served vector (the
        memo's bits); admitted rows store a private copy.  An offer that
        is the ``decay_interval``-th halves every frequency, its own row's
        included, before its admission is decided.
        """
        admitted = 0
        threshold = self.admission_threshold
        keys = zip(repeat(table_index), np.asarray(rows, dtype=np.int64).tolist())
        with self._lock:
            entries = self._entries
            freq = self._freq
            heap = self._heap
            until = self._until_decay
            try:
                for k, key in enumerate(keys):
                    count = freq.get(key, 0) + 1
                    freq[key] = count
                    until -= 1
                    if not until:
                        self._decay_locked()
                        until = self._decay_interval
                        freq, heap = self._freq, self._heap
                        count = freq.get(key, 0)
                    resident = entries.get(key)
                    if resident is not None:
                        if resident[0] != generation:
                            # Same row, fresh snapshot: replace in place.
                            entries[key] = (
                                generation, np.array(values[k]), resident[2]
                            )
                        continue
                    if count < threshold:
                        continue
                    if len(entries) >= self.capacity:
                        if count <= self._coldest_locked()[1]:
                            continue  # not hotter than the coldest resident
                        del entries[heapq.heappop(heap)[2]]
                        self.evictions += 1
                    sequence = self._admitted
                    self._admitted = sequence + 1
                    entries[key] = (generation, np.array(values[k]), sequence)
                    heapq.heappush(heap, (count, sequence, key))
                    self.admissions += 1
                    admitted += 1
            finally:
                self._until_decay = until
        return admitted

    def _coldest_locked(self) -> tuple:
        """The resident key with the lowest observed frequency (the
        first admitted among equals), left on top of the heap, and its
        frequency.  A top whose bound is behind its key's frequency is
        re-keyed and sifted down until the top is current."""
        heap, freq = self._heap, self._freq
        while True:
            bound, sequence, key = heap[0]
            count = freq.get(key, 0)
            if count == bound:
                return key, count
            heapq.heapreplace(heap, (count, sequence, key))

    def _decay_locked(self) -> None:
        """Halve every frequency, dropping the ones that reach zero, and
        rebuild the victim heap over the halved counts."""
        freq = self._freq = {
            key: half for key, count in self._freq.items()
            if (half := count // 2) > 0
        }
        self._heap = [
            (freq.get(key, 0), entry[2], key)
            for key, entry in self._entries.items()
        ]
        heapq.heapify(self._heap)

    # -- lifecycle ---------------------------------------------------------
    def invalidate(self) -> int:
        """Drop every resident entry (the snapshot they came from is
        gone); returns how many were dropped.  Frequencies survive."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._heap.clear()
            self.invalidations += 1
            self.dropped_rows += dropped
        return dropped

    def stats(self) -> dict:
        with self._lock:
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
