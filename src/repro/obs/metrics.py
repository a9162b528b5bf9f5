"""Counters, gauges and streaming histograms for the training engines.

The registry is the structured side of the observability layer: where
the tracer answers *when*, the registry answers *how much* — of what
only a live observation can record (staging-queue occupancy, async
in-flight depth and lag, Philox launches).  Stage seconds and event
counters stay in the trainers' :class:`repro.train.common.StageTimer`
objects and reach readers through the trainer's stats tree; the
registry copies none of them.

Instruments:

* :class:`Counter` — monotonically increasing event count.
* :class:`Gauge` — last-written value (collected engine statistics).
* :class:`Histogram` — streaming distribution over fixed log-spaced
  buckets; p50/p95/p99 come from bucket interpolation, with exact
  min/max kept so the tails never leave the observed range.  Bounded
  memory (one int per bucket), one ``log``-free bucket search per
  observation.

Individual instruments follow the single-writer convention (each is
updated from one thread); the registry's maps are
guarded for concurrent *creation* so two threads asking for the same
name get the same instrument.
"""

from __future__ import annotations

import threading

#: Histogram bucket boundaries: 0, then powers of two from 2^-24
#: (~6e-8: well under a microsecond, the floor for durations) up to
#: 2^30 (~1e9: beyond any count or seconds value the engines produce).
_BUCKET_EXPONENT_LOW = -24
_BUCKET_EXPONENT_HIGH = 30


class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += int(amount)


class Gauge:
    """A last-value-wins measurement."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value) -> None:
        self.value = float(value)


class Histogram:
    """Streaming distribution with fixed logarithmic buckets.

    Buckets: one for exact zero, one per power of two between
    ``2^-24`` and ``2^30``, one overflow.  Percentiles interpolate
    within the bucket containing the requested rank (log-linear), then
    clamp to the exact observed min/max — so quantile error is bounded
    by one octave and the extremes are exact.
    """

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self):
        buckets = _BUCKET_EXPONENT_HIGH - _BUCKET_EXPONENT_LOW + 3
        self.counts = [0] * buckets
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def _bucket_index(self, value: float) -> int:
        if value <= 0.0:
            return 0
        exponent = _BUCKET_EXPONENT_LOW
        bound = 2.0 ** _BUCKET_EXPONENT_LOW
        while value > bound:
            exponent += 1
            if exponent > _BUCKET_EXPONENT_HIGH:
                return len(self.counts) - 1
            bound *= 2.0
        return exponent - _BUCKET_EXPONENT_LOW + 1

    def observe(self, value) -> None:
        value = float(value)
        self.counts[self._bucket_index(value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def percentile(self, fraction: float) -> float:
        """Approximate quantile at ``fraction`` in [0, 1]."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        if self.count == 0:
            return float("nan")
        rank = fraction * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index == 0:
                    return max(0.0, self.min)
                if index == len(self.counts) - 1:
                    # Overflow bucket: unbounded above, so the only
                    # honest estimate is the exact observed maximum.
                    return self.max
                exponent = index - 1 + _BUCKET_EXPONENT_LOW
                lower = 2.0 ** (exponent - 1)
                upper = 2.0 ** exponent
                # Position of the requested rank inside this bucket.
                position = 1.0 - (cumulative - rank) / bucket_count
                estimate = lower + (upper - lower) * position
                return min(max(estimate, self.min), self.max)
        return self.max

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def snapshot(self) -> dict:
        if self.count == 0:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """Named counters, gauges and histograms behind get-or-create."""

    def __init__(self):
        self._counters: dict = {}
        self._gauges: dict = {}
        self._histograms: dict = {}
        self._lock = threading.Lock()

    def _instrument(self, table: dict, name: str, factory):
        instrument = table.get(name)
        if instrument is None:
            with self._lock:
                instrument = table.get(name)
                if instrument is None:
                    instrument = factory()
                    table[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        return self._instrument(self._counters, name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._instrument(self._gauges, name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._instrument(self._histograms, name, Histogram)

    # -- convenience writers ----------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value) -> None:
        self.histogram(name).observe(value)

    def snapshot(self) -> dict:
        """JSON-serializable state of every instrument, sorted by name."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].snapshot()
                for name in sorted(self._histograms)
            },
        }
