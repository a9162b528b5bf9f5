"""Observability layer: thread-aware tracing + a metrics registry.

The LazyDP paper argues from stage-level breakdowns (Figures 3/5/11);
this package makes the reproduction's concurrency structure visible
the same way:

* :class:`Tracer` (``repro.obs.tracer``) — per-thread span recording
  exported as Chrome trace-event JSON for Perfetto/``chrome://tracing``,
  with one named track per engine thread (main loop, noise-prefetch
  worker, apply worker, shard executor threads).
* :class:`MetricsRegistry` (``repro.obs.metrics``) — counters, gauges
  and streaming histograms for what only a live observation records
  (staging occupancy, prefetch hits, in-flight depth, staleness lag,
  Philox launches); every other engine number lives in the trainer's
  stats tree and the serving engines' ``stats()``.
* :class:`Observability` (``repro.obs.hub``) — one tracer + one
  registry per run; trainers hold :data:`NULL_OBS` until
  ``instrument()`` is called, so the disabled path is a single
  attribute check.
* :func:`format_table` (``repro.obs.table``) — the fixed-width ASCII
  table every report prints (CLI, examples, bench cases).

Built as ``Observability(trace=, metrics=)``, selected per
run via the ``obs=`` key of ``repro.session.ExecutionPlan`` (e.g.
``--plan "pipeline=2,obs=trace+metrics"``) or the CLI's ``--trace``
flag; summarised offline by ``tools/trace_report.py`` and validated by
``tools/check_trace.py``.
"""

from .hub import NULL_OBS, Observability
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .table import format_table
from .tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "format_table",
    "NULL_OBS",
    "NULL_TRACER",
    "NullTracer",
    "Observability",
    "Tracer",
]
