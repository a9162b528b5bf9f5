"""The Observability hub: one tracer + one registry per training run.

``Observability(trace=, metrics=)`` bundles the two instruments the
plan's ``obs`` key switches on (``obs=trace`` / ``metrics`` /
``trace+metrics``) and gives the engines a single object to hold.
Trainers carry :data:`NULL_OBS` (the null object) by default, so every
instrumentation site in the engines is
gated by exactly one attribute check (``obs.enabled`` /
``obs.tracing``) and costs nothing when observability is off — the
acceptance bench (``benchmarks/run.py obs_overhead``) pins that.

Two kinds of collection feed the registry:

* **Live observations** during ``fit`` — the per-iteration engine
  gauges that are invisible after the fact: staging-buffer occupancy
  and prefetch hit/miss (pipeline), in-flight depth and staleness lag
  (async).  The engines call the ``observe_*`` helpers here so their
  own hot loops stay one ``if obs.enabled`` line.
* **Post-run collection** — :meth:`Observability.collect` walks the
  trainer's existing reporting surfaces (``kernel_stats``,
  ``pipeline_stats``, ``async_stats``, the shard timers, Philox launch
  counts) into gauges/counters once, after the last iteration.
"""

from __future__ import annotations

from .metrics import MetricsRegistry
from .tracer import NULL_TRACER, Tracer


class Observability:
    """A run's tracer + metrics registry.

    ``metrics`` populates the in-process :class:`MetricsRegistry`
    (engine gauges, counters, histograms); ``trace`` additionally
    records thread-aware spans for a Chrome trace-event export.  At
    least one must be on: a run that records nothing carries
    :data:`NULL_OBS` (the plan's ``obs=None``).
    """

    enabled = True

    def __init__(self, trace: bool = False, metrics: bool = True):
        if not (trace or metrics):
            raise ValueError(
                "observability records nothing; enable trace and/or "
                "metrics, or leave the run uninstrumented (obs=None)"
            )
        self.metrics_enabled = bool(metrics)
        self.tracer = Tracer() if trace else NULL_TRACER
        self.metrics = MetricsRegistry()

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled

    def timer_tracer(self):
        """What a StageTimer's ``tracer`` attribute should hold: the live
        tracer, or ``None`` (the timer's no-op sentinel) when disabled."""
        return self.tracer if self.tracer.enabled else None

    # -- live observations (called per iteration, pre-gated) ---------------
    def observe_staging(self, occupancy: int) -> None:
        """Staging-buffer state at the moment the trainer pops.

        Occupancy > 0 means the catch-up plan was already staged (a
        prefetch *hit* — the pop returns without a meaningful wait).
        """
        if self.metrics_enabled:
            metrics = self.metrics
            metrics.observe("pipeline.staging_occupancy", occupancy)
            if occupancy > 0:
                metrics.inc("pipeline.prefetch_hits")
            else:
                metrics.inc("pipeline.prefetch_misses")
        tracer = self.tracer
        if tracer.enabled:
            tracer.add_counter("staging_occupancy", occupancy)

    def observe_inflight(self, depth: int, lag: int) -> None:
        """Async apply state at the start of a train step: outstanding
        applies (``depth``) and how many iterations the slab reads
        would trail without waiting (``lag``)."""
        if self.metrics_enabled:
            metrics = self.metrics
            metrics.observe("async.in_flight_depth", depth)
            metrics.observe("async.staleness_lag", lag)
        tracer = self.tracer
        if tracer.enabled:
            tracer.add_counter("in_flight", depth)

    # -- post-run collection ----------------------------------------------
    def collect(self, trainer, philox_launches: int | None = None) -> None:
        """Fold a trainer's reporting surfaces into the registry."""
        if not self.metrics_enabled:
            return
        metrics = self.metrics
        metrics.absorb_stage_timer(trainer.timer, "stages")
        if philox_launches is not None:
            metrics.set_gauge("rng.philox_launches", philox_launches)

        kernel_stats = getattr(trainer, "kernel_stats", None)
        if kernel_stats is not None:
            self._collect_kernel(kernel_stats())

        if getattr(trainer, "num_shards", 1) > 1:
            skew = trainer.shard_time_summary()["skew"]
            metrics.set_gauge("shard.update_seconds_max", skew["max"])
            metrics.set_gauge("shard.update_seconds_min", skew["min"])
            metrics.set_gauge("shard.update_skew_seconds", skew["spread"])

        scheduler = getattr(trainer, "scheduler", None)
        if scheduler is not None and scheduler.prefetches:
            stats = scheduler.pipeline_stats()
            for key in (
                "prefetch_busy_seconds",
                "exposed_wait_seconds",
                "hidden_seconds",
                "hidden_fraction",
                "producer_stall_seconds",
            ):
                metrics.set_gauge(f"pipeline.{key}", stats[key])
            metrics.set_gauge("pipeline.plans_computed", stats["plans_computed"])

        if scheduler is not None and scheduler.defers_apply:
            stats = scheduler.async_stats()
            for key in (
                "applies_completed",
                "apply_busy_seconds",
                "submit_stall_seconds",
                "staleness_wait_seconds",
            ):
                if key in stats:
                    metrics.set_gauge(f"async.{key}", stats[key])

        if hasattr(trainer, "procshard_stats"):
            stats = trainer.procshard_stats()
            for worker in stats.get("workers", []):
                shard = worker.get("shard", 0)
                for key in ("pid", "messages", "samples_drawn"):
                    if key in worker:
                        metrics.set_gauge(
                            f"procshard.worker{shard}.{key}", worker[key]
                        )

    def _collect_kernel(self, stats: dict) -> None:
        """Arena hit/alloc gauges, summed across shards and tables."""
        metrics = self.metrics
        totals: dict = {}
        for shard in stats.get("shards", ()):
            for arena in shard["apply_arenas"]:
                for field in ("hits", "allocs"):
                    totals[field] = totals.get(field, 0) + arena[field]
        for field, value in totals.items():
            metrics.set_gauge(f"kernel.apply_arena.{field}", value)

    # -- export ------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-serializable registry state plus trace bookkeeping."""
        return {
            "config": {"trace": self.tracing, "metrics": self.metrics_enabled},
            "metrics": self.metrics.snapshot(),
            "trace": {
                "events_recorded": self.tracer.events_recorded,
                "events_dropped": self.tracer.events_dropped,
            },
        }

    def export_trace(self) -> dict:
        return self.tracer.export()

    def save_trace(self, path) -> int:
        """Write the Chrome trace-event JSON; returns the event count."""
        return self.tracer.save(path)


class _NullObservability:
    """Disabled observability: the default every trainer carries.

    All state is shared and inert — a single module-level instance
    serves every uninstrumented trainer, and the one metrics registry
    it exposes is a sink nobody reads (engines never write to it on
    gated paths; it exists so accidental un-gated access is safe
    rather than an AttributeError).
    """

    enabled = False
    tracing = False
    metrics_enabled = False
    tracer = NULL_TRACER

    def __init__(self):
        self.metrics = MetricsRegistry()

    def timer_tracer(self):
        return None

    def observe_staging(self, occupancy: int) -> None:
        pass

    def observe_inflight(self, depth: int, lag: int) -> None:
        pass

    def collect(self, trainer, philox_launches=None) -> None:
        pass

    def snapshot(self) -> dict:
        return {
            "config": None,
            "metrics": self.metrics.snapshot(),
            "trace": {"events_recorded": 0, "events_dropped": 0},
        }

    def export_trace(self) -> dict:
        return NULL_TRACER.export()

    def save_trace(self, path) -> int:
        return NULL_TRACER.save(path)


NULL_OBS = _NullObservability()
