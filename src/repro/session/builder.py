"""TrainSession: build the one trainer from an ExecutionPlan.

:meth:`TrainSession.build` turns a plan into data the single
:class:`repro.lazydp.trainer.LazyDPTrainer` is constructed from — no
class is picked or assembled per combination:

* the ``shards`` axis becomes a :class:`repro.shard.PartitionPlan`
  (none at all for one shard: flat is the one-shard case, decided from
  the shard count);
* the ``pipeline`` / ``async`` axes become a
  :class:`repro.lazydp.scheduler.Scheduler`, which places the noise and
  apply stages (trainer thread / prefetch worker / apply worker);
* the ``backend`` axis resolves through the registry
  (:mod:`repro.session.registry`) to *how shard tasks run* — serially,
  on a thread pool, or as messages to worker processes.

:class:`TrainSession` is the facade over the built trainer: ``fit``,
privacy accounting, private release, and :meth:`serve` — which hands
out a :class:`repro.serve.PrivateServingEngine` *attached* to the live
trainer, so the serving memo refreshes when training resumes instead
of freezing at construction.

:func:`make_trainer` names the paper's seven *algorithms*; its two
LazyDP names are the serial plan built here.
"""

from __future__ import annotations

from ..lazydp.scheduler import Scheduler
from ..shard.plan import build_partition_plan
from ..train import (
    DPSGDBTrainer,
    DPSGDFTrainer,
    DPSGDRTrainer,
    EANATrainer,
    SGDTrainer,
)
from ..train.common import DPConfig, TrainResult
from .plan import ExecutionPlan
from .registry import backend_info, parse_backend_spec

#: The five baselines: genuinely different algorithms, with no plan.
BASELINES = {
    "sgd": SGDTrainer,
    "dpsgd_b": DPSGDBTrainer,
    "dpsgd_r": DPSGDRTrainer,
    "dpsgd_f": DPSGDFTrainer,
    "eana": EANATrainer,
}


class TrainSession:
    """A model + DP config + ExecutionPlan, built and ready to run.

    Build one with :meth:`build`; afterwards the session owns the
    trainer's lifecycle (``fit`` ... ``close``) and is the hub the
    serving engine attaches to.  The underlying trainer stays reachable
    as ``session.trainer`` for instrumentation
    (``pipeline_stats`` / ``async_stats`` / ``kernel_stats``).
    """

    def __init__(self, model, dp: DPConfig, plan: ExecutionPlan, trainer):
        self.model = model
        self.dp = dp
        self.plan = plan
        self.trainer = trainer
        #: The loader a no-argument ``fit()`` trains on (``make_private``
        #: binds the one it wrapped, paper Figure 9a).
        self.data_loader = None
        self._serving: list = []
        self._tenant_servers: list = []
        #: The run's Observability hub when the plan's ``obs`` axis is
        #: on (``build`` instruments the trainer); None otherwise.
        self.observability = None

    @classmethod
    def build(
        cls,
        model,
        dp: DPConfig,
        plan: ExecutionPlan | None = None,
        *,
        noise_seed: int = 1234,
        skew=None,
        partition_plan=None,
        schedule=None,
    ) -> "TrainSession":
        """Build the trainer for ``plan`` (default: serial flat LazyDP).

        ``skew`` (trace skew for the frequency partitioner) and
        ``partition_plan`` (a prebuilt
        :class:`repro.shard.PartitionPlan`) are live-object inputs that
        only make sense for sharded plans.  ``schedule`` (an
        :class:`repro.train.schedules.LRSchedule`; default: the constant
        ``dp.learning_rate``) applies under every plan: the trainer's
        sample-stage mechanism weights deferred noise by its origin
        iteration's rate.
        """
        plan = plan if plan is not None else ExecutionPlan()
        backend_name, workers = parse_backend_spec(plan.backend)
        info = backend_info(backend_name)

        num_shards = plan.shards.num_shards if plan.is_sharded else 1
        if not plan.is_sharded and (skew is not None or partition_plan is not None):
            raise ValueError(
                "skew / partition_plan only apply to sharded plans "
                "(set plan.shards)"
            )
        # Flat is one shard: no partition is built for it (the index
        # arrays alone would rival the history tables in size).
        if partition_plan is None and num_shards > 1:
            partition_plan = build_partition_plan(
                model.config, num_shards, strategy=plan.shards.partition, skew=skew
            )
        pipeline, async_ = plan.pipeline, plan.async_
        scheduler = Scheduler(
            prefetch_depth=pipeline.prefetch_depth if pipeline else None,
            max_in_flight=async_.max_in_flight if async_ else None,
            staleness=async_.staleness if async_ else "strict",
        )
        constructor = info.factory(num_shards=num_shards, workers=workers)
        trainer = constructor(
            model,
            dp,
            noise_seed=noise_seed,
            use_ans=plan.ans,
            partition=partition_plan,
            scheduler=scheduler,
            schedule=schedule,
        )
        trainer.name = plan.legacy_name()
        trainer.execution_plan = plan
        session = cls(model, dp, plan, trainer)
        if plan.obs is not None:
            from ..obs import Observability

            session.observability = trainer.instrument(
                Observability(plan.obs)
            )
        return session

    # -- training ----------------------------------------------------------
    def fit(self, loader=None) -> TrainResult:
        loader = self.data_loader if loader is None else loader
        if loader is None:
            raise ValueError("fit() needs a loader: none was passed or bound")
        return self.trainer.fit(loader)

    def train_step(self, iteration: int, batch, next_batch) -> float:
        """Manual stepping passthrough (benchmark harnesses)."""
        return self.trainer.train_step(iteration, batch, next_batch)

    def finalize(self, final_iteration: int) -> None:
        self.trainer.finalize(final_iteration)

    def epsilon(self, delta: float | None = None) -> float:
        """Privacy spent so far at the given (or configured) delta."""
        accountant = self.trainer.accountant
        if accountant is None or accountant.steps == 0:
            raise RuntimeError("no private steps have been taken yet")
        return accountant.get_epsilon(
            self.dp.delta if delta is None else delta
        )

    def current_iteration(self) -> int:
        """The iteration the model stands at (see
        :meth:`repro.lazydp.trainer.LazyDPTrainer.current_iteration` —
        the one definition release and serving share)."""
        return self.trainer.current_iteration()

    # -- release and serving -----------------------------------------------
    def export_private_model(self, iteration: int | None = None) -> dict:
        """A flushed copy of all parameters, safe to release."""
        from ..lazydp.checkpoint import export_private_model

        if iteration is None:
            iteration = self.current_iteration()
        return export_private_model(self.trainer, iteration)

    def _serve_cache(self, cache):
        """Resolve a ``serve(cache=...)`` argument against the plan axis.

        ``None`` defers to the plan's ``serve`` axis (a
        :class:`repro.configs.ServeConfig` sizes a fresh hot-row cache
        per handle — caches hold privatized bits, so they are never
        shared between engines); ``False`` forces an uncached handle;
        anything else is used as the cache instance directly.
        """
        if cache is False:
            return None
        if cache is not None:
            return cache
        if self.plan.serve is None:
            return None
        from ..serve.cache import HotRowCache

        return HotRowCache(
            self.plan.serve.cache_rows,
            admission_threshold=self.plan.serve.admission,
        )

    def serve(
        self,
        iteration: int | None = None,
        noise_std: float | None = None,
        snapshot: bool = False,
        follow: bool = True,
        cache=None,
    ):
        """A :class:`repro.serve.PrivateServingEngine` over this session.

        With ``follow=True`` (default) the engine is *attached*: when
        the (quiescent) trainer steps again, the engine notices at the
        next lookup, re-snapshots the histories and invalidates its
        read-through memo, so served rows always agree with
        ``export_private_model`` at the trainer's current iteration.
        ``follow=False`` freezes the engine at construction, the
        pre-session behaviour.  Handles are detached automatically by
        :meth:`close`.

        ``cache`` fronts the handle with a hot-row cache: by default
        the plan's ``serve`` axis decides (``serve=<cache_rows>`` in
        the spec language), ``False`` forces uncached, or pass a
        :class:`repro.serve.HotRowCache` to control admission and
        sizing (e.g. ``HotRowCache.for_skew``).
        """
        from ..serve.engine import PrivateServingEngine

        engine = PrivateServingEngine.from_trainer(
            self.trainer,
            iteration=(
                self.current_iteration() if iteration is None else iteration
            ),
            noise_std=noise_std,
            snapshot=snapshot,
            cache=self._serve_cache(cache),
        )
        if self.observability is not None:
            engine.instrument(self.observability)
        if follow:
            engine.attach(self.trainer)
            self._serving.append(engine)
        return engine

    def serve_tenants(self):
        """A :class:`repro.serve.MultiTenantServer` over this session.

        Tenants registered on it share the trainer's base table slabs
        zero-copy and differ only in their private memo / noise std
        (the epsilon axis); the server is closed (all tenants
        detached) with the session.
        """
        from ..serve.tenant import MultiTenantServer

        server = MultiTenantServer(
            self.trainer, observability=self.observability
        )
        self._tenant_servers.append(server)
        return server

    def detach_serving(self) -> None:
        """Freeze every attached serving handle at its current state."""
        for engine in self._serving:
            engine.detach()
        self._serving.clear()
        for server in self._tenant_servers:
            server.close()
        self._tenant_servers.clear()

    # -- lifecycle and reporting -------------------------------------------
    def stats(self) -> dict:
        """Every engine-stats surface the plan's layers expose."""
        stats = {
            "plan": self.plan.canonical(),
            "algorithm": self.trainer.name,
            "kernel": self.trainer.kernel_stats(),
        }
        if self.plan.is_sharded:
            stats["shard_update_seconds"] = self.trainer.shard_update_seconds()
        if self.plan.is_pipelined:
            stats["pipeline"] = self.trainer.pipeline_stats()
        if self.plan.is_async:
            stats["async"] = self.trainer.async_stats()
        if self.observability is not None and self.observability.metrics_enabled:
            stats["metrics"] = self.observability.metrics.snapshot()
        if self._serving:
            stats["serving"] = [
                engine.stats() for engine in self._serving
            ]
        return stats

    def save_trace(self, path) -> int:
        """Write the run's Chrome trace-event JSON (requires a plan with
        ``obs=trace``); returns the number of events written."""
        if self.observability is None or not self.observability.tracing:
            raise RuntimeError(
                "tracing is not enabled for this session; build with an "
                "ExecutionPlan whose obs axis has trace=True "
                "(plan spec: obs=trace)"
            )
        return self.observability.save_trace(path)

    def close(self) -> None:
        """Detach serving handles and release engine resources."""
        self.detach_serving()
        self.trainer.close()

    def __enter__(self) -> "TrainSession":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False


def make_trainer(algorithm: str, model, dp: DPConfig, noise_seed: int = 1234):
    """Instantiate any of the paper's seven algorithms by name.

    The five baselines are genuinely different algorithms; ``lazydp``
    and ``lazydp_no_ans`` are the serial plan with ``ans=on|off``.
    *How* LazyDP executes (shards, pipeline, async, backend) is not an
    algorithm — spell it as an :class:`ExecutionPlan` and build with
    ``TrainSession.build(model, dp, plan)``.
    """
    if algorithm in ("lazydp", "lazydp_no_ans"):
        plan = ExecutionPlan(ans=algorithm == "lazydp")
        return TrainSession.build(model, dp, plan, noise_seed=noise_seed).trainer
    if algorithm in BASELINES:
        return BASELINES[algorithm](model, dp, noise_seed=noise_seed)
    raise ValueError(f"unknown algorithm: {algorithm}")
