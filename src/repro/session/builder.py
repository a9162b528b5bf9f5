"""TrainSession: build the one trainer from an ExecutionPlan.

:meth:`TrainSession.build` turns a plan into data the single
:class:`repro.lazydp.trainer.LazyDPTrainer` is constructed from — no
class is picked or assembled per combination:

* the ``shards`` axis becomes the trainer's shard count: every table
  cut into that many contiguous row ranges (one shard is the flat
  engine: no router, no executor);
* the ``pipeline`` / ``async`` axes become a
  :class:`repro.lazydp.scheduler.Scheduler`, which places the noise and
  apply stages (trainer thread / prefetch worker / apply worker);
* the ``backend`` key picks *how shard tasks run* — serially, on a
  thread pool, or as messages to worker processes — and with it the
  trainer's constructor (:func:`_trainer_constructor`).

:class:`TrainSession` is the facade over the built trainer: ``fit``,
privacy accounting, private release, and :meth:`serve` — which hands
out a :class:`repro.serve.PrivateServingEngine` *attached* to the live
trainer, so the serving memo refreshes when training resumes instead
of freezing at construction.

:func:`make_trainer` names the paper's seven *algorithms*; its two
LazyDP names are the serial plan built here.
"""

from __future__ import annotations

from functools import partial

from ..lazydp.scheduler import Scheduler
from ..lazydp.trainer import LazyDPTrainer
from ..shard.executor import ThreadPoolShardExecutor
from ..train import (
    DPSGDBTrainer,
    DPSGDFTrainer,
    DPSGDRTrainer,
    EANATrainer,
    SGDTrainer,
)
from ..train.common import DPConfig, TrainResult
from .plan import ExecutionPlan

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
    as ``session.trainer``; :meth:`stats` reads every engine number.
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
        schedule=None,
    ) -> "TrainSession":
        """Build the trainer for ``plan`` (default: serial flat LazyDP).

        ``schedule`` (an :class:`repro.train.schedules.LRSchedule`;
        default: the constant ``dp.learning_rate``) applies under every
        plan: the trainer's sample-stage mechanism weights deferred
        noise by its origin iteration's rate.
        """
        plan = plan if plan is not None else ExecutionPlan()
        num_shards = max(plan.shards, 1)
        scheduler = Scheduler(
            prefetch_depth=plan.pipeline or None,
            max_in_flight=plan.inflight if plan.is_async else None,
        )
        trainer = _trainer_constructor(plan, num_shards)(
            model,
            dp,
            noise_seed=noise_seed,
            use_ans=plan.ans,
            num_shards=num_shards,
            scheduler=scheduler,
            schedule=schedule,
        )
        trainer.name = plan.legacy_name()
        trainer.execution_plan = plan
        session = cls(model, dp, plan, trainer)
        if plan.obs is not None:
            from ..obs import Observability

            modes = plan.obs.split("+")
            session.observability = trainer.instrument(
                Observability(trace="trace" in modes, metrics="metrics" in modes)
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

        ``None`` defers to the plan's ``serve`` axis (``serve`` rows
        size a fresh hot-row cache per handle, at the cache's default
        admission threshold — caches hold privatized bits, so they are
        never shared between engines); ``False`` forces an uncached
        handle; anything else is used as the cache instance directly.
        """
        if cache is False:
            return None
        if cache is not None:
            return cache
        if not self.plan.serve:
            return None
        from ..serve.cache import HotRowCache

        return HotRowCache(self.plan.serve)

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

    def detach_serving(self) -> None:
        """Freeze every attached serving handle at its current state."""
        for engine in self._serving:
            engine.detach()
        self._serving.clear()

    # -- lifecycle and reporting -------------------------------------------
    def stats(self) -> dict:
        """The plan, the algorithm, the trainer's stats tree
        (:meth:`repro.lazydp.trainer.LazyDPTrainer.stats`), the attached
        serving handles' counters (``serving``) and the live metrics —
        top-level sections, none nested in another."""
        stats = {
            "plan": self.plan.to_spec(),
            "algorithm": self.trainer.name,
            **self.trainer.stats(),
        }
        if self._serving:
            stats["serving"] = [engine.stats() for engine in self._serving]
        if self.observability is not None and self.observability.metrics_enabled:
            stats["metrics"] = self.observability.metrics.snapshot()
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


def _trainer_constructor(plan: ExecutionPlan, num_shards: int):
    """The trainer class for the plan's backend, called as
    ``constructor(model, dp, noise_seed=, use_ans=, num_shards=,
    scheduler=, schedule=)``."""
    name, workers = plan.split_backend()
    if name == "process":
        from ..procshard.trainer import ProcessShardedLazyDPTrainer

        return ProcessShardedLazyDPTrainer
    if name == "threads":
        # One worker per shard unless capped: tasks are shard-grained,
        # so more workers than shards cannot help.
        pool = partial(ThreadPoolShardExecutor, workers or num_shards)
        return partial(LazyDPTrainer, executors=pool)
    return LazyDPTrainer  # numpy: shard tasks serially, in shard order


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
