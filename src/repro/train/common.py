"""Shared trainer machinery: hyper-parameters, stage timing, update kernels.

Stage names deliberately mirror the paper's figure legends so benchmark
output maps one-to-one onto Figures 3, 5, 10 and 11:

* ``fwd``                    - forward propagation
* ``bwd_per_example``        - per-example gradient / norm derivation
* ``bwd_per_batch``          - per-batch (reweighted) gradient derivation
* ``grad_coalescing``        - building sparse row gradients
* ``noise_sampling``         - Gaussian sampling (the compute-bound stage)
* ``noisy_grad_generation``  - merging gradient with noise
* ``noisy_grad_update``      - applying updates to weights (memory-bound)
* ``lazydp_dedup`` / ``lazydp_history_read`` / ``lazydp_history_update``
                             - the pure LazyDP overheads of Figure 11
* ``shard_routing`` / ``shard_model_update``
                             - sharded-engine index routing and the
                               (wall-clock) parallel per-shard update
* ``pipeline_wait``          - time the pipelined trainer spent blocked
                               on the noise-prefetch worker (the
                               *exposed* part of catch-up noise cost;
                               everything the worker finished early is
                               hidden behind fwd/bwd and input gather)
* ``staleness_wait``         - time the async trainer spent blocked on
                               outstanding applies (a step waits for
                               every prior apply before it reads the
                               slabs)
* ``else``                   - everything not attributed above
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..data.loader import DataLoader, LookaheadLoader
from ..kernels.arena import minor_faults
from ..nn.dlrm import DLRM
from ..obs import NULL_OBS
from ..privacy.accountant import RDPAccountant
from ..privacy.mechanisms import gradient_noise_std
from ..rng import NoiseStream, philox_invocations
from .optimizers import DenseOptimizer, DenseSGD

MODEL_UPDATE_STAGES = (
    "grad_coalescing",
    "noise_sampling",
    "noisy_grad_generation",
    "noisy_grad_update",
    "lazydp_dedup",
    "lazydp_history_read",
    "lazydp_history_update",
    "shard_routing",
    "shard_model_update",
    "pipeline_wait",
    "staleness_wait",
)

LAZYDP_OVERHEAD_STAGES = (
    "lazydp_dedup",
    "lazydp_history_read",
    "lazydp_history_update",
)


class StageTimer:
    """Accumulates wall-clock time per named pipeline stage.

    Besides stage *times*, a timer carries event *counters* — e.g. the
    applies the fused kernel ran on its numpy expressions — kept in a
    separate namespace so ``as_dict`` (consumed as seconds everywhere)
    stays time-only; ``stats`` reports both.  Times and counters
    accumulate under one lock, so the lanes a step's per-table loops
    fan out over (:mod:`repro.kernels.lanes`) may write the same timer:
    a stage's seconds are then busy seconds summed over the threads
    that ran it, and no interval or count is lost.

    A timer is also the adapter into the observability layer: when
    ``tracer`` holds a :class:`repro.obs.Tracer`, every timed stage is
    forwarded as a span *reusing the same perf_counter pair*, so the
    trace and the accumulated seconds describe identical intervals and
    the untraced arithmetic is bit-for-bit what it always was.
    """

    def __init__(self, tracer=None):
        self.totals: dict = {}
        self.counters: dict = {}
        self._lock = threading.Lock()
        #: Optional span sink (``repro.obs.Tracer``).  ``None`` — the
        #: default, and what instrumentation rebinds when tracing is
        #: off — keeps the stage accounting untouched.
        self.tracer = tracer

    @contextmanager
    def time(self, stage: str):
        tracer = self.tracer
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            with self._lock:
                self.totals[stage] = self.totals.get(stage, 0.0) + (end - start)
            if tracer is not None:
                tracer.add_complete(stage, start, end)

    def count(self, name: str, value: int = 1) -> None:
        """Accumulate an event counter (kernel instrumentation)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + int(value)

    def total(self, *stages: str) -> float:
        if not stages:
            return sum(self.totals.values())
        return sum(self.totals.get(stage, 0.0) for stage in stages)

    def model_update_total(self) -> float:
        return self.total(*MODEL_UPDATE_STAGES)

    def lazydp_overhead_total(self) -> float:
        return self.total(*LAZYDP_OVERHEAD_STAGES)

    def as_dict(self) -> dict:
        return dict(self.totals)

    def stats(self) -> dict:
        """Stage seconds plus event counters, for reporting surfaces."""
        return {
            "stage_seconds": dict(self.totals),
            "counters": dict(self.counters),
        }


@dataclass(frozen=True)
class DPConfig:
    """DP-SGD hyper-parameters (paper Figure 9a's wrapper arguments)."""

    noise_multiplier: float = 1.1
    max_grad_norm: float = 1.0
    learning_rate: float = 0.05
    delta: float = 1e-5

    def noise_std(self, batch_size: int) -> float:
        """Per-coordinate std of noise on the averaged clipped gradient."""
        return gradient_noise_std(self.noise_multiplier, self.max_grad_norm, batch_size)


@dataclass
class TrainResult:
    """Everything a ``fit`` run produced."""

    algorithm: str
    #: Steps this run trained (its last iteration is the trainer's
    #: ``current_iteration()``).
    iterations: int
    mean_losses: list = field(default_factory=list)
    stage_times: dict = field(default_factory=dict)
    epsilon: float | None = None
    wall_time: float = 0.0
    #: Event counters merged across every StageTimer the run owned
    #: (trainer + shard/prefetch/apply timers) — ``numpy_applies`` and
    #: friends survive ``fit`` instead of dying with the trainer — plus
    #: ``minor_faults``: the process's minor page faults over the step
    #: loop (every thread's, ``finalize`` not included).
    counters: dict = field(default_factory=dict)
    #: Sharded runs only: the per-shard stage breakdown plus the
    #: summed-per-stage view and max/min skew (None on flat runs).
    shard_times: dict | None = None

    @property
    def final_loss(self) -> float:
        return self.mean_losses[-1] if self.mean_losses else float("nan")


class TrainerBase:
    """Common training loop; subclasses implement one DP-SGD variant each.

    The loop walks a :class:`LookaheadLoader`, so every step sees the
    current batch *and* the prefetched next batch.  Eager algorithms ignore
    the lookahead; LazyDP uses it to schedule deferred noise.  Iterations
    are 1-based to match Algorithm 1 (a ``HistoryTable`` value of 0 means
    "all noise up to iteration 0", i.e. none).
    """

    name = "base"
    is_private = True

    def __init__(
        self,
        model: DLRM,
        config: DPConfig,
        noise_seed: int = 1234,
        dense_optimizer: DenseOptimizer | None = None,
        schedule=None,
    ):
        self.model = model
        self.config = config
        self.noise_stream = NoiseStream(noise_seed)
        self.timer = StageTimer()
        self.accountant = RDPAccountant() if self.is_private else None
        # Dense (MLP) parameters may use any update rule — the noise for
        # them is applied eagerly every iteration, so statefulness is
        # fine.  Embedding tables are pinned to the linear sparse update
        # inside each trainer (LazyDP's deferral requires it; see
        # repro.train.optimizers).
        self.dense_optimizer = dense_optimizer or DenseSGD(config.learning_rate)
        # With Poisson sampling the realised batch size fluctuates, but the
        # DP convention (Opacus) averages and scales noise by the expected
        # lot size; ``fit`` pins this from the loader.
        self.expected_batch_size: int | None = None
        # Highest iteration stepped so far (0 = untrained), recorded by
        # every ``train_step`` — fitted or manual — so noise keys never
        # repeat; attached serving engines (``repro.serve``) watch it to
        # detect resumed training.
        self.last_iteration: int = 0
        # Observability hub (repro.obs).  NULL_OBS is the shared null
        # object: every instrumentation site in the engines gates on
        # one attribute check, so an uninstrumented trainer pays
        # nothing.  ``instrument()`` swaps in a live hub.
        self.obs = NULL_OBS
        # Optional learning-rate schedule (``repro.train.schedules``);
        # None is the constant lr from config.  Every update and release
        # path reads the rate through ``_learning_rate(iteration)``.
        self.schedule = schedule

    def _batch_denominator(self, batch) -> int:
        return self.expected_batch_size or batch.size

    def _learning_rate(self, iteration: int) -> float:
        # Iteration 0 is the untrained model: nothing is applied at it,
        # and schedules are 1-based.
        if self.schedule is not None and iteration > 0:
            return self.schedule.rate(iteration)
        return self.config.learning_rate

    # -- observability ----------------------------------------------------
    def instrument(self, obs=None):
        """Attach an :class:`repro.obs.Observability` hub (default: a
        metrics-only one) and rebind every timer's span sink to it.
        Returns the hub so callers can read it back after the run."""
        from ..obs import Observability

        if obs is None:
            obs = Observability()
        self.obs = obs
        tracer = obs.timer_tracer()
        self.timer.tracer = tracer
        for timer in self._auxiliary_timers():
            timer.tracer = tracer
        return obs

    def _auxiliary_timers(self) -> tuple:
        """Every StageTimer the trainer owns besides ``self.timer`` —
        LazyDP's per-shard, prefetch-worker and apply-worker timers.  Feeds both ``instrument`` (tracer
        rebinding) and the merged ``TrainResult.counters``."""
        return ()

    def _make_timer(self) -> StageTimer:
        """A StageTimer bound to the current observability hub; used
        wherever a trainer (re)creates timers of its own."""
        return StageTimer(tracer=self.obs.timer_tracer())

    def _fit_counters(self) -> dict:
        """Merged event counters across all the run's timers."""
        counters = dict(self.timer.counters)
        for timer in self._auxiliary_timers():
            for name, value in timer.counters.items():
                counters[name] = counters.get(name, 0) + value
        return counters

    def _fit_shard_times(self):
        """Per-shard breakdown for ``TrainResult.shard_times``
        (``None`` for unsharded trainers; LazyDP overrides)."""
        return None

    # -- stepping ----------------------------------------------------------
    def current_iteration(self) -> int:
        """The iteration the model stands at: the last one stepped."""
        return int(self.last_iteration)

    def train_step(self, iteration: int, batch, next_batch) -> float:
        """One training step at ``iteration``; returns the mean loss.

        Noise is keyed by iteration, so a step at or below
        :meth:`current_iteration` would draw noise some earlier step
        already drew: it is refused before any array moves.
        """
        current = self.current_iteration()
        if iteration <= current:
            raise ValueError(
                f"iteration {iteration} is not after the trainer's current "
                f"iteration {current}: its noise was already drawn"
            )
        loss = self._step(iteration, batch, next_batch)
        self.last_iteration = int(iteration)
        return loss

    # -- subclass hooks --------------------------------------------------
    def _step(self, iteration: int, batch, next_batch) -> float:
        raise NotImplementedError

    def finalize(self, final_iteration: int) -> None:
        """Hook run once after the last iteration (LazyDP flushes here)."""

    def _make_lookahead(self, loader: DataLoader) -> LookaheadLoader:
        """How ``fit`` wraps the loader.  The default is the paper's
        one-batch lookahead; a prefetching LazyDP scheduler requests a
        deeper queue and attaches its noise-prefetch worker to the
        ``on_load`` hook."""
        return LookaheadLoader(loader)

    # -- main loop --------------------------------------------------------
    def fit(self, loader: DataLoader) -> TrainResult:
        """Train one step per batch of ``loader``, numbered on from
        :meth:`current_iteration`, then :meth:`finalize`."""
        obs = self.obs
        tracer = obs.tracer
        philox_start = philox_invocations() if obs.metrics_enabled else 0
        start = time.perf_counter()
        self.expected_batch_size = loader.batch_size
        final_iteration = self.current_iteration()
        losses = []
        faults_start = minor_faults()
        for _, batch, next_batch in self._make_lookahead(loader):
            iteration = final_iteration + 1
            with tracer.span("train_step", iteration=iteration):
                loss = self.train_step(iteration, batch, next_batch)
            losses.append(loss)
            if self.accountant is not None:
                self.accountant.step(self.config.noise_multiplier, loader.sample_rate)
            final_iteration = iteration
        faults = minor_faults() - faults_start
        with tracer.span("finalize", iteration=final_iteration):
            self.finalize(final_iteration)
        epsilon = None
        if self.accountant is not None and self.accountant.steps:
            epsilon = self.accountant.get_epsilon(self.config.delta)
        result = TrainResult(
            algorithm=self.name,
            iterations=len(losses),
            mean_losses=losses,
            stage_times=self.timer.as_dict(),
            epsilon=epsilon,
            wall_time=time.perf_counter() - start,
            counters={**self._fit_counters(), "minor_faults": faults},
            shard_times=self._fit_shard_times(),
        )
        if obs.metrics_enabled:
            obs.metrics.set_gauge(
                "rng.philox_launches", philox_invocations() - philox_start
            )
        return result

    # -- shared update kernels ---------------------------------------------
    def _apply_dense_noisy_updates(
        self, grads: dict, iteration: int, noise_std: float
    ) -> None:
        """Noisy update for every dense (MLP) parameter.

        All private variants treat the MLPs identically (paper Section
        5.2.1: "both DP-SGD(F) and LazyDP apply the identical DP protection
        for MLP layers").
        """
        if self.schedule is not None:
            self.dense_optimizer.learning_rate = self._learning_rate(iteration)
        for name, param in self.model.dense_parameters().items():
            grad = grads[name]
            with self.timer.time("noise_sampling"):
                noise = self.noise_stream.dense_noise(
                    param.param_id, iteration, param.shape, std=noise_std
                )
            with self.timer.time("noisy_grad_generation"):
                noisy_grad = grad + noise
            with self.timer.time("noisy_grad_update"):
                self.dense_optimizer.update(param, noisy_grad)

    def _apply_dense_plain_updates(self, grads: dict, iteration: int) -> None:
        if self.schedule is not None:
            self.dense_optimizer.learning_rate = self._learning_rate(iteration)
        with self.timer.time("noisy_grad_update"):
            for name, param in self.model.dense_parameters().items():
                self.dense_optimizer.update(param, grads[name])
