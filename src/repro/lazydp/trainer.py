"""The LazyDP trainer: DP-SGD(F)'s clipping pipeline + lazy sparse noise.

Forward and backward propagation are untouched relative to the strongest
eager baseline (Algorithm 1, lines 8-10 — "identical to standard DP-SGD");
only the embedding model-update changes:

1. dedup the next mini-batch's indices         (``lazydp_dedup``)
2. read HistoryTable, compute delays/ANS stds  (``lazydp_history_read``)
3. write back the new iteration ids            (``lazydp_history_update``)
4. draw catch-up noise for next-accessed rows  (``noise_sampling``)
5. merge with the current clipped gradient     (``noisy_grad_generation``)
6. one sparse write to the table               (``noisy_grad_update``)

Those first three stages are the "pure LazyDP-introduced latency overhead"
of Figure 11 (61% / 22% / 17% split).  ``finalize`` flushes all remaining
deferred noise so the *released* model is distributed exactly as eager
DP-SGD's — the property the threat model of Section 3 rests on.

There is one trainer for every execution plan.  Stages 2-6 and the
flush are written once, over shard-local state
(:class:`repro.lazydp.optimizer.ShardState`); this class spells the
stage list around them — dedup the next batch, route when there is more
than one shard, obtain this iteration's per-shard noise, apply; every
table in one task per shard, one fan-out per iteration — and a
:class:`repro.lazydp.scheduler.Scheduler` decides where each stage runs
(trainer thread, prefetch worker, apply worker, worker process).  The
parallel work inside a stage has one pool, the lanes
(:mod:`repro.kernels.lanes`): a shard's step spreads its tables over
them, and under ``backend=threads`` the shard tasks are lane items
whose tables then walk inline.  Every plan shares one table layout
(:func:`repro.shard.tables.shard_windows`); flat is its one-range case,
decided from the shard count: no router, no executor —
the single shard state runs in place against the whole tables.

Every placement releases bitwise-identical parameters to the inline
one-shard run: the noise bits depend only on ``(seed, table, row,
iteration)`` and the delays, never on where or when they are drawn.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..kernels import lanes
from ..pipeline.staging import StagedNoise
from ..rng import native_status, vector_isa
from ..shard.executor import SerialExecutor
from ..shard.tables import shard_windows
from ..train.common import DPConfig
from ..train.dpsgd import DPSGDFTrainer
from .ans import ANSEngine
from .optimizer import LazyNoiseEngine, ShardState
from .scheduler import Scheduler

_NO_ROWS = np.empty(0, dtype=np.int64)


class LazyDPTrainer(DPSGDFTrainer):
    """LazyDP with (default) or without aggregated noise sampling.

    ``num_shards`` cuts every table into that many contiguous row
    ranges (:func:`repro.shard.plan.row_range_bounds`); ``scheduler``
    places the update stages; ``executors`` builds the
    :class:`repro.shard.ShardExecutor` shard tasks run through.  All
    three come from :meth:`repro.session.TrainSession.build`; the
    defaults are the paper's serial trainer.  ``schedule`` (an
    :class:`repro.train.schedules.LRSchedule`) rides inside
    ``mechanism``, the sample-stage prototype every consumer forks.
    """

    name = "lazydp"

    def __init__(
        self,
        model,
        config: DPConfig,
        noise_seed: int = 1234,
        use_ans: bool = True,
        *,
        num_shards: int = 1,
        scheduler: Scheduler | None = None,
        executors=SerialExecutor,
        schedule=None,
    ):
        super().__init__(model, config, noise_seed, schedule=schedule)
        #: The sample-stage mechanism (stream, ANS mode, schedule).  The
        #: prototype: nothing samples through it, every consumer — shard
        #: states, the engine's release facade, serving engines, worker
        #: processes — holds its own ``fork()``.
        self.mechanism = ANSEngine(
            self.noise_stream, enabled=use_ans, schedule=schedule
        )
        if not use_ans:
            self.name = "lazydp_no_ans"
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        #: How many row ranges every table is cut into (1: flat).
        self.num_shards = int(num_shards)
        self._next_batch = None
        self._last_noise_std: float | None = None
        self.engine = self._build_engine()
        self.scheduler.bind(
            self, executors if self.engine.router is not None else None
        )

    def _build_engine(self) -> LazyNoiseEngine:
        """Shard-local state for every one of ``self.num_shards``, in this
        process.  A plan with deferred applies keeps a ledger."""
        windows, histories, ledgers, router = shard_windows(
            self.model, self.num_shards, self.scheduler.defers_apply
        )
        # The one shard of an all-inline plan runs on the trainer thread
        # and reports into the trainer's own stage breakdown.
        inline = self.num_shards == 1 and not self.scheduler.prefetches
        states = [
            ShardState(
                shard_windows_,
                self.mechanism,
                timer=self.timer if inline else None,
            )
            for shard_windows_ in windows
        ]
        #: One StageTimer per shard, accumulating that shard's
        #: model-update stage times across all tables and iterations.
        self.shard_timers = [state.timer for state in states]
        return LazyNoiseEngine(
            self.mechanism,
            histories,
            states,
            router,
            ledger=ledgers,
        )

    @property
    def use_ans(self) -> bool:
        return self.mechanism.enabled

    # -- the training loop hooks ---------------------------------------------
    def _make_lookahead(self, loader):
        return self.scheduler.start(loader)

    def fit(self, loader):
        current = self.current_iteration()
        if current > (self.engine.flushed_through or 0):
            # A step catches up only the *next* batch's rows, so the rows
            # of a fit's first batch must already be current: flush what
            # the steps since the last flush (manual, or before a
            # checkpoint) still owe.
            self.expected_batch_size = loader.batch_size
            self.finalize(current)
        try:
            return super().fit(loader)
        finally:
            self.scheduler.shutdown()

    def _step(self, iteration: int, batch, next_batch) -> float:
        self._next_batch = next_batch
        self.scheduler.begin_step(iteration)
        loss = super()._step(iteration, batch, next_batch)
        self.scheduler.end_step(iteration)
        return loss

    def current_iteration(self) -> int:
        """The iteration the model stands at — the single definition the
        release and serving paths share.

        The max of the last stepped and last flushed iteration: after a
        fit the flush marker leads the step marker, but when training
        resumes past a flush the step marker leads again — releasing or
        serving at the stale flush point would drop the resumed steps'
        deferred-noise accounting.
        """
        current = int(self.last_iteration)
        flushed = self.engine.flushed_through
        if flushed is not None:
            current = max(current, int(flushed))
        return current

    # -- the lazy embedding update, once ---------------------------------------
    def _next_requests(self, batch, timer) -> list:
        """Stage 1 for every table, routed: per shard, per table, the
        ``(global, local)`` unique rows the next batch gathers."""
        tables = range(len(self.model.embeddings))
        if batch is None:
            # Final iteration: no lookahead exists; the terminal flush
            # performs every remaining catch-up.
            rows = [_NO_ROWS for _ in tables]
        else:
            if self.engine.router is None:
                # The one-shard layout sorts every table's lookups on the
                # lanes; the rows are still read here, one table at a time.
                with timer.time("lazydp_dedup"):
                    lanes.fan_out(batch.lookup_sort, tables)
            rows = []
            for table_index in tables:
                with timer.time("lazydp_dedup"):
                    rows.append(batch.accessed_rows(table_index))
        return self.engine.split_rows(rows, timer)

    def _staged_noise(self, iteration: int, noise_std: float):
        """Per-shard noise planned ahead of this step (what each
        shard's ``plan_all`` returned, wherever it ran), or ``None``
        when every shard plans + samples inside its task."""
        if self._next_batch is None:
            return None
        return self.scheduler.staged(iteration, noise_std)

    # Override the table-by-table dense noisy update with the lazy sparse
    # one, whose unit of shard work is (shard, iteration): all tables.
    def _apply_embedding_updates(
        self, grads: dict, iteration: int, noise_std: float
    ) -> None:
        self._last_noise_std = noise_std
        # Per shard, one of the two: noise planned ahead, or the request
        # the shard's own task plans + samples from.
        requests = unset = [None] * len(self.engine.states)
        noise = self._staged_noise(iteration, noise_std)
        if noise is None:
            noise = unset
            requests = self._next_requests(self._next_batch, self.timer)
        sparse_grads = [grads[bag.table.name] for bag in self.model.embeddings]
        self.scheduler.apply(
            partial(
                self._update_shards, sparse_grads, requests, noise, iteration, noise_std
            )
        )

    def _update_shards(
        self, sparse_grads, requests, noise, iteration, noise_std, timer
    ) -> None:
        """Route the gradients (more than one shard) and run every
        shard's stage list for the iteration — one fan-out — on
        whichever thread owns the slabs."""
        engine = self.engine
        grads = engine.split_grads(sparse_grads, timer)
        lr = self._learning_rate(iteration)
        tasks = [
            partial(
                state.step, requests[s], noise[s], grads[s], lr, iteration, noise_std
            )
            for s, state in enumerate(engine.states)
        ]
        self.scheduler.run_shard_tasks(tasks, timer)

    # Runs on the prefetch worker thread.
    def _prefetch(self, iteration: int, batch):
        """Stages 1-4 of ``iteration`` for every table, ahead of the
        step that consumes them: one fan-out, one task per shard."""
        scheduler = self.scheduler
        timer = scheduler.worker_timer
        requests = self._next_requests(batch, timer)
        tasks = [
            partial(state.plan_all, requests[s], iteration, scheduler.noise_std)
            for s, state in enumerate(self.engine.states)
        ]
        # Wall-clock of the per-shard fan-out; the history-vs-sampling
        # split inside it lives in the shard timers.
        return StagedNoise(
            iteration, scheduler.run_shard_tasks(tasks, timer, prefetch=True)
        )

    # -- release ---------------------------------------------------------------
    def _flush_noise_std(self) -> float:
        """Per-iteration noise std for the terminal flush.

        Normally the std observed on the last training step; when no step
        ran (finalize-before-step, e.g. resuming just to release a model)
        fall back to the configured std at the expected batch size,
        guarding against ``expected_batch_size`` being unset or zero.
        """
        if self._last_noise_std is not None:
            return self._last_noise_std
        denominator = max(int(self.expected_batch_size or 0), 1)
        return self.config.noise_std(denominator)

    def finalize(self, final_iteration: int) -> None:
        """Flush all deferred noise so the released model matches DP-SGD."""
        self.scheduler.quiesce()
        if final_iteration == 0:
            return
        noise_std = self._flush_noise_std()
        lr = self._learning_rate(final_iteration)
        states = self.engine.states
        # The flush is a one-time end-of-training cost (it makes the
        # *released* model match DP-SGD), so it gets its own stage rather
        # than polluting the per-iteration noise-sampling numbers.
        with self.timer.time("terminal_flush"):
            if self.scheduler.executor is None:
                for table_index in range(len(self.model.embeddings)):
                    states[0].flush(table_index, final_iteration, lr, noise_std)
            else:
                self.scheduler.executor.run(
                    [
                        partial(state.flush_all, final_iteration, lr, noise_std)
                        for state in states
                    ]
                )
        self.engine.flushed_through = int(final_iteration)

    # -- the noise ledger --------------------------------------------------------
    @property
    def ledger(self) -> tuple:
        """Every table's :class:`VersionVector`; empty under plans that
        keep no ledger."""
        return self.engine.ledger

    def audit_noise_ledger(self, final_iteration: int) -> None:
        """Prove noise was applied exactly once per (row, iteration)
        through ``final_iteration`` (raises ``LedgerError`` otherwise).

        This is the deferred-apply and cross-process acceptance check:
        beside the released bits, the deferred-noise accounting itself
        must be exact.
        """
        for vector in self.ledger:
            vector.audit_complete(final_iteration)

    # -- reporting -----------------------------------------------------------------
    def kernel_stats(self) -> dict:
        """Which implementation of the noise draw, the sparse apply and
        the embedding scatter-add ran (``native`` / ``numpy``) and,
        compiled, on which instruction set (``vector_isa``: ``avx512`` /
        ``scalar``, ``None`` on numpy); the lanes the release walk,
        large draws and the step's per-table loops spread over
        (:func:`repro.kernels.lanes.stats`); and per shard its draws
        and timer counters (:meth:`ShardState.stats`)."""
        return {
            "compiled_kernels": native_status()[0],
            "vector_isa": vector_isa(),
            "lanes": lanes.stats(),
            "shards": self._shard_kernel_stats(),
        }

    def _shard_kernel_stats(self) -> list:
        return [state.stats() for state in self.engine.states]

    def stats(self) -> dict:
        """The trainer's one stats tree; no section nests another.

        * ``kernel`` — :meth:`kernel_stats`;
        * ``shards`` — :meth:`shard_time_summary`, when the shards keep
          timers of their own (routed plans, and a flat plan whose one
          shard runs off the trainer thread; otherwise its stages are
          the trainer's own, ``TrainResult.stage_times``);
        * ``pipeline`` — the prefetch accounting of the last ``fit``
          (plans that prefetch);
        * ``async`` — the apply-side accounting of the last ``fit``
          (plans that defer applies).

        The process backend adds ``procshard``.
        """
        scheduler = self.scheduler
        tree = {"kernel": self.kernel_stats()}
        if self.shard_timers[0] is not self.timer:
            tree["shards"] = self.shard_time_summary()
        if scheduler.prefetches:
            tree["pipeline"] = scheduler.pipeline_stats()
        if scheduler.defers_apply:
            tree["async"] = scheduler.async_stats()
        return tree

    def shard_time_summary(self) -> dict:
        """Deterministic merge of the per-shard timers (model-update
        stages only): the per-shard breakdown, the same stages summed
        across shards, each shard's total update seconds, and the
        max/min skew between shards.  This is what
        ``TrainResult.shard_times`` carries, so the load-balance view
        survives ``fit`` instead of dying with the trainer."""
        per_shard = [dict(timer.totals) for timer in self.shard_timers]
        summed: dict = {}
        for totals in per_shard:
            for stage, seconds in totals.items():
                summed[stage] = summed.get(stage, 0.0) + seconds
        update_seconds = [timer.total() for timer in self.shard_timers]
        slowest, fastest = max(update_seconds), min(update_seconds)
        return {
            "per_shard": per_shard,
            "summed": summed,
            "update_seconds": update_seconds,
            "skew": {
                "max": slowest,
                "min": fastest,
                "spread": slowest - fastest,
            },
        }

    def _fit_shard_times(self):
        routed = self.engine.router is not None
        return self.shard_time_summary() if routed else None

    def _auxiliary_timers(self) -> tuple:
        scheduler = self.scheduler
        shard_timers = [t for t in self.shard_timers if t is not self.timer]
        return (scheduler.worker_timer, scheduler.apply_timer, *shard_timers)

    def close(self) -> None:
        """Stop the scheduler's workers (idempotent)."""
        self.scheduler.shutdown()
