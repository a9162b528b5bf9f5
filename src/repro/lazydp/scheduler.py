"""Where each stage of the lazy update runs.

:class:`repro.lazydp.trainer.LazyDPTrainer` spells the embedding update
once — dedup, route, plan + sample, apply — and the terminal flush
once.  The :class:`Scheduler`, built by
:meth:`repro.session.TrainSession.build` from the
:class:`repro.session.ExecutionPlan`, answers the "where" questions and
owns the lifecycle around them:

* **noise** is computed inline (trainer thread), or popped from the
  :class:`StagingBuffer <repro.pipeline.staging.StagingBuffer>` a
  :class:`NoisePrefetchWorker <repro.pipeline.prefetch.
  NoisePrefetchWorker>` fills ``prefetch_depth`` iterations ahead — the
  catch-up for iteration ``i`` depends only on the *next* batch's row
  set, which the input pipeline knows a full iteration earlier (paper
  Section 5), so it overlaps forward/backward and input gather;
* **apply** runs inline, or is collected per iteration and handed to
  the :class:`ApplyWorker <repro.async_.apply.ApplyWorker>`, at most
  ``max_in_flight`` iterations outstanding; a step waits for every
  prior apply before it reads the slabs;
* **shard tasks** run in place (one shard), through the one
  :class:`ShardExecutor <repro.shard.executor.ShardExecutor>` both the
  apply and the prefetch side call, or as worker-process messages
  (:mod:`repro.procshard`).

Thread roles while a ``fit`` is running (disjoint state): the *prefetch
worker* (``noise-prefetch``) owns HistoryTables and ANS counters, the
*apply worker* (``lazydp-apply``, or the trainer thread when applies
are synchronous) owns parameter slabs and the ledger, the *trainer
thread* owns activations, dense parameters and the staging handoffs.
Dense (MLP) updates stay synchronous on the trainer thread — only
embedding applies are deferred.  Every fan-out any of them makes —
shard tasks, a shard's tables, the dense half's row parts — goes to the
one pool of lanes (:mod:`repro.kernels.lanes`), which runs it inline on
its caller while another caller holds the pool, so no side ever queues
behind another's fan-out.  Outside a ``fit`` nothing is running and
every stage falls back to the inline path, so manual ``train_step``
driving (benchmark harnesses, serving writers) keeps working under any
plan.

Prefetching and deferring change *when* a stage runs, never *what* it
computes: every noise value is a pure function of ``(seed, table, row,
iteration)`` and the row's delay, plans are computed strictly in
iteration order against exclusively-owned histories, and applies land
FIFO, and no step reads a slab with an outstanding apply.  Training is
therefore bitwise-equal to the inline schedule under every placement.
"""

from __future__ import annotations

from ..async_.apply import ApplyWorker
from ..data.loader import DataLoader, LookaheadLoader
from ..pipeline.prefetch import NoisePrefetchWorker
from ..pipeline.staging import StagingBuffer


class Scheduler:
    """Placement and lifecycle of one trainer's update stages.

    ``prefetch_depth`` — ``None`` computes noise inline; otherwise it
    sets both the input-queue lookahead and the staging-buffer
    capacity (depth 1 overlaps the catch-up with the *current* step's
    forward/backward; depth >= 2, double buffering, adds a full
    iteration of runway).  ``max_in_flight`` — ``None`` applies inline;
    otherwise the cap on outstanding iteration applies, which implies
    prefetching with a default depth of ``max(2, max_in_flight)`` so
    the noise runway never becomes the in-flight bottleneck.
    """

    def __init__(
        self,
        prefetch_depth: int | None = None,
        max_in_flight: int | None = None,
    ):
        if max_in_flight is not None:
            if max_in_flight < 1:
                raise ValueError("max_in_flight must be at least 1")
            if prefetch_depth is None:
                prefetch_depth = max(2, max_in_flight)
        if prefetch_depth is not None and prefetch_depth < 1:
            raise ValueError("prefetch_depth must be at least 1")
        self.prefetch_depth = prefetch_depth
        self.max_in_flight = max_in_flight
        self.trainer = None
        #: How shard tasks run: ``None`` runs the one shard in place.
        self.executor = None
        self._buffer: StagingBuffer | None = None
        self._worker: NoisePrefetchWorker | None = None
        self.noise_std: float | None = None
        self._apply_worker: ApplyWorker | None = None
        self._collected: list | None = None
        self._last_submitted = 0
        self.running = False

    def bind(self, trainer, executors=None) -> None:
        """Attach to ``trainer``.  ``executors()`` builds the backend's
        :class:`ShardExecutor`; ``None`` (the one-shard case) leaves the
        shard's stage list running in place."""
        self.trainer = trainer
        if executors is not None:
            self.executor = executors()
        self._reset_timers()

    @property
    def prefetches(self) -> bool:
        return self.prefetch_depth is not None

    @property
    def defers_apply(self) -> bool:
        return self.max_in_flight is not None

    def _reset_timers(self) -> None:
        """Fresh worker-side timers per ``fit``, so the stats stay
        per-run like the buffer/worker counters they sit beside.

        ``worker_timer``: prefetch-thread orchestration (dedup, routing,
        the per-shard fan-out wall ``shard_prefetch``); ``apply_timer``:
        apply-thread orchestration (routing, ``shard_model_update``).
        Kept apart from ``trainer.timer`` so no two threads ever write
        the same StageTimer entry.
        """
        self.worker_timer = self.trainer._make_timer()
        self.apply_timer = self.trainer._make_timer()

    # -- session lifecycle ---------------------------------------------------
    def start(self, loader: DataLoader) -> LookaheadLoader:
        """``fit``'s loader wrap: the paper's one-batch lookahead, or —
        when prefetching — a deeper input queue with the prefetch worker
        hung off its ``on_load`` hook."""
        if not self.prefetches:
            return LookaheadLoader(loader)
        self.shutdown()
        trainer = self.trainer
        self._reset_timers()
        # The catch-up std is the per-iteration noise std at the expected
        # (lot-size) batch — constant across iterations even under
        # Poisson sampling, so the worker can draw ahead of time.
        self.noise_std = trainer.config.noise_std(loader.batch_size)
        # The fit numbers its steps on from here.
        base = trainer.current_iteration()
        self._buffer = StagingBuffer(capacity=self.prefetch_depth)
        self._worker = NoisePrefetchWorker(
            trainer._prefetch, self._buffer,
            tracer=trainer.obs.timer_tracer(), offset=base,
        )
        if self.defers_apply:
            self._last_submitted = base
            self._apply_worker = ApplyWorker(
                self.max_in_flight, tracer=trainer.obs.timer_tracer(),
                applied_through=base,
            )
            self._apply_worker.start()
        self.running = True
        self._worker.start()
        return LookaheadLoader(
            loader, depth=self.prefetch_depth, on_load=self._worker.submit
        )

    def quiesce(self) -> None:
        """Graceful end of training, in dependency order: the prefetch
        worker stops touching histories, then every in-flight apply
        lands (re-raising any apply failure here) — only then may the
        terminal flush read histories and write slabs."""
        if not self.running:
            return
        self._worker.join(timeout=60.0)
        if self._apply_worker is not None:
            self._apply_worker.drain(self._last_submitted)
        self.running = False

    def shutdown(self) -> None:
        """Force shutdown (error paths and restarts).  Idempotent."""
        if self._worker is not None and self._worker.is_alive:
            self._worker.close()
        if self._apply_worker is not None and self._apply_worker.is_alive:
            self._apply_worker.close()
        self._collected = None
        self.running = False

    # -- one step ------------------------------------------------------------
    def begin_step(self, iteration: int) -> None:
        """The wait before a step reads the slabs: every prior apply
        must have landed."""
        if not (self.running and self.defers_apply):
            return
        trainer = self.trainer
        obs = trainer.obs
        if obs.enabled:
            # In-flight depth and staleness lag at step entry (i.e.
            # before the wait below narrows them).
            applied = self._apply_worker.applied_through
            obs.observe_inflight(
                self._last_submitted - applied,
                max(iteration - 1 - applied, 0),
            )
        if iteration > 1:
            with trainer.timer.time("staleness_wait"):
                self._apply_worker.wait_for(iteration - 1)
        self._collected = []

    def staged(self, iteration: int, noise_std: float):
        """The prefetched per-shard noise for ``iteration`` (every
        table's), or ``None`` when noise is computed inline (the wait,
        if any, is the exposed noise time)."""
        if not self.running:
            return None
        if noise_std != self.noise_std:
            raise RuntimeError(
                "noise std drifted from the prefetched value "
                f"({noise_std} != {self.noise_std}); "
                "staged noise would be wrong"
            )
        trainer = self.trainer
        if trainer.obs.enabled:
            # Occupancy > 0 means the plan is already staged — the pop
            # below returns without a meaningful wait (a prefetch hit).
            trainer.obs.observe_staging(len(self._buffer))
        with trainer.timer.time("pipeline_wait"):
            return self._buffer.pop(iteration).shards

    def apply(self, update) -> None:
        """Run ``update(timer)`` now on the trainer thread, or collect
        it for this iteration's hand-off to the apply worker."""
        if self._collected is None:
            update(self.trainer.timer)
        else:
            self._collected.append(update)

    def end_step(self, iteration: int) -> None:
        """Hand the step's collected applies to the apply worker, which
        is from here on the slabs' (and the shard executor's) only
        client until its FIFO drains."""
        if self._collected is None:
            return
        updates, self._collected = self._collected, None
        timer = self.apply_timer

        def apply_iteration():
            for update in updates:
                update(timer)

        self._apply_worker.submit(iteration, apply_iteration)
        self._last_submitted = iteration

    def run_shard_tasks(self, tasks: list, timer, prefetch: bool = False) -> list:
        """Run one task per shard: in place for the one-shard case, else
        through the executor under a wall-clock span on the calling
        thread's ``timer`` (``prefetch``: the span's name).  The apply
        and prefetch sides share the executor: the task sets touch
        disjoint state (slabs vs histories and ANS counters)."""
        if self.executor is None:
            return [task() for task in tasks]
        with timer.time("shard_prefetch" if prefetch else "shard_model_update"):
            return self.executor.run(tasks)

    # -- reporting -----------------------------------------------------------
    def pipeline_stats(self) -> dict:
        """Hidden-vs-exposed accounting for the last ``fit`` run.

        ``prefetch_busy_seconds`` is background compute; the share of it
        the trainer did *not* wait for (``hidden_seconds``) ran behind
        forward/backward and input gather.
        """
        worker, buffer = self._worker, self._buffer
        busy = worker.busy_seconds if worker else 0.0
        wait = buffer.wait_seconds if buffer else 0.0
        hidden = max(busy - wait, 0.0)
        return {
            "prefetch_depth": self.prefetch_depth,
            "prefetch_busy_seconds": busy,
            "exposed_wait_seconds": wait,
            "hidden_seconds": hidden,
            "hidden_fraction": (hidden / busy) if busy > 0.0 else 0.0,
            "producer_stall_seconds": buffer.stall_seconds if buffer else 0.0,
            "plans_computed": worker.plans_computed if worker else 0,
            "worker_stage_seconds": self.worker_timer.as_dict(),
        }

    def async_stats(self) -> dict:
        """Apply-side accounting for the last ``fit`` run."""
        worker = self._apply_worker
        waited = self.trainer.timer.totals.get("staleness_wait", 0.0)
        return {
            "max_in_flight": self.max_in_flight,
            "applies_completed": worker.applies_completed if worker else 0,
            "apply_busy_seconds": worker.busy_seconds if worker else 0.0,
            "submit_stall_seconds": worker.submit_stall_seconds if worker else 0.0,
            "staleness_wait_seconds": waited,
            "apply_stage_seconds": self.apply_timer.as_dict(),
        }
