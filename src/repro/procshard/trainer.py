"""The process-backend router: the one LazyDP step over worker processes.

:class:`ProcessShardedLazyDPTrainer` is :class:`repro.lazydp.trainer.
LazyDPTrainer` with its shard states *hosted elsewhere*: dedup, routing,
stage accounting, the step and the flush are the shared stage list, but
each shard's task is a message to that shard's long-lived worker
process (:mod:`repro.procshard.worker`), which runs the identical
:class:`repro.lazydp.optimizer.ShardState` methods against the same
slab bytes through shared memory — two messages per worker per step
(:mod:`repro.procshard.messages`), the ``plan`` sent before
forward/backward so the workers sample behind the router's nn work.
What is genuinely its own is OS-resource safety: spawn, handshake,
timeouts, abort, unlink-after-ready, the GC finalizer, private-copy
rematerialisation.

Construction sequence:

1. every table's parameters are *moved* into shared memory (one copy,
   at startup) and the model's parameter re-pointed at the mapping, so
   forward/backward and worker writes share pages zero-copy;
2. the engine's per-table HistoryTable and
   :class:`repro.lazydp.ledger.VersionVector` are built over shared
   memory beside them, in global row order; each worker works on its
   shard's row range of all three (:meth:`audit_noise_ledger` audits
   the ledgers after the flush);
3. workers start, attach, ack ``ready`` — then the router **unlinks**
   every segment name, so even a SIGKILLed run leaks no ``/dev/shm``
   entries.

Any worker failure — an exception reply, a vanished process, a stuck
pipe — triggers :meth:`_abort`: remaining workers are terminated, the
model/history/ledger state is rematerialized as private copies, every
mapping is closed, and a :class:`ShardWorkerError` naming the worker
propagates out of ``train_step``/``finalize``.
"""

from __future__ import annotations

import gc
import multiprocessing
import time
import weakref
from functools import partial

import numpy as np

from ..lazydp.history import HistoryTable
from ..lazydp.ledger import VersionVector
from ..lazydp.optimizer import LazyNoiseEngine
from ..lazydp.trainer import LazyDPTrainer
from ..nn.dlrm import DLRM
from ..shard.executor import ShardExecutor
from ..shard.router import ShardRouter
from ..shard.tables import shard_windows
from ..train.common import DPConfig
from .messages import (
    CMD_APPLY,
    CMD_CLOSE,
    CMD_FLUSH,
    CMD_PLAN,
    CMD_STATS,
    REPLY_ERROR,
    REPLY_OK,
    REPLY_READY,
    TableHandle,
    WorkerInit,
)
from .shm import TableSegments
from .worker import worker_main

#: A worker's ``stats`` reply: what its :class:`ShardState` reports
#: (the tree's ``kernel`` section) and what only the process knows.
_SHARD_STATE_STATS = ("samples_drawn", "timer_counters")
_WORKER_STATS = ("shard", "pid", "messages", "staged", "minor_faults")


class ShardWorkerError(RuntimeError):
    """A shard worker process failed, died, or stopped responding.

    By the time this propagates out of ``train_step`` the router has
    terminated the surviving workers and released every shared-memory
    mapping — the error is fatal to the trainer but leaks nothing.
    """


class _WorkerHandle:
    """Router-side proxy of one worker's shard state.

    ``plan_all`` / ``step`` / ``flush_all`` take what the in-process
    :class:`repro.lazydp.optimizer.ShardState` methods take and send
    the matching command.  ``plan_all`` is fire-and-forget (the worker
    stages the result; its outcome rides on the step's ack); ``step``
    and ``flush_all`` return the function that collects the ack —
    :class:`_SendThenCollect` calls those only after every shard's
    command is out.
    """

    __slots__ = ("router", "shard", "process", "conn", "pid")

    #: Workers count their own draws (``procshard_stats``).
    samples_drawn = 0

    def __init__(self, router, shard: int, process, conn):
        self.router = router
        self.shard = shard
        self.process = process
        self.conn = conn
        self.pid: int | None = None

    def plan_all(self, requests, iteration, std) -> int:
        """Returns the key the worker stages the plan under — this
        proxy's stand-in for the noise itself."""
        self.router._send(self, (CMD_PLAN, iteration, requests, std))
        return iteration

    def step(self, requests, noise, grads, lr, iteration, std):
        # ``noise`` is what ``plan_all`` returned: the staging key.
        router = self.router
        router._send(self, (CMD_APPLY, noise, grads, lr))
        return partial(router._collect_ok, self, CMD_APPLY)

    def flush_all(self, final_iteration, lr, std):
        router = self.router
        router._send(self, (CMD_FLUSH, final_iteration, lr, std))
        return lambda: router._collect_ok(self, CMD_FLUSH)["flushed"]


class _SendThenCollect(ShardExecutor):
    """Shard tasks as worker-process messages: every shard's command
    goes out before any ack is collected, so all workers run their
    kernels concurrently, in separate processes, GIL-free."""

    name = "process"

    def run(self, tasks: list) -> list:
        pending = [task() for task in tasks]
        return [collect() for collect in pending]


def _stop_workers(processes, join_timeout: float) -> None:
    """The one teardown ladder: terminate every worker still running,
    join each for ``join_timeout`` seconds, kill the stuck."""
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(timeout=join_timeout)
        if process.is_alive():  # pragma: no cover - stuck in a syscall
            process.kill()
            process.join(timeout=1.0)


def _finalize_backstop(processes, segments) -> None:
    """GC/exit safety net: no orphan workers, no leaked segments.

    Runs only if the trainer is dropped without ``close()``; captures
    the process and segment lists (never the trainer, which would make
    the finalizer keep it alive).
    """
    _stop_workers(processes, join_timeout=1.0)
    for segment_group in segments:
        segment_group.unlink()
        segment_group.close()


class ProcessShardedLazyDPTrainer(LazyDPTrainer):
    """LazyDP with one worker process per shard (``backend="process"``)."""

    #: Seconds to wait for a worker's startup ``ready`` ack (spawn-start
    #: children import numpy from cold).
    STARTUP_TIMEOUT = 60.0
    #: Seconds to wait for any single step/flush ack before declaring
    #: the worker hung.
    STEP_TIMEOUT = 120.0

    def __init__(
        self,
        model: DLRM,
        config: DPConfig,
        noise_seed: int = 1234,
        use_ans: bool = True,
        *,
        num_shards: int = 1,
        scheduler=None,
        schedule=None,
    ):
        self._closed = False
        self._segments: list = []
        self._workers: list = []
        self._procs: list = []
        #: Per-worker staging keys of a plan whose apply is still to come.
        self._planned: list | None = None
        methods = multiprocessing.get_all_start_methods()
        self._start_method = "fork" if "fork" in methods else "spawn"
        #: The last ``stats`` round trip (what a closed trainer reports).
        self._stats_cache = {"start_method": self._start_method, "workers": []}
        try:
            super().__init__(
                model,
                config,
                noise_seed,
                use_ans,
                num_shards=num_shards,
                scheduler=scheduler,
                executors=_SendThenCollect,
                schedule=schedule,
            )
            self._spawn_workers()
        finally:
            # Names must not outlive startup: once every worker holds a
            # mapping (or startup failed), nothing may attach by name
            # again, and a crashed run must leak no /dev/shm entries.
            for segments in self._segments:
                segments.unlink()
        self._finalizer = weakref.finalize(
            self, _finalize_backstop, self._procs, self._segments
        )

    # -- startup -------------------------------------------------------------
    def _build_engine(self) -> LazyNoiseEngine:
        """Move every table (+ history, + ledger) into shared memory;
        the shard states themselves are built by the workers."""
        for bag in self.model.embeddings:
            segments = TableSegments(bag.num_rows, bag.dim)
            self._segments.append(segments)
            slab = segments.slab_array()
            np.copyto(slab, bag.table.data)
            bag.table.data = slab
        _, histories, ledgers, _ = shard_windows(
            self.model, self.num_shards, with_ledger=True, segments=self._segments
        )
        # Even one worker is reached through the router's fan-out.
        router = ShardRouter(
            [bag.num_rows for bag in self.model.embeddings], self.num_shards
        )
        #: Router-side per-shard timers, folded from the workers' acks.
        self.shard_timers = [self._make_timer() for _ in range(self.num_shards)]
        return LazyNoiseEngine(
            self.mechanism,
            histories,
            self._workers,
            router,
            ledger=ledgers,
        )

    def _worker_init(self, shard: int) -> WorkerInit:
        tables = tuple(
            TableHandle(
                table_index=t,
                num_rows=bag.num_rows,
                dim=bag.dim,
                segments=self._segments[t].names(),
            )
            for t, bag in enumerate(self.model.embeddings)
        )
        return WorkerInit(
            worker_index=shard,
            num_shards=self.num_shards,
            mechanism=self.mechanism,
            tables=tables,
            start_method=self._start_method,
        )

    def _spawn_workers(self) -> None:
        context = multiprocessing.get_context(self._start_method)
        for s in range(self.num_shards):
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=worker_main,
                args=(child_conn, self._worker_init(s)),
                name=f"repro-shard-{s}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            handle = _WorkerHandle(self, s, process, parent_conn)
            self._workers.append(handle)
            self._procs.append(process)
        for handle in self._workers:
            reply = self._recv(handle, timeout=self.STARTUP_TIMEOUT)
            if reply[0] == REPLY_ERROR:
                self._abort()
                raise ShardWorkerError(
                    f"shard worker {handle.shard} failed during startup: "
                    f"{reply[2]}\n{reply[3]}"
                )
            if reply[0] != REPLY_READY:
                self._abort()
                raise ShardWorkerError(
                    f"shard worker {handle.shard} broke the startup "
                    f"handshake (got {reply[0]!r})"
                )
            handle.pid = int(reply[2])

    # -- messaging -----------------------------------------------------------
    def _require_workers(self) -> None:
        if self._closed:
            raise ShardWorkerError(
                "the process backend is closed (a worker died or close() "
                "ran); build a new trainer to continue training"
            )

    def _send(self, handle: _WorkerHandle, message) -> None:
        try:
            handle.conn.send(message)
        except (BrokenPipeError, OSError):
            self._worker_died(handle)

    def _worker_died(self, handle: _WorkerHandle):
        exitcode = handle.process.exitcode
        self._abort()
        raise ShardWorkerError(
            f"shard worker {handle.shard} (pid {handle.pid}) died mid-step "
            f"(exit code {exitcode}); remaining workers terminated and all "
            "shared-memory segments released"
        )

    def _recv(self, handle: _WorkerHandle, timeout: float):
        deadline = time.monotonic() + timeout
        while True:
            try:
                if handle.conn.poll(0.05):
                    return handle.conn.recv()
            except (EOFError, OSError):
                self._worker_died(handle)
            if not handle.process.is_alive():
                # Drain a final reply the worker managed to flush before
                # exiting (e.g. an error report), then declare death.
                try:
                    if handle.conn.poll(0):
                        return handle.conn.recv()
                except (EOFError, OSError):
                    pass
                self._worker_died(handle)
            if time.monotonic() > deadline:
                pid = handle.pid
                self._abort()
                raise ShardWorkerError(
                    f"shard worker {handle.shard} (pid {pid}) stopped "
                    f"responding (no ack within {timeout:.0f}s); workers "
                    "terminated and all shared-memory segments released"
                )

    def _collect_ok(self, handle: _WorkerHandle, command: str) -> dict:
        reply = self._recv(handle, timeout=self.STEP_TIMEOUT)
        if reply[0] == REPLY_ERROR:
            message, worker_traceback = reply[2], reply[3]
            self._abort()
            raise ShardWorkerError(
                f"shard worker {handle.shard} (pid {handle.pid}) failed: "
                f"{message}\n--- worker traceback ---\n{worker_traceback}"
            )
        if reply[0] != REPLY_OK or reply[1] != command:
            self._abort()
            raise ShardWorkerError(
                f"shard worker {handle.shard} broke protocol: expected an "
                f"{command!r} ack, got {reply[:2]!r}"
            )
        payload = reply[2]
        self._fold_instrumentation(handle, payload)
        return payload

    def _fold_instrumentation(self, handle: _WorkerHandle, payload) -> None:
        """Merge a worker ack's timing deltas and trace spans into the
        router's reporting surfaces, so ``shard_time_summary`` and the
        skew gauges describe the worker processes exactly as they
        describe executor threads."""
        timer = self.shard_timers[handle.shard]
        for stage, seconds in payload.get("timings", {}).items():
            timer.totals[stage] = timer.totals.get(stage, 0.0) + seconds
        for name, value in payload.get("counters", {}).items():
            timer.count(name, value)
        tracer = self.timer.tracer
        if tracer is not None and payload.get("spans"):
            key = f"shard-proc-{handle.shard}"
            track_name = f"shard-proc-{handle.shard} (pid {handle.pid})"
            for name, start, end in payload["spans"]:
                tracer.add_external_complete(
                    key, name, start, end, track_name=track_name
                )

    # -- the step and the flush: the shared stage list, workers guarded --------
    def _step(self, iteration: int, batch, next_batch) -> float:
        self._require_workers()
        if self._planned is not None:
            raise RuntimeError(
                f"iteration {self._planned[0]}'s plan reached the workers "
                "but its step raised before the apply: histories stand "
                "ahead of the slabs, so training cannot continue "
                "(audit_noise_ledger reports the rows that lost noise)"
            )
        # The catch-up depends only on the next batch's rows, so the
        # plan goes out before forward/backward: workers read + advance
        # histories and sample behind the router's nn work.  Nothing
        # races — the router only reads slabs until the apply, workers
        # touch only histories and the keyed noise stream until then.
        std = self.config.noise_std(self._batch_denominator(batch))
        requests = self._next_requests(next_batch, self.timer)
        self._planned = [
            handle.plan_all(requests[s], iteration, std)
            for s, handle in enumerate(self._workers)
        ]
        return super()._step(iteration, batch, next_batch)

    def _staged_noise(self, iteration: int, noise_std: float) -> list:
        planned, self._planned = self._planned, None
        return planned

    def finalize(self, final_iteration: int) -> None:
        """Terminal flush, one worker per shard (same bytes as flat)."""
        if final_iteration:
            self._require_workers()
        super().finalize(final_iteration)

    # -- reporting -----------------------------------------------------------
    def procshard_stats(self) -> dict:
        """Per-worker diagnostics (pid, draws, messages, page faults):
        one ``stats`` round trip per call."""
        if self._closed:
            return self._stats_cache
        for handle in self._workers:
            self._send(handle, (CMD_STATS,))
        workers = []
        for handle in self._workers:
            payload = self._collect_ok(handle, CMD_STATS)
            payload = dict(payload)
            payload["shard"] = handle.shard
            workers.append(payload)
        self._stats_cache = {
            "start_method": self._start_method,
            "workers": workers,
        }
        return self._stats_cache

    def _shard_kernel_stats(self) -> list:
        """Each worker's :meth:`ShardState.stats` part of its reply."""
        return [
            {key: worker[key] for key in _SHARD_STATE_STATS}
            for worker in self.procshard_stats()["workers"]
        ]

    def stats(self) -> dict:
        """:meth:`LazyDPTrainer.stats` plus ``procshard``: the start
        method and each worker's pid, message count, staged plans and
        ``minor_faults`` (page faults while receiving and serving its
        ``plan`` and ``apply`` messages), from the round trip
        ``kernel_stats`` just made (the rest of the reply is the
        ``kernel`` section's)."""
        tree = super().stats()
        tree["procshard"] = {
            "start_method": self._start_method,
            "workers": [
                {key: worker[key] for key in _WORKER_STATS}
                for worker in self._stats_cache["workers"]
            ],
        }
        return tree

    # -- lifecycle -----------------------------------------------------------
    def _release_shared_state(self) -> None:
        """Rematerialize tables/histories/ledgers as private copies and
        close every shared-memory mapping.

        Post-release the trainer cannot train (workers are gone) but
        every read surface — export_private_model, serving snapshots,
        ledger audits, checkpoint save — keeps working on the copies.
        """
        if not self._segments:
            return
        # The rebind runs in its own frame: its loop variables are the
        # last references to the old shared-memory views, and they must
        # die (frame exit + collect) before close() can release buffers.
        self._materialize_private_copies()
        gc.collect()
        segments, self._segments = self._segments, []
        for segment_group in segments:
            segment_group.unlink()  # idempotent; normally done at startup
            segment_group.close()

    def _materialize_private_copies(self) -> None:
        for bag in self.model.embeddings:
            bag.table.data = np.array(bag.table.data, copy=True)
        engine = self.engine
        engine.histories = [
            HistoryTable.attach(history.snapshot()) for history in engine.histories
        ]
        engine.ledgers = [
            VersionVector.attach(vector.snapshot()) for vector in engine.ledgers
        ]

    def _shut_down(self, orderly: bool) -> None:
        """Stop the workers and release shared memory (reentrancy-safe).

        ``orderly`` first asks every worker to exit (``CMD_CLOSE``) and
        gives it five seconds; whatever still runs then goes down the
        teardown ladder.
        """
        if self._closed:
            return
        self._closed = True
        if orderly:
            for handle in self._workers:
                if handle.process.is_alive():
                    try:
                        handle.conn.send((CMD_CLOSE,))
                    except (BrokenPipeError, OSError):
                        pass
            for process in self._procs:
                process.join(timeout=5.0)
        _stop_workers(self._procs, join_timeout=2.0)
        for handle in self._workers:
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._release_shared_state()

    def _abort(self) -> None:
        """Hard teardown after a worker failure."""
        self._shut_down(orderly=False)

    def close(self) -> None:
        """Orderly shutdown: close workers, release shared memory."""
        if self._closed:
            return
        self._shut_down(orderly=True)
        if hasattr(self, "_finalizer"):
            self._finalizer.detach()
