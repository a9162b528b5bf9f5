"""The long-lived shard worker process.

One worker owns one shard: its row range of every table's slab, history
and ledger, all attached from the router's shared memory at startup
(:class:`repro.procshard.messages.WorkerInit`) and wrapped in the same
:class:`repro.lazydp.optimizer.ShardState` the in-process engines run.
The command loop only maps messages onto its methods — ``plan`` ->
``plan_all``, ``apply`` -> ``step``, ``flush`` -> ``flush_all`` — so
the kernel-call sequence exists once, and the
process backend is bitwise identical to the serial trainer for the same
reason every other placement is: noise is a pure function of ``(seed,
table, global row, iteration)`` and each row's arithmetic happens
exactly once, in one process, in the flat trainer's order.

Every ``apply`` and ``flush`` also advances the shard's window of the
table's :class:`repro.lazydp.ledger.VersionVector` (inside
``ShardState``, after the write), so the router can prove exactly-once
noise application across the process boundary after the terminal flush.

Instrumentation rides on the acks: the shard state times its stages on
a :class:`repro.train.common.StageTimer` (same stage names as the
in-process shard tasks) and the worker ships per-ack *deltas* plus raw
``perf_counter`` span tuples — a step's one ack covers its ``plan`` and
its ``apply``; the router folds the deltas into its per-shard timers
and replays the spans onto a per-worker trace track.
"""

from __future__ import annotations

import gc
import os
import traceback

from ..kernels.arena import minor_faults
from ..lazydp.history import HistoryTable
from ..lazydp.ledger import VersionVector
from ..lazydp.optimizer import ShardState, TableWindow
from ..shard.plan import row_range_bounds
from ..train.common import StageTimer
from .messages import (
    CMD_APPLY,
    CMD_CLOSE,
    CMD_FLUSH,
    CMD_PLAN,
    CMD_STATS,
    REPLY_ERROR,
    REPLY_OK,
    REPLY_READY,
    WorkerInit,
)
from .shm import AttachedSegments


class _SpanRecorder:
    """StageTimer tracer sink collecting ``(name, start, end)`` tuples.

    ``time.perf_counter()`` is the system-wide CLOCK_MONOTONIC on
    Linux, so these tuples are directly comparable with the router
    tracer's epoch — the router just replays them onto this worker's
    external track.
    """

    __slots__ = ("spans",)

    def __init__(self):
        self.spans: list = []

    def add_complete(self, name, start, end, args=None) -> None:
        self.spans.append((name, float(start), float(end)))

    def drain(self) -> list:
        spans, self.spans = self.spans, []
        return spans


def _attach_state(init: WorkerInit, recorder, attached: list) -> ShardState:
    """This worker's shard state, reconstructed over shared memory.

    A function so the views it builds live on only inside the returned
    state; the segment handles are appended to ``attached`` for the
    shutdown path to close once the state is gone.
    """
    windows = []
    for handle in init.tables:
        segments = AttachedSegments(handle.segments, handle.num_rows, handle.dim)
        attached.append(segments)
        bounds = row_range_bounds(handle.num_rows, init.num_shards)
        lo, hi = int(bounds[init.worker_index]), int(bounds[init.worker_index + 1])
        windows.append(
            TableWindow(
                segments.slab_array(),
                lo,
                hi,
                HistoryTable.attach(segments.history_array()),
                VersionVector.attach(segments.ledger_array()),
            )
        )
    return ShardState(windows, init.mechanism, timer=StageTimer(tracer=recorder))


def _drain_instrumentation(timer, recorder, shipped_totals, shipped_counters):
    """Per-ack deltas of the worker's stage seconds / counters + spans."""
    timings = {}
    for stage, seconds in timer.totals.items():
        delta = seconds - shipped_totals.get(stage, 0.0)
        if delta:
            timings[stage] = delta
        shipped_totals[stage] = seconds
    counters = {}
    for name, value in timer.counters.items():
        delta = value - shipped_counters.get(name, 0)
        if delta:
            counters[name] = delta
        shipped_counters[name] = value
    return {
        "timings": timings,
        "counters": counters,
        "spans": recorder.drain(),
    }


def _serve(conn, shard: int, state: ShardState, recorder: _SpanRecorder) -> None:
    """The command loop.  A function (not inline in ``worker_main``) so
    every slab/history view it touches dies on return instead of
    lingering as a frame local past shutdown — a stale view would keep
    the segment buffer exported."""
    timer = state.timer
    shipped_totals: dict = {}
    shipped_counters: dict = {}
    #: iteration -> every table's Catchup; written by ``plan``, consumed
    #: by the step's ``apply``.
    staged: dict = {}
    messages = 0
    #: Minor page faults while receiving and serving step messages
    #: (``plan`` and ``apply``): the worker's half of the trainer's
    #: ``minor_faults`` counter.
    step_faults = 0
    while True:
        faults_start = minor_faults()
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return  # router vanished; nothing to report to
        messages += 1
        command = message[0]
        try:
            if command == CMD_PLAN:
                _, iteration, requests, noise_std = message
                staged[int(iteration)] = state.plan_all(requests, iteration, noise_std)
                step_faults += minor_faults() - faults_start
                # No reply: plan outcomes travel with the step's apply
                # ack (or surface as an error reply above it).
            elif command == CMD_APPLY:
                _, iteration, grads, lr = message
                noise = staged.pop(int(iteration))
                state.step(None, noise, grads, lr, iteration, None)
                payload = _drain_instrumentation(
                    timer, recorder, shipped_totals, shipped_counters
                )
                conn.send((REPLY_OK, CMD_APPLY, payload))
                step_faults += minor_faults() - faults_start
            elif command == CMD_FLUSH:
                _, final_iteration, lr, std = message
                flushed = state.flush_all(final_iteration, lr, std)
                payload = _drain_instrumentation(
                    timer, recorder, shipped_totals, shipped_counters
                )
                payload["flushed"] = flushed
                conn.send((REPLY_OK, CMD_FLUSH, payload))
            elif command == CMD_STATS:
                stats = state.stats()
                stats.update(
                    pid=os.getpid(), messages=messages, staged=len(staged),
                    minor_faults=step_faults,
                )
                conn.send((REPLY_OK, CMD_STATS, stats))
            elif command == CMD_CLOSE:
                return
            else:
                raise ValueError(f"unknown procshard command: {command!r}")
        except Exception as exc:
            try:
                conn.send(
                    (
                        REPLY_ERROR,
                        shard,
                        f"{type(exc).__name__}: {exc}",
                        traceback.format_exc(),
                    )
                )
            except (BrokenPipeError, OSError):
                return


def worker_main(conn, init: WorkerInit) -> None:
    """Entry point of one shard worker process (module-level: picklable
    under the spawn start method)."""
    shard = init.worker_index
    attached: list = []
    recorder = _SpanRecorder()
    try:
        state = _attach_state(init, recorder, attached)
    except Exception as exc:
        conn.send(
            (
                REPLY_ERROR,
                shard,
                f"worker {shard} failed to attach shared state: "
                f"{type(exc).__name__}: {exc}",
                traceback.format_exc(),
            )
        )
        conn.close()
        return

    conn.send((REPLY_READY, shard, os.getpid()))
    _serve(conn, shard, state, recorder)

    # Drop every ndarray view, then the segment mappings.
    del state
    gc.collect()
    for segments in attached:
        segments.close()
    try:
        conn.close()
    except OSError:  # pragma: no cover - already closed
        pass
