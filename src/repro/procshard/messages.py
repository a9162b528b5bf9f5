"""The process backend's IPC message schema.

Everything crossing the router <-> worker pipes is defined here, so the
wire contract is one module.  Two principles keep the pipe small:

* **State crosses once.**  The :class:`WorkerInit` handshake carries
  the shard count (each worker derives its row range with
  :func:`repro.shard.plan.row_range_bounds`) and the shared-memory
  segment names; after that, parameters, histories and
  ledger segments move through shared memory, never the pipe.
* **The unit of work is (shard, iteration).**  A step is two messages
  per worker whatever the table count: ``plan`` (stages 2-4 of every
  table, :meth:`repro.lazydp.optimizer.ShardState.plan_all`) and
  ``apply`` (stages 5-6 of every table,
  :meth:`~repro.lazydp.optimizer.ShardState.step` over the staged
  noise), answered by one ack.

Router -> worker commands (tuples, first element the command name):

========  =============================================================
command   payload
========  =============================================================
plan      ``(iteration, requests, noise_std)`` — ``requests[t]`` is
          ``(next_global, next_local)``, the rows of table ``t`` the
          *next* batch touches (global ids key the noise draw; local
          ids address the shard's history/ledger windows); the worker
          advances its histories, draws the catch-up and stages it
          under ``iteration``.  No reply.
apply     ``(iteration, grads, learning_rate)`` — ``grads[t]`` is this
          shard's ``(rows, values)`` slice of table ``t``'s clipped
          gradient; merge each with the staged noise, write the slabs,
          advance the ledger segments
flush     ``(final_iteration, learning_rate, noise_std)`` — terminal
          catch-up of every pending row of the shard (the one chunked
          flush loop every placement runs)
stats     ``()`` — report samples drawn, timer counters, message
          count, plans staged
close     ``()`` — drop shared-memory views and exit
========  =============================================================

The step's timeline — ``plan`` is sent at ``train_step`` entry, because
the catch-up depends only on the next batch's row set::

    router                               worker
    ------                               ------
    dedup + route the next batch's rows
    send plan  ----------------------->  history read/advance + sample
    forward, backward, clip, dense       every table; stage the result
    route the gradients
    send apply ----------------------->  merge, write slabs, ledger
    collect ack  <---------------------  ack: timings, counters, spans

Nothing races: until ``apply`` the router only *reads* slabs and the
workers touch only histories and the keyed noise stream, and every
noise value is a pure function of ``(seed, table, global row,
iteration, delay)`` whenever it is drawn.  If the router's half of the
step raises between the two messages the histories stand ahead of the
slabs; the trainer then refuses further steps and the ledger audit
names the rows that lost their noise.

Worker -> router replies:

* ``("ready", worker_index, pid)`` — handshake: segments attached; the
  router unlinks segment names once every worker is ready.
* ``("ok", command, payload)`` — one per ``apply``/``flush``/``stats``.
  The step's single ack (``apply``) covers both of its messages: the
  payload dict carries ``timings``/``counters`` deltas since the last
  ack (folded into the router's per-shard StageTimers) and ``spans``
  (``(name, start, end)`` perf-counter tuples for the worker's trace
  track — the plan's spans lie inside the router's forward/backward);
  ``flush`` adds the ``flushed`` row count.
* ``("error", worker_index, message, traceback)`` — any exception, a
  failed ``plan`` included (its report then precedes the ack the router
  waits for); the router raises
  :class:`repro.procshard.trainer.ShardWorkerError`.
"""

from __future__ import annotations

from dataclasses import dataclass

CMD_PLAN = "plan"
CMD_APPLY = "apply"
CMD_FLUSH = "flush"
CMD_STATS = "stats"
CMD_CLOSE = "close"

REPLY_READY = "ready"
REPLY_OK = "ok"
REPLY_ERROR = "error"


@dataclass(frozen=True)
class TableHandle:
    """Everything a worker needs to reconstruct one table's state."""

    table_index: int
    num_rows: int
    dim: int
    segments: tuple  # (slab, history, ledger) shared-memory names


@dataclass(frozen=True)
class WorkerInit:
    """The pickled-once startup handshake for one shard worker."""

    worker_index: int
    num_shards: int
    #: The trainer's sample-stage mechanism (repro.lazydp.ans.ANSEngine:
    #: stream seed, ANS mode, LR schedule); the worker's shard state
    #: forks it, so the schedule must pickle.
    mechanism: object
    tables: tuple  # of TableHandle
    #: The multiprocessing start method the router chose (diagnostics;
    #: surfaced by ``procshard_stats``).
    start_method: str = "fork"
