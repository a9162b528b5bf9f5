"""The process backend's IPC message schema.

Everything crossing the router <-> worker pipes is defined here, so the
wire contract is one module.  Two principles keep the pipe small:

* **State crosses once.**  The :class:`WorkerInit` handshake carries
  the pickled-once :class:`repro.shard.plan.PartitionPlan` and the
  shared-memory segment names; after that, parameters, histories and
  ledger segments move through shared memory, never the pipe.
* **Commands are shard-state methods.**  Per (iteration, table) the
  router sends a ``plan`` command (stages 2-4: history read/advance +
  noise draw, :meth:`repro.lazydp.optimizer.ShardState.plan_sample`)
  then an ``apply`` command (stages 5-6: gradient merge + slab write +
  ledger advance, :meth:`~repro.lazydp.optimizer.ShardState.apply`).
  ``flush`` is the terminal catch-up (``flush_all``), ``stats`` a
  diagnostics round trip, ``close`` the shutdown request.

Router -> worker commands (tuples, first element the command name):

========  =============================================================
command   payload
========  =============================================================
plan      ``(iteration, table_index, next_global, next_local,
          noise_std)`` — stage the catch-up for rows the *next* batch
          touches (global ids key the noise draw; local ids address the
          shard's history/ledger windows)
apply     ``(iteration, table_index, grad_global, grad_values,
          learning_rate)`` — merge the staged noise with this gradient
          slice, write the slab, advance the ledger segment
flush     ``(final_iteration, learning_rate, noise_std)`` — terminal
          catch-up of every pending row of the shard (the one chunked
          flush loop every placement runs)
stats     ``()`` — report samples drawn, arena stats, message count
close     ``()`` — drop shared-memory views and exit
========  =============================================================

Worker -> router replies:

* ``("ready", worker_index, pid)`` — handshake: segments attached; the
  router unlinks segment names once every worker is ready.
* ``("ok", command, payload)`` — one per ``apply``/``flush``/``stats``;
  the payload dict carries ``timings``/``counters`` deltas (folded into
  the router's per-shard StageTimers), ``spans`` (``(name, start,
  end)`` perf-counter tuples for the worker's trace track), and
  command-specific fields (``flushed`` row count, stats).
* ``("error", worker_index, message, traceback)`` — any exception; the
  router raises :class:`repro.procshard.trainer.ShardWorkerError`.

``plan`` sends no reply of its own — its failure (or success timing)
travels with the paired ``apply`` ack, keeping one round trip per
(iteration, table) per shard.
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
    name: str
    param_id: int
    num_rows: int
    dim: int
    segments: tuple  # (slab, history, ledger) shared-memory names
    shard_sizes: tuple


@dataclass(frozen=True)
class WorkerInit:
    """The pickled-once startup handshake for one shard worker."""

    worker_index: int
    plan: object  # repro.shard.plan.PartitionPlan
    noise_seed: int
    use_ans: bool
    flush_chunk_rows: int
    tables: tuple  # of TableHandle
    #: The multiprocessing start method the router chose (diagnostics;
    #: surfaced by ``procshard_stats``).
    start_method: str = "fork"
