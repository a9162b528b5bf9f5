"""Pluggable executors for per-shard model-update work.

Every iteration of the sharded lazy update produces one independent task
per shard — disjoint parameter slabs, disjoint HistoryTables, disjoint
noise key spaces — so tasks can run in any order or concurrently without
synchronisation.  The executor is *how shard tasks run*, resolved from
the plan's ``backend`` key (:mod:`repro.session.plan`):

* ``SerialExecutor`` — runs tasks in shard order on the calling thread;
  each shard's step then spreads its tables over the lanes.  The
  reference schedule for equivalence testing.
* ``ThreadPoolShardExecutor`` — one :func:`repro.kernels.lanes.fan_out`
  item per shard task: the lanes are the only pool, and a shard task
  on a lane walks its tables inline.  Where ``fan_out`` runs inline (a
  one-CPU host, a call made on a lane, a pool busy with another
  caller's fan-out) the tasks run in shard order on the caller.

(The one-shard case uses neither: its single task runs in place.  The
process backend supplies its own message-sending executor.)

Determinism note: results are *bitwise independent of the schedule*
because shards never share state — that is a property of the task
decomposition, not of the executor, and the equivalence tests pin it for
both backends.  No executor holds a resource, so none needs closing,
and one instance serves every thread that drives it: a pipelined plan's
prefetch fan-out that meets the pool busy with applies runs inline on
the prefetch thread instead of queueing behind them.
"""

from __future__ import annotations

from ..kernels.lanes import fan_out


class ShardExecutor:
    """Runs a list of zero-argument shard tasks; returns their results."""

    name = "base"

    def run(self, tasks: list) -> list:
        raise NotImplementedError


class SerialExecutor(ShardExecutor):
    """Shard tasks one after another on the calling thread."""

    name = "serial"

    def run(self, tasks: list) -> list:
        return [task() for task in tasks]


def _call(task):
    return task()


class ThreadPoolShardExecutor(ShardExecutor):
    """Shard tasks as lane items (:func:`repro.kernels.lanes.fan_out`).

    Every task runs to the end even when one fails; the lowest-index
    failure is raised after all have finished, so no shard is still
    writing its slab when the caller sees the error.
    """

    name = "threads"

    def run(self, tasks: list) -> list:
        return fan_out(_call, tasks)
