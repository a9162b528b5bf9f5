"""Pluggable executors for per-shard model-update work.

Every iteration of the sharded lazy update produces one independent task
per shard — disjoint parameter slabs, disjoint HistoryTables, disjoint
noise key spaces — so tasks can run in any order or concurrently without
synchronisation.  The executor is *how shard tasks run*, resolved from
the plan's ``backend`` key (:mod:`repro.session.plan`):

* ``SerialExecutor`` — runs tasks in shard order on the calling thread.
  Zero overhead; the reference schedule for equivalence testing.
* ``ThreadPoolShardExecutor`` — fans tasks out over a persistent
  ``concurrent.futures`` pool.  Numpy releases the GIL inside its
  kernels, so Gaussian sampling and the sparse writes genuinely overlap.

(The one-shard case uses neither: its single task runs in place.  The
process backend supplies its own message-sending executor.)

Determinism note: results are *bitwise independent of the schedule*
because shards never share state — that is a property of the task
decomposition, not of the executor, and the equivalence tests pin it for
both backends.

Executors are also safe to drive from threads other than the trainer's:
a prefetching scheduler (:mod:`repro.lazydp.scheduler`) gives its
noise-prefetch worker a *separate* executor instance of the same
backend, so prefetch fan-out (plan + sample per shard) never queues
behind the apply tasks, and neither instance needs locks because the
task sets touch disjoint state (histories and ANS counters vs parameter
slabs).
"""

from __future__ import annotations

import concurrent.futures


class ShardExecutor:
    """Runs a list of zero-argument shard tasks; returns their results."""

    name = "base"

    def run(self, tasks: list) -> list:
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release worker resources (no-op for serial)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.shutdown()
        return False


class SerialExecutor(ShardExecutor):
    """Shard tasks one after another on the calling thread."""

    name = "serial"

    def run(self, tasks: list) -> list:
        return [task() for task in tasks]


class ThreadPoolShardExecutor(ShardExecutor):
    """Shard tasks on a persistent thread pool.

    The pool is created once and reused across iterations — per-iteration
    pool churn would dwarf the per-shard work at test scale.  Every task
    runs to the end even when one fails; the lowest-index failure is
    raised after all have finished (``lanes.fan_out``'s contract), so
    no shard is still writing its slab when the caller sees the error.
    """

    name = "threads"

    def __init__(self, max_workers: int):
        if max_workers < 1:
            raise ValueError("max_workers must be positive")
        self.max_workers = int(max_workers)
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.max_workers,
            thread_name_prefix="shard",
        )

    def run(self, tasks: list) -> list:
        futures = [self._pool.submit(task) for task in tasks]
        concurrent.futures.wait(futures)
        return [future.result() for future in futures]

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)
