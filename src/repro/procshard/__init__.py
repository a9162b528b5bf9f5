"""Process-backed shard execution: one worker process per shard.

The thread-pool executor (``repro.shard.executor``) fans the per-shard
model update across threads, but every slab write still serializes on
the GIL — the memory-bandwidth-bound update the paper scales never sees
truly parallel writes.  This package is the plan's ``backend="process"``
(one of the three backends in :mod:`repro.session.plan`): each
shard's worker is a long-lived **process** owning its row range of
every table's slab, history and ledger, which live in
``multiprocessing.shared_memory`` in global row order, so slab writes
proceed GIL-free while the router reads the same bytes zero-copy.

The cross-process contract is deterministic state plus a tiny command
pipe:

* the shard count crosses **once**, at worker startup; every worker
  derives its row range of each table from it
  (:func:`repro.shard.plan.row_range_bounds`), so row ownership never
  changes mid-run;
* per step the router sends each worker one ``plan`` message — before
  forward/backward, so catch-up sampling runs behind the router's nn
  work — and one ``apply`` message, which the worker maps onto its
  :class:`repro.lazydp.optimizer.ShardState`'s ``plan_all`` / ``step``
  — the same methods every in-process engine runs, so the kernel calls
  are bitwise the serial trainer's;
* every worker advances its range of each table's
  :class:`repro.lazydp.ledger.VersionVector` in shared memory, and the
  router's ``audit_noise_ledger`` proves exactly-once noise application
  across the process boundary.

Worker death mid-step surfaces as a named :class:`ShardWorkerError` in
``train_step``, after the router has terminated the remaining workers
and freed every shared-memory segment (segments are unlinked at
startup, once all workers are attached, so no names can leak even on a
hard crash).
"""

from .trainer import ProcessShardedLazyDPTrainer, ShardWorkerError

__all__ = ["ProcessShardedLazyDPTrainer", "ShardWorkerError"]
