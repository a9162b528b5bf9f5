"""Deferred-apply mechanism: the apply worker.

A :class:`repro.lazydp.scheduler.Scheduler` with the plan axis
``async=strict`` hands each iteration's apply stage to a background
thread so up to ``inflight`` iterations are outstanding:

* :mod:`apply <repro.async_.apply>` — :class:`ApplyWorker`, the
  bounded-depth FIFO apply thread whose completion watermark the
  scheduler waits on before a step reads the slabs.

The per-row :class:`VersionVector <repro.lazydp.ledger.VersionVector>`
ledger, advanced inside every apply, proves deferred noise is applied
exactly once under any interleaving; the ``plan_sweep`` case of
``benchmarks/run.py`` measures throughput against in-flight depth.  The same exactly-once ledger powers query-time
read-through catch-up in :mod:`repro.serve`.
"""

from .apply import ApplyWorker

__all__ = ["ApplyWorker"]
