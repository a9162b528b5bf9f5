"""Deferred-apply mechanisms: the apply worker and the staleness policy.

A :class:`repro.lazydp.scheduler.Scheduler` with the plan axis
``async=strict|bounded[:k]`` hands each iteration's apply stage to a
background thread so up to ``inflight`` iterations are outstanding:

* :mod:`policy <repro.async_.policy>` — :class:`StalenessPolicy`
  (``strict`` = bitwise-serial reads, ``bounded:k`` = slab reads may
  trail up to ``k`` outstanding applies).
* :mod:`apply <repro.async_.apply>` — :class:`ApplyWorker`, the
  bounded-depth FIFO apply thread whose completion watermark the
  policy waits on.

The per-row :class:`VersionVector <repro.lazydp.ledger.VersionVector>`
ledger, advanced inside every apply, proves deferred noise is applied
exactly once under any interleaving; the ``plan_sweep`` case of
``benchmarks/run.py`` measures throughput against in-flight depth.  The same exactly-once ledger powers query-time
read-through catch-up in :mod:`repro.serve`.
"""

from .apply import ApplyWorker
from .policy import STALENESS_MODES, StalenessPolicy

__all__ = ["ApplyWorker", "STALENESS_MODES", "StalenessPolicy"]
