"""Noise-prefetch mechanisms: the worker thread and its staging buffer.

The inline LazyDP step pays for every noise catch-up on the critical
path.  A prefetching :class:`repro.lazydp.scheduler.Scheduler` (plan
axis ``pipeline=<depth>``) hides it behind forward/backward propagation
and input gather with the two mechanisms here:

* :mod:`staging <repro.pipeline.staging>` — :class:`StagedNoise` and the
  double-buffered :class:`StagingBuffer` handing precomputed noise from
  the worker to the trainer (iteration-ordered, failure-transparent).
* :mod:`prefetch <repro.pipeline.prefetch>` —
  :class:`NoisePrefetchWorker`, the background thread consuming
  upcoming-batch row sets from the deepened :class:`InputQueue
  <repro.data.loader.InputQueue>` and running the trainer's own
  plan + sample stages ahead of time.

The ``plan_sweep`` case of ``benchmarks/run.py`` measures how much
catch-up time the overlap hides.
"""

from .prefetch import NoisePrefetchWorker
from .staging import StagedNoise, StagingBuffer

__all__ = ["NoisePrefetchWorker", "StagedNoise", "StagingBuffer"]
