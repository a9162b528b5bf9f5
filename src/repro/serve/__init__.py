"""Private serving: query-time read-through catch-up of deferred noise.

:class:`PrivateServingEngine` wraps a live (or checkpointed) LazyDP
model and serves *privatized* embeddings without the stop-the-world
flush of :func:`repro.lazydp.export_private_model`: the first lookup
of a row applies that row's pending deferred noise (the identical
keyed draw the flush would make), memoizes it, and every release —
single row, mini-batch, or the full :meth:`PrivateServingEngine.
export` — is incremental from there.  An engine built with an explicit
``noise_std`` serves another privacy level of the same model, over the
same base slabs when ``snapshot=False``, and keeps that std across the
refreshes of a live trainer.

The high-throughput tier around the engine:

* :class:`~repro.serve.locks.RWLock` — the shared/exclusive lock that
  lets any number of lookup threads run concurrently against a live
  attached trainer (writers: refresh, export, quiesce).
* :class:`HotRowCache` — skew-aware frequency-admitted cache of hot
  privatized rows; point lookups that hit it bypass even the read
  lock (generation-validated, bitwise-equal to the memo).
* :func:`run_load` / :func:`generate_traffic` — the closed-loop
  fig13d-skewed load generator behind ``bench_serve_load`` and the
  stress suite.
"""

from .cache import HotRowCache
from .engine import PrivateServingEngine
from .loadgen import LoadReport, generate_traffic, run_load
from .locks import RWLock

__all__ = [
    "HotRowCache",
    "LoadReport",
    "PrivateServingEngine",
    "RWLock",
    "generate_traffic",
    "run_load",
]
