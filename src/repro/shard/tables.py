"""The one table layout every plan shares.

Every plan keeps, per embedding table, the model's own slab, one
:class:`HistoryTable` and (where the plan keeps one) one
:class:`VersionVector`, all in global row order.  A shard owns a
contiguous row range ``[lo, hi)`` of each table
(:func:`repro.shard.plan.row_range_bounds`), and its
:class:`repro.lazydp.optimizer.TableWindow` is a slice view of those
three arrays with ``row_base = lo``.  Flat is the one-range case of the
same layout; nothing is copied or re-adopted, and release, export,
serving and checkpoint code read the per-table arrays whatever the
plan.

Ownership invariants (what makes lock-free parallel and pipelined
updates legal):

* **Row ownership** — the ranges partition every table, so per-row
  arithmetic happens exactly once, on state only that shard's task
  touches.
* **Noise keying** — noise is always drawn against *global* row ids
  (``local + lo``); local ids exist only to address the windows.  A
  row's noise is therefore identical no matter which shard (or thread,
  or pipeline stage) draws it.
"""

from __future__ import annotations

from ..lazydp.history import HistoryTable
from ..lazydp.ledger import VersionVector
from ..lazydp.optimizer import TableWindow
from .plan import row_range_bounds
from .router import ShardRouter


def shard_windows(
    model,
    num_shards: int = 1,
    with_ledger: bool = False,
    segments=None,
) -> tuple:
    """The layout of ``model`` cut into ``num_shards`` row ranges per
    table: ``(windows, histories, ledgers, router)``.

    ``windows[s][t]`` is shard ``s``'s :class:`TableWindow` of table
    ``t``; ``histories[t]`` / ``ledgers[t]`` are table ``t``'s one
    HistoryTable / VersionVector (``ledgers`` is empty without a
    ledger).  One shard is the flat layout: one window per table, the
    whole table, and no router.  ``segments[t]`` (the process
    backend's shared-memory handles) supplies the history and ledger
    storage instead of private arrays.
    """
    windows: list = [[] for _ in range(num_shards)]
    histories, ledgers = [], []
    for t, bag in enumerate(model.embeddings):
        if segments is None:
            history = HistoryTable(bag.num_rows)
            ledger = VersionVector(bag.num_rows) if with_ledger else None
        else:
            history = HistoryTable.attach(segments[t].history_array())
            ledger = VersionVector.attach(segments[t].ledger_array())
        histories.append(history)
        if ledger is not None:
            ledgers.append(ledger)
        bounds = row_range_bounds(bag.num_rows, num_shards).tolist()
        for s, shard in enumerate(windows):
            shard.append(
                TableWindow(bag.table.data, bounds[s], bounds[s + 1], history, ledger)
            )
    table_rows = [bag.num_rows for bag in model.embeddings]
    router = ShardRouter(table_rows, num_shards) if num_shards > 1 else None
    return windows, histories, ledgers, router
