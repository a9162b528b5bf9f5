"""The one table layout every plan shares.

Every plan keeps, per embedding table, the model's own slab, one
:class:`HistoryTable` and (where the plan keeps one) one
:class:`VersionVector`, all in global row order.  A shard owns a
contiguous row range ``[lo, hi)`` of each table
(:class:`repro.shard.plan.TablePartition`), and its
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
from .plan import PartitionPlan
from .router import ShardRouter


def check_partition(model, plan: PartitionPlan) -> None:
    """Raise unless ``plan`` covers exactly ``model``'s tables and rows."""
    if plan.num_tables != len(model.embeddings):
        raise ValueError(
            f"plan covers {plan.num_tables} tables, model has "
            f"{len(model.embeddings)}"
        )
    for t, bag in enumerate(model.embeddings):
        if plan.table(t).num_rows != bag.num_rows:
            raise ValueError(
                f"plan table {t} covers {plan.table(t).num_rows} rows, "
                f"model table has {bag.num_rows}"
            )


def shard_windows(
    model,
    plan: PartitionPlan | None = None,
    with_ledger: bool = False,
    segments=None,
) -> tuple:
    """The layout of ``model`` under ``plan``: ``(windows, histories,
    ledgers, router)``.

    ``windows[s][t]`` is shard ``s``'s :class:`TableWindow` of table
    ``t``; ``histories[t]`` / ``ledgers[t]`` are table ``t``'s one
    HistoryTable / VersionVector (``ledgers`` is empty without a
    ledger).  ``plan=None`` is the one-shard layout: one window per
    table, the whole table, and no router.  ``segments[t]`` (the process
    backend's shared-memory handles) supplies the history and ledger
    storage instead of private arrays.
    """
    if plan is not None:
        check_partition(model, plan)
    windows: list = [[] for _ in range(1 if plan is None else plan.num_shards)]
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
        for s, shard in enumerate(windows):
            lo, hi = (0, bag.num_rows) if plan is None else plan.table(t).shard_range(s)
            shard.append(TableWindow(bag.table.data, lo, hi, history, ledger))
    return windows, histories, ledgers, None if plan is None else ShardRouter(plan)
