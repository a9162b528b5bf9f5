"""The lazy noise update engine (paper Algorithm 1), written once.

Algorithm 1 is one six-stage embedding update — dedup (1), history read
(2), history write (3), catch-up sampling (4), merge (5), sparse write
(6) — plus one terminal flush, and the paper's equivalence claim (the
released model equals eager DP-SGD's) is a property of that one
sequence, not of where it runs.  :class:`ShardState` owns the only
spelling of stages 2-6 and of the flush, over one *shard*: a
contiguous row range of every embedding table, seen through
:class:`TableWindow` slices of the table's one slab, history and
ledger.  The flat engine is its one-range case (the window spans the
whole table, ``row_base = 0``, local ids are global ids); the sharded
engine runs N of them as executor tasks; the process
backend runs one per worker over shared memory
(:mod:`repro.procshard.worker`).  Identical code in all three places.
The flush itself is :func:`catch_up_rows`, the one release walk
``export_private_model`` and the serving engine run too — into a copy
and a memo instead of the slab.

Ownership invariants (what makes lock-free parallel, pipelined and
cross-process updates legal):

* **Row ownership** — every global row belongs to exactly one shard, so
  per-row arithmetic ``table[r] -= lr * (grad_r + noise_r)`` happens
  exactly once, on state only that shard's tasks touch, with the
  operands combined in the flat trainer's order.
* **Noise keying** — noise is always drawn against *global* row ids
  (``local + row_base``); shard-local ids exist only to address the
  history / ledger windows.  Every value is a pure function of
  ``(seed, table, global row, iteration)`` and the row's delay, so
  *which* shard, thread or process draws it — and when — cannot change
  the bits.
* **Ledger after write** — where a shard carries a
  :class:`VersionVector` window it is advanced only after the slab
  write landed, so a failed write leaves the ledger behind and the
  audit reports the lost noise instead of vouching for it.

:class:`LazyNoiseEngine` groups a trainer's shard states with the
global-row read surface release, serving and checkpoint code use.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

import numpy as np

from ..kernels import apply_sparse_update, fused_noisy_update
from ..kernels.lanes import fan_out
from ..train.common import StageTimer
from .ans import ANSEngine
from .ledger import VersionVector

_NO_DELAYS = np.empty(0, dtype=np.int64)

#: Rows per chunk of the release walk (:func:`catch_up_rows`): one
#: noise-kernel block at dim 32 (512 KB), so a chunk's draw, its scaling
#: by the learning rate and its subtraction from the slab all run over
#: cache-resident noise instead of streaming a 16 MB block four times.
FLUSH_CHUNK_ROWS = 2048


def catch_up_rows(
    ans: ANSEngine,
    table: int,
    source: np.ndarray,
    local: np.ndarray,
    delays_of,
    iteration: int,
    lr: float,
    std: float,
    *,
    dest: np.ndarray | None = None,
    row_base: int = 0,
    ledger: VersionVector | None = None,
    landed=None,
    chunk_rows: int = FLUSH_CHUNK_ROWS,
) -> int:
    """The release walk: land every deferred draw ``local`` still owes.

    The one spelling of Section 5.2.1's "before a row becomes visible"
    step, shared by the terminal flush (in place: ``dest`` is ``None``),
    ``export_private_model`` (``dest`` is the released copy) and the
    serving engine (``dest`` is its memo).  ``local`` (sorted, unique)
    is walked in ``chunk_rows`` chunks so no intermediate outgrows one
    noise-kernel block: ``delays_of(chunk)`` -> one keyed draw for the
    rows that owe noise -> ``dest[rows] = source[rows] - lr * noise``
    (a chunk of consecutive rows takes the kernel's slice path) ->
    ``ledger.advance`` -> ``landed(chunk)``, the caller's commit
    (history mark, served flags).  The commit runs only after the
    chunk's rows are written, so a failed write is never vouched for
    and a flag-then-gather reader never sees half a row.

    Rows that owe nothing are copied ``source -> dest`` unchanged.
    ``local`` addresses ``source``, ``delays_of``, ``ledger`` and
    ``landed``; ``local + row_base`` are the global ids that key the
    noise.  Returns the number of rows that received noise.

    A walk of more than one chunk (a flush, the release copy, the memo)
    spreads its chunks over the lanes (:func:`_catch_up_on_lanes`); a
    single chunk (a lookup) walks on the caller.  Where the walk is
    itself a lane item (one shard's flush beside the others'), or runs
    in a worker process, ``fan_out`` walks its chunks inline.
    """
    walk = _catch_up_on_lanes if local.size > chunk_rows else _catch_up_inline
    return walk(
        ans,
        table,
        source,
        local,
        delays_of,
        iteration,
        lr,
        std,
        dest=dest,
        row_base=row_base,
        ledger=ledger,
        landed=landed,
        chunk_rows=chunk_rows,
    )


def _catch_up_inline(
    ans: ANSEngine,
    table: int,
    source: np.ndarray,
    local: np.ndarray,
    delays_of,
    iteration: int,
    lr: float,
    std: float,
    *,
    dest: np.ndarray | None = None,
    row_base: int = 0,
    ledger: VersionVector | None = None,
    landed=None,
    chunk_rows: int = FLUSH_CHUNK_ROWS,
) -> int:
    """:func:`catch_up_rows`' chunks one after another on the caller."""
    dim = source.shape[1]
    caught = 0
    for start in range(0, local.size, chunk_rows):
        chunk = local[start : start + chunk_rows]
        rows = chunk + row_base if row_base else chunk
        delays = delays_of(chunk)
        behind = delays > 0
        owing = int(np.count_nonzero(behind))
        if owing < chunk.size and dest is not None:
            # Nothing deferred: the released bits are the stored bits.
            _copy_rows(source, dest, rows[~behind] if owing else rows, row_base)
        if owing:
            if owing < chunk.size:
                rows, owed = rows[behind], delays[behind]
            else:
                owed = delays
            noise = ans.catchup_noise(table, rows, owed, iteration, dim, std)
            # Same bits as ``dest[rows] = source[rows] - lr * noise``.
            apply_sparse_update(
                source,
                rows,
                noise,
                lr,
                row_base=row_base,
                out=dest,
                values_writable=True,
            )
            caught += owing
        if ledger is not None:
            ledger.advance(chunk, delays, iteration)
        if landed is not None:
            landed(chunk)
    return caught


def _catch_up_on_lanes(
    ans: ANSEngine,
    table: int,
    source: np.ndarray,
    local: np.ndarray,
    delays_of,
    iteration: int,
    lr: float,
    std: float,
    *,
    chunk_rows: int,
    **outputs,
) -> int:
    """:func:`_catch_up_inline` one chunk per item of
    :func:`repro.kernels.lanes.fan_out`, each lane drawing through its
    own fork of ``ans`` (the draw counter and schedule cache are
    single-threaded); the forks' draws fold into ``ans.samples_drawn``.
    Chunks write disjoint rows and every draw is keyed by its
    coordinates, so the bits are the inline walk's.  Every chunk runs —
    its ledger advance and ``landed`` commit right after its own write
    — and the lowest failing chunk's exception is raised once all have
    finished."""
    own = threading.local()
    forks = []

    def chunk(start: int) -> int:
        if not hasattr(own, "ans"):
            own.ans = ans.fork()
            forks.append(own.ans)
        return _catch_up_inline(
            own.ans,
            table,
            source,
            local[start : start + chunk_rows],
            delays_of,
            iteration,
            lr,
            std,
            chunk_rows=chunk_rows,
            **outputs,
        )

    try:
        return sum(fan_out(chunk, range(0, local.size, chunk_rows)))
    finally:
        ans.samples_drawn += sum(fork.samples_drawn for fork in forks)


def _copy_rows(source, dest, rows, row_base) -> None:
    """``dest[rows] = source[rows]`` (sorted unique ``rows``, shifted by
    ``row_base``); a consecutive run is one slice copy."""
    n = rows.size
    start = int(rows[0]) - row_base
    if int(rows[-1]) - row_base - start == n - 1:
        dest[start : start + n] = source[start : start + n]
    else:
        index = rows - row_base if row_base else rows
        dest[index] = source[index]


class Catchup(NamedTuple):
    """One shard's catch-up noise for one (table, iteration).

    Pure data: producing it touched only the shard's HistoryTable
    window (read delays, write the new iteration ids) and the keyed
    noise stream, so ownership transfers wholesale to whoever applies
    it — the same task, the trainer thread behind a staging buffer, or
    the apply worker.  The delays ride along so the apply can advance
    the shard's ledger window.
    """

    rows: np.ndarray  # global row ids (key the noise, address the slab)
    local: np.ndarray  # the same rows, shard-local (history / ledger)
    delays: np.ndarray  # per-row count of deferred noise updates
    values: np.ndarray  # the deferred noise through the iteration


class TableWindow:
    """One shard's window of one embedding table: rows ``[lo, hi)``.

    ``target`` is the table's slice the kernels write through, addressed
    by global row id minus ``row_base`` (``= lo``); ``history`` /
    ``ledger`` are the same rows' windows of the table's one
    :class:`HistoryTable` / :class:`VersionVector`, addressed by local id
    ``row - lo`` — ``None`` for an empty range (``ledger`` also wherever
    the plan keeps none).  All three are zero-copy views, whatever the
    range: the one-shard layout's window is ``table[0:rows]``.
    """

    __slots__ = ("target", "row_base", "history", "ledger", "dim")

    def __init__(self, table: np.ndarray, lo: int, hi: int, history, ledger):
        self.target = table[lo:hi]
        self.row_base = int(lo)
        self.history = history.window(lo, hi)
        self.ledger = None if ledger is None else ledger.window(lo, hi)
        self.dim = int(table.shape[1])


class ShardState:
    """One shard's lazy-noise state and the only spelling of its update.

    Everything here is shard-owned, so concurrent shards share nothing:
    the windows and, per table, its own fork of the trainer's
    :class:`ANSEngine` (draw counter + schedule prefix cache).  The
    per-table fork is what lets :meth:`step` run a state's tables side
    by side on the lanes; where that fan-out runs inline (the state's
    step is itself a lane item, or runs in a worker process) the tables
    walk through the same forks, so the spelling and the counts are the
    same either way.  The ``timer`` accumulates under its own lock, so
    lanes and, under a pipelined plan, the prefetch side may write it at
    once.
    """

    def __init__(
        self,
        windows: list,
        mechanism: ANSEngine,
        timer: StageTimer | None = None,
        flush_chunk_rows: int = FLUSH_CHUNK_ROWS,
    ):
        self.windows = windows
        #: One mechanism fork per table: a table's draws run on one
        #: thread at a time, whichever lane or task runs that table.
        self.ans = [mechanism.fork() for _ in windows]
        self.timer = timer if timer is not None else StageTimer()
        self.flush_chunk_rows = int(flush_chunk_rows)

    # -- stages 2-4: plan + sample ----------------------------------------
    def plan_sample(
        self,
        table: int,
        global_rows: np.ndarray,
        local_rows: np.ndarray,
        iteration: int,
        std: float,
    ) -> Catchup:
        """Catch-up noise for the rows the next iteration will gather.

        Reads the rows' delays, advances the HistoryTable (Algorithm 1,
        lines 13-16) and draws each row's deferred noise through
        ``iteration``.  The history write is the only mutation, so this
        must run exactly once per (table, iteration), in iteration
        order, on whichever thread owns the shard's histories.
        """
        window = self.windows[table]
        if global_rows.size == 0:
            # Final iteration (no lookahead: the terminal flush performs
            # every remaining catch-up) or a shard this batch skips.
            return Catchup(
                global_rows, local_rows, _NO_DELAYS, np.zeros((0, window.dim))
            )
        timer = self.timer
        with timer.time("lazydp_history_read"):
            delays = window.history.delays(local_rows, iteration)
        with timer.time("lazydp_history_update"):
            window.history.mark_updated(local_rows, iteration)
        with timer.time("noise_sampling"):
            # Keyed by *global* row ids: bitwise the draw the one-shard
            # engine makes for the same row at the same iteration.
            values = self.ans[table].catchup_noise(
                table, global_rows, delays, iteration, window.dim, std
            )
        return Catchup(global_rows, local_rows, delays, values)

    # -- stages 5-6: apply ---------------------------------------------------
    def apply(
        self,
        table: int,
        grad_rows: np.ndarray,
        grad_values: np.ndarray,
        noise: Catchup,
        lr: float,
        iteration: int,
    ) -> None:
        """Merge the noise with this shard's slice of the clipped
        gradient and perform the one sparse write — one fused kernel
        call, still attributed to the two stage timers the figures
        expect."""
        window = self.windows[table]
        fused_noisy_update(
            window.target,
            lr,
            grad_rows,
            grad_values,
            noise.rows,
            noise.values,
            row_base=window.row_base,
            timer=self.timer,
        )
        if window.ledger is not None:
            window.ledger.advance(noise.local, noise.delays, iteration)

    # -- the (shard, iteration) unit of work -------------------------------
    def plan_all(self, requests: list, iteration: int, std: float) -> list:
        """:meth:`plan_sample` over every table: ``requests[t]`` is the
        ``(global_rows, local_rows)`` of the next batch's rows of table
        ``t``; returns one :class:`Catchup` per table."""
        return [
            self.plan_sample(table, *request, iteration, std)
            for table, request in enumerate(requests)
        ]

    def step(
        self,
        requests: list | None,
        noise: list | None,
        grads: list,
        lr: float,
        iteration: int,
        std: float | None,
    ) -> None:
        """This shard's stage list for one iteration, table-major: per
        table, plan + sample (unless ``noise`` — a :meth:`plan_all`
        result — was computed ahead), then apply while the drawn values
        are still cache-hot.  ``grads[t]`` is this shard's ``(rows,
        values)`` slice of table ``t``'s clipped gradient.

        A table's stages touch only its own window and fork, so each
        table is one item of :func:`repro.kernels.lanes.fan_out`, which
        walks them inline where the step is itself a lane item or runs
        in a worker process.  Every table runs even when one fails, and
        the lowest failing table's exception is raised once all have
        finished, its ledger window left behind."""

        def table_step(table: int) -> None:
            grad_rows, grad_values = grads[table]
            staged = (
                self.plan_sample(table, *requests[table], iteration, std)
                if noise is None
                else noise[table]
            )
            self.apply(table, grad_rows, grad_values, staged, lr, iteration)

        fan_out(table_step, range(len(grads)))

    # -- the terminal flush --------------------------------------------------
    def flush(self, table: int, final_iteration: int, lr: float, std: float) -> int:
        """Apply this window's still-deferred noise so the released rows
        match eager DP-SGD's; returns the number of rows caught up.

        Streams the pending rows in cache-sized chunks (Section 5.2.1
        requires the flush only before rows become visible).  Each
        pending row receives one catch-up draw and one subtraction —
        the same bits however rows are grouped into shards or chunks;
        a chunk of consecutive rows (every chunk of an all-pending
        window) is written through a slice, not a gather/scatter.  The
        walk is :func:`catch_up_rows`, on the lanes or inline by its
        rule.
        """
        window = self.windows[table]
        history = window.history
        if history is None:
            return 0
        return catch_up_rows(
            self.ans[table],
            table,
            window.target,
            history.pending_rows(final_iteration),
            lambda local: history.delays(local, final_iteration),
            final_iteration,
            lr,
            std,
            row_base=window.row_base,
            ledger=window.ledger,
            landed=lambda local: history.mark_updated(local, final_iteration),
            chunk_rows=self.flush_chunk_rows,
        )

    def flush_all(self, final_iteration: int, lr: float, std: float) -> int:
        """:meth:`flush` over every table, timed on the shard's own
        timer (the per-shard load-balance view of the flush)."""
        with self.timer.time("terminal_flush"):
            return sum(
                self.flush(table, final_iteration, lr, std)
                for table in range(len(self.windows))
            )

    @property
    def samples_drawn(self) -> int:
        return sum(ans.samples_drawn for ans in self.ans)

    def stats(self) -> dict:
        """The shard's draws and timer counters (``numpy_applies``: the
        applies the numpy expressions ran)."""
        return {
            "samples_drawn": int(self.samples_drawn),
            "timer_counters": dict(self.timer.counters),
        }


class LazyNoiseEngine:
    """A trainer's shard states plus the read surface around them.

    ``histories`` (one :class:`HistoryTable` per table, whose slices are
    the shards' windows) and ``ledger`` (one :class:`VersionVector` per
    table, or none) speak global row ids whatever the layout, so
    release, serving, audit and checkpoint code treats every plan
    uniformly; ``ans`` is a facade sampler for those readers
    (``export_private_model`` walks global pending rows outside the
    per-shard hot path), never used by a training step.  ``states``
    are :class:`ShardState` objects, or — on the process backend's
    router — the proxies of the ones its workers own.
    """

    def __init__(
        self,
        mechanism: ANSEngine,
        histories: list,
        states: list,
        router=None,
        ledger=(),
    ):
        self.ans = mechanism.fork()
        self.histories = histories
        self.states = states
        #: ``None`` for one shard: local ids are global ids, nothing to route.
        self.router = router
        #: One VersionVector per table (empty: no ledger kept).
        self.ledgers = list(ledger)
        self.flushed_through: int | None = None

    @property
    def use_ans(self) -> bool:
        return self.ans.enabled

    @property
    def samples_drawn(self) -> int:
        """Scalar Gaussian draws across the facade and every shard."""
        return self.ans.samples_drawn + sum(
            state.samples_drawn for state in self.states
        )

    @property
    def ledger(self) -> tuple:
        """Every table's :class:`VersionVector` (audits)."""
        return tuple(self.ledgers)

    def history_bytes(self) -> int:
        """Total HistoryTable footprint (paper Section 7.2) — the same
        4 bytes per row however the rows are sharded."""
        return int(sum(history.nbytes for history in self.histories))

    # -- routing -------------------------------------------------------------
    def split_rows(self, rows: list, timer) -> list:
        """Per shard, per table ``(global_rows, local_rows)`` of every
        table's unique row set (``rows[t]``)."""
        if self.router is None:
            return [[(table_rows, table_rows) for table_rows in rows]]
        with timer.time("shard_routing"):
            routed = [self.router.scatter(t, r) for t, r in enumerate(rows)]
        return [
            [(r.global_rows[s], r.local[s]) for r in routed]
            for s in range(len(self.states))
        ]

    def split_grads(self, sparse_grads: list, timer) -> list:
        """Per shard, per table ``(rows, values)`` slices of every
        table's sparse gradient."""
        if self.router is None:
            return [[(grad.rows, grad.values) for grad in sparse_grads]]
        with timer.time("shard_routing"):
            routed = [
                self.router.scatter(t, grad.rows)
                for t, grad in enumerate(sparse_grads)
            ]
            return [
                [
                    (r.global_rows[s], grad.values[r.origin[s]])
                    for r, grad in zip(routed, sparse_grads)
                ]
                for s in range(len(self.states))
            ]

    def rebase_ledger(self) -> None:
        """Restart every ledger from its history: a row planned through
        ``i`` at a quiescent point has been applied through ``i``
        (checkpoint resume restores histories only)."""
        for history, vector in zip(self.histories, self.ledgers):
            vector.load_snapshot(history.snapshot())
