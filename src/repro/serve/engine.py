"""The private serving engine: query-time read-through noise catch-up.

Between iterations a LazyDP model is *behind* on noise by design, so
serving an embedding straight out of the live table would leak which
rows were recently accessed (paper Section 3's threat model).  The
existing release path — :func:`repro.lazydp.export_private_model` —
fixes that with a stop-the-world flush: every pending row of every
table is caught up before anything is served.

:class:`PrivateServingEngine` makes the release *incremental* by
exploiting the same deferred-noise ledger one more time: a lookup of
row ``r`` first applies ``r``'s pending deferred noise (the exact
catch-up draw the flush would have made — noise bits are keyed by
``(seed, table, row, iteration)``, so when they are drawn cannot
change them), memoizes the privatized embedding, and serves it.  Rows
nobody queries are never caught up; rows queried twice are caught up
once.  :meth:`export` finishes the job for whatever was not queried
and returns, row for row, the same arrays ``export_private_model``
would have produced — the equivalence ``tests/test_serve.py`` pins.
Lookups, :meth:`export`, ``export_private_model`` and the trainer's
terminal flush all run one release walk
(:func:`repro.lazydp.optimizer.catch_up_rows`); they differ only in
where it writes — here, the memo.

The memo is one dense buffer per touched table and it is *persistent*:
a row of it is meaningful only while the row's ``_caught_up`` flag is
set, so a refresh clears flags instead of dropping buffers and the next
generation overwrites them in place.  :meth:`export` returns the memo
buffers themselves, read-only — the caller owns them from then on (copy
one to write to it) and the engine's next refresh starts fresh buffers
rather than recycling a release somebody holds.

The engine snapshots the HistoryTables (cheap: 4 bytes/row) at
construction, so the *decision* which noise is pending is frozen at
``iteration`` even if the snapshot outlives the training run.  Table
parameters are referenced in place by default (zero-copy — correct for
a finished or paused trainer and for checkpoints); pass
``snapshot=True`` to copy them when training resumes concurrently.

A frozen snapshot is the right behaviour for checkpoints, but serving a
*live* trainer used to go silently stale: once training resumed, the
memo kept answering from the old iteration.  :meth:`attach` fixes that
— an attached engine watches the trainer's ``last_iteration`` marker
and, at the first operation after training resumed, re-snapshots the
histories, re-copies the dense parameters and invalidates the
read-through memo, so served rows again agree row-for-row with
``export_private_model`` at the trainer's current iteration.
:meth:`detach` freezes the engine at its current state.
``TrainSession.serve`` (:mod:`repro.session`) hands out attached
engines and detaches them on session close.

Concurrency (the serving lock hierarchy, outermost first):

1. An :class:`~repro.serve.locks.RWLock` guards the snapshot
   wholesale.  Lookups are *readers* — any number run concurrently.
   Refresh, the consistent :meth:`export`, :meth:`attach` /
   :meth:`detach`, and the :meth:`quiesce` window a live trainer
   steps inside are *writers* — exclusive, writer-preferred so a
   stream of lookups cannot starve freshness.
2. Inside a read section, one ``threading.Lock`` per table stripes
   catch-up writes: first-touch rows of different tables privatize in
   parallel, and memo *hits* never take a stripe at all — once a
   row's ``_caught_up`` flag is set its memo entry is immutable until
   the next refresh (which excludes all readers), so the hit path is
   a lock-free gather under the shared read lock.  A refresh frees no
   memory a reader could be gathering from: it runs under the write
   lock, keeps the memo buffers and only clears their flags, and every
   value that leaves a read section is a copy made inside it.
3. A small stats lock makes the serving counters exact under
   concurrent readers.  :meth:`stats` is their one place; a hot-row
   cache keeps its own counters, which :meth:`stats` reports under
   ``cache``.

Each table owns its own fork of the sample-stage mechanism
(:class:`repro.lazydp.ans.ANSEngine`), so concurrent catch-ups never
share a draw counter.

An optional :class:`~repro.serve.cache.HotRowCache` fronts the whole
scheme for point lookups: probes validate against the engine's
*generation* (bumped on every refresh) with a seqlock-style re-check,
so a cache hit bypasses even the read lock yet can never serve a row
from a superseded snapshot.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

# ``apply_sparse_update`` is a re-export only: ``benchmarks/e2e/tracing.py``
# patches it on this module by path; the release walk calls the kernel
# through ``repro.lazydp.optimizer``'s global.
from ..kernels import apply_sparse_update  # noqa: F401
from ..lazydp.ledger import VersionVector
from ..lazydp.optimizer import catch_up_rows
from ..obs import NULL_OBS
from .locks import RWLock


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D request: one sort, one adjacent compare."""
    ordered = np.sort(rows)
    keep = np.empty(ordered.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


class PrivateServingEngine:
    """Serve privatized embeddings with read-through noise catch-up."""

    def __init__(
        self,
        parameters: dict,
        embedding_names: list,
        history_snapshots: list,
        mechanism,
        iteration: int,
        learning_rate: float,
        noise_std: float,
        snapshot: bool = False,
        cache=None,
    ):
        """Wrap raw model state for serving.

        Parameters
        ----------
        parameters:
            ``name -> array`` of every model parameter (live references
            or copies; see ``snapshot``).
        embedding_names:
            Parameter names of the embedding tables, in table-index
            order (the order noise keying uses).
        history_snapshots:
            One int32 last-noise-updated array per table, as returned
            by ``HistoryTable.snapshot()``; copied internally.
        mechanism:
            The sample-stage mechanism to catch rows up with (an
            :class:`repro.lazydp.ans.ANSEngine`: noise stream, ANS mode,
            LR schedule); each table stripe samples through its own
            ``fork()``.
        iteration:
            The iteration the served model stands at; pending noise is
            everything between a row's history entry and here.
        learning_rate:
            The rate *of that iteration* (the mechanism returns deferred
            noise in its units).
        cache:
            Optional :class:`~repro.serve.cache.HotRowCache` fronting
            point lookups (see :meth:`enable_cache`).
        """
        if iteration < 0:
            raise ValueError("iteration must be non-negative")
        if len(embedding_names) != len(history_snapshots):
            raise ValueError(
                "need exactly one history snapshot per embedding table"
            )
        self.learning_rate = float(learning_rate)
        self.noise_std = float(noise_std)
        #: Whether ``noise_std`` was chosen by the caller (a release at
        #: another epsilon) rather than read off the trainer; a refresh
        #: then keeps it instead of following the training std.
        self._noise_std_pinned = False
        self.embedding_names = list(embedding_names)
        self._dense = {
            name: np.array(data, copy=True)
            for name, data in parameters.items()
            if name not in self.embedding_names
        }
        iteration = int(iteration)
        self._tables = []
        #: The frozen "which noise is pending" decision: one persistent
        #: int64 buffer per table, overwritten in place by every refresh.
        self._history = []
        for name, snap in zip(self.embedding_names, history_snapshots):
            data = parameters[name]
            if snapshot:
                data = np.array(data, copy=True)
            snap = np.array(snap, dtype=np.int64)
            if snap.shape[0] != data.shape[0]:
                raise ValueError(
                    f"history snapshot for {name} covers {snap.shape[0]} "
                    f"rows, table has {data.shape[0]}"
                )
            if np.any(snap > iteration):
                raise ValueError(
                    f"history for {name} is ahead of iteration "
                    f"{iteration}; cannot serve the past"
                )
            self._tables.append(data)
            self._history.append(snap)
        #: Snapshot version: ``(generation, iteration)``, replaced as
        #: one atomic tuple assignment at the end of every refresh.
        #: The generation tags hot-row cache entries; the tuple-at-once
        #: update is what makes the lock-free cache probe sound (it
        #: can never observe a new iteration with an old generation).
        self._version = (0, iteration)
        #: The attached trainer's ``engine.flushed_through`` when the
        #: histories were snapshotted: a flush at the same iteration
        #: moves the live tables and histories too.
        self._flushed: int | None = None
        # -- lock hierarchy (see module docstring) --
        self._rw = RWLock()
        self._table_locks = [
            threading.Lock() for _ in self._tables
        ]
        self._stats_lock = threading.Lock()
        #: Per-table catch-up machinery: concurrent first-touch
        #: privatization of different tables must not share the ANS
        #: draw counter (single-threaded state), so every table stripe
        #: owns its own fork.
        self._table_ans = [mechanism.fork() for _ in self._tables]
        #: The served memo, one dense buffer per table, allocated on
        #: first touch (an engine wrapped around a many-table model and
        #: queried on a few tables never pays for the rest) and then
        #: kept across refreshes: a row of it means something only
        #: while its ``_caught_up`` flag is set, so a refresh clears the
        #: flags and the next generation overwrites the buffer in place.
        self._served: list = [None] * len(self._tables)
        self._caught_up = [
            np.zeros(table.shape[0], dtype=bool) for table in self._tables
        ]
        #: Per-table exactly-once audit: every catch-up advances the
        #: row from its history snapshot to the serving iteration; the
        #: VersionVector rejects any overlap or gap, so a concurrency
        #: bug that double-applied or skipped serving noise raises at
        #: the racing lookup instead of silently corrupting the
        #: released bits (``audit_exactly_once`` proves the end state).
        self._ledger = [
            VersionVector(history.shape[0], initial=history)
            for history in self._history
        ]
        #: Whether tables were copied (refreshes must re-copy them too).
        self._snapshot = bool(snapshot)
        #: Trainer this engine follows (see :meth:`attach`); None =
        #: frozen at construction, the default.
        self._attached = None
        #: Optional hot-row cache fronting point lookups.
        self._cache = None
        if cache is not None:
            self.enable_cache(cache)
        #: Rows privatized so far (catch-up draws actually performed).
        self.rows_caught_up = 0
        #: Rows returned across all lookups (includes memo hits).
        self.rows_served = 0
        #: Lookup rows answered straight from the memo (or its cache).
        self.memo_hits = 0
        #: Times the memo was invalidated because training resumed.
        self.refreshes = 0
        #: Table-sized memo buffers allocated so far: one per table
        #: ever touched, plus one per table touched after an export.
        self.memo_allocs = 0
        #: Observability hub (``repro.obs``); the shared null object
        #: until :meth:`instrument` swaps a live one in.
        self.obs = NULL_OBS

    def _reset_memo(self) -> None:
        """Invalidate the memo for a refreshed ``_history``, in place.

        Clears the served flags and rebases each exactly-once ledger on
        the new history; the memo buffers stay (caller holds the write
        lock, so no reader is gathering from them) — except read-only
        ones, which :meth:`export` gave away: their holder owns them,
        so the next touch starts a new buffer instead of recycling.
        """
        self._served = [
            memo if memo is not None and memo.flags.writeable else None
            for memo in self._served
        ]
        for caught, ledger, history in zip(
            self._caught_up, self._ledger, self._history
        ):
            caught.fill(False)
            ledger.load_snapshot(history)

    @property
    def iteration(self) -> int:
        """The iteration the served snapshot stands at."""
        return self._version[1]

    @property
    def generation(self) -> int:
        """Bumped on every refresh; tags hot-row cache entries."""
        return self._version[0]

    def instrument(self, obs) -> None:
        """Mark every refresh on an Observability hub's trace (a
        ``serve_refresh`` instant).  ``TrainSession.serve`` calls this
        with the session's hub; the counters stay in :meth:`stats`."""
        self.obs = obs if obs is not None else NULL_OBS

    def enable_cache(self, cache) -> None:
        """Front point lookups with a hot-row cache.

        The cache serves only rows this engine memoized for the
        current generation, so cached answers are bitwise identical to
        uncached ones; see :mod:`repro.serve.cache`.
        """
        self._cache = cache

    @property
    def cache(self):
        return self._cache

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_trainer(
        cls,
        trainer,
        iteration: int | None = None,
        noise_std: float | None = None,
        snapshot: bool = False,
        cache=None,
    ) -> "PrivateServingEngine":
        """Serve a (quiescent) trainer's model at ``iteration``.

        ``iteration`` defaults to the trainer's flushed-through point if
        it finalized, otherwise it must be given (a mid-training serve).
        ``noise_std`` follows :func:`export_private_model`'s convention:
        the last observed per-iteration std unless overridden; an
        override is kept across the refreshes of an attached engine.
        """
        if iteration is None:
            iteration = trainer.engine.flushed_through
            if iteration is None:
                raise ValueError(
                    "iteration unknown: trainer has not finalized; "
                    "pass the iteration to serve at"
                )
        pinned = noise_std is not None
        if not pinned:
            noise_std = trainer._last_noise_std
        if noise_std is None:
            raise ValueError(
                "noise_std unknown: train at least one step or pass it in"
            )
        parameters = {
            name: param.data
            for name, param in trainer.model.parameters().items()
        }
        engine = cls(
            parameters,
            trainer.model.embedding_param_names,
            [history.snapshot() for history in trainer.engine.histories],
            trainer.mechanism,
            iteration,
            trainer._learning_rate(iteration),
            noise_std,
            snapshot=snapshot,
            cache=cache,
        )
        engine._noise_std_pinned = pinned
        engine._flushed = trainer.engine.flushed_through
        return engine

    @classmethod
    def from_checkpoint(
        cls, path, config, noise_std: float, dp
    ) -> "PrivateServingEngine":
        """Serve an exported training checkpoint without resuming it.

        Rebuilds the geometry from ``config``, loads the checkpoint's
        parameters, histories, seed and ANS mode, and wraps them —
        the checkpoint file stays a *training* artifact (its tables
        are lazy); only the served embeddings are privatized.

        ``dp`` must be the :class:`~repro.train.DPConfig` the run
        trained with: a checkpoint does not store it, and the pending
        noise is released at ``dp.learning_rate``.  The archive of a
        run trained under an LR schedule is refused: it stores no
        schedule, so its pending noise cannot be released at the rates
        the run used.
        """
        from ..lazydp.checkpoint import is_scheduled, load_checkpoint
        from ..nn.dlrm import DLRM
        from ..session import ExecutionPlan, TrainSession

        with np.load(path) as archive:
            if is_scheduled(archive):
                raise ValueError(
                    "checkpoint was saved by a run with an LR schedule, "
                    "which the archive does not store; serve the live "
                    "session instead"
                )
            noise_seed = int(archive["meta/noise_seed"][0])
            use_ans = bool(archive["meta/use_ans"][0])
        trainer = TrainSession.build(
            DLRM(config, seed=0),
            dp,
            ExecutionPlan(ans=use_ans),
            noise_seed=noise_seed,
        ).trainer
        iteration = load_checkpoint(path, trainer)
        return cls.from_trainer(
            trainer, iteration=iteration, noise_std=noise_std
        )

    # -- live-trainer attachment -------------------------------------------
    def attach(self, trainer) -> None:
        """Follow ``trainer``: refresh the memo when it resumes stepping.

        The trainer must be the one this engine was built from (same
        embedding tables).  Train steps must run inside a
        :meth:`quiesce` window (or otherwise exclude serving calls);
        lookups from any number of threads are safe at all times.
        """
        names = getattr(trainer.model, "embedding_param_names", None)
        if names != self.embedding_names:
            raise ValueError(
                "cannot attach: trainer's embedding tables do not match "
                "the engine's"
            )
        with self._rw.write():
            self._attached = trainer
            self._maybe_refresh()

    def detach(self) -> None:
        """Stop following the trainer; freeze at the current snapshot."""
        with self._rw.write():
            self._attached = None

    @contextmanager
    def quiesce(self):
        """Exclusive window for mutating the served model in place.

        A live attached trainer steps inside this context::

            with engine.quiesce():
                trainer.train_step(iteration, batch, next_batch)

        The write lock drains every in-flight lookup and holds new
        ones at the door, so readers never observe a half-applied
        training step; the first lookup afterwards sees the bumped
        ``last_iteration`` and refreshes.
        """
        with self._rw.write():
            yield self

    def _needs_refresh(self) -> bool:
        """Whether the attached trainer stepped past our snapshot, or
        flushed since it.

        Safe to call without any lock: it reads plain ints, and a
        stale answer only delays the refresh to the next lookup."""
        trainer = self._attached
        return trainer is not None and (
            trainer.engine.flushed_through != self._flushed
            or int(trainer.current_iteration()) > self.iteration
        )

    def _maybe_refresh(self) -> None:
        """Re-snapshot from the attached trainer if it stepped past the
        iteration this engine serves at, or flushed — at that iteration
        too — since the last snapshot (caller holds the write lock)."""
        trainer = self._attached
        if trainer is None:
            return
        current = int(trainer.current_iteration())
        flushed = trainer.engine.flushed_through
        if current <= self.iteration and flushed == self._flushed:
            return
        if not self._noise_std_pinned:
            noise_std = trainer._last_noise_std
            if noise_std is None:   # pragma: no cover - attach required a step
                raise ValueError(
                    "cannot refresh: attached trainer has no observed noise std"
                )
            self.noise_std = float(noise_std)
        self.learning_rate = float(trainer._learning_rate(current))
        parameters = {
            name: param.data
            for name, param in trainer.model.parameters().items()
        }
        self._dense = {
            name: np.array(data, copy=True)
            for name, data in parameters.items()
            if name not in self.embedding_names
        }
        self._tables = [
            (
                np.array(parameters[name], copy=True)
                if self._snapshot
                else parameters[name]
            )
            for name in self.embedding_names
        ]
        for buffer, history in zip(self._history, trainer.engine.histories):
            np.copyto(buffer, history.snapshot())
        self._flushed = flushed
        # The memo answered for an older iteration; invalidate it so
        # every row is caught up against the new history snapshot.
        self._reset_memo()
        if self._cache is not None:
            self._cache.invalidate()
        # Publish the new (generation, iteration) last, as one tuple:
        # a lock-free cache probe that still sees the old generation
        # also still sees the old iteration, never a mix.
        self._version = (self._version[0] + 1, current)
        self.refreshes += 1
        tracer = self.obs.tracer
        if tracer.enabled:
            tracer.add_instant("serve_refresh", iteration=current)

    @contextmanager
    def _read_section(self):
        """A shared section over a *fresh* snapshot.

        Acquires the read lock; if the attached trainer has stepped
        past the snapshot, upgrades to the write lock for the refresh
        and re-enters.  The loop settles because only a trainer step
        (excluded by writers holding :meth:`quiesce`) can make the
        snapshot stale again.
        """
        while True:
            self._rw.acquire_read()
            if not self._needs_refresh():
                break
            self._rw.release_read()
            with self._rw.write():
                self._maybe_refresh()
        try:
            yield
        finally:
            self._rw.release_read()

    # -- serving -----------------------------------------------------------
    @property
    def num_tables(self) -> int:
        return len(self._tables)

    def table_rows(self, table_index: int) -> int:
        """Row count of one served table (load generators, sizing)."""
        return int(self._tables[table_index].shape[0])

    def pending_rows(self, table_index: int) -> np.ndarray:
        """Rows of one table still owed noise (not yet served/caught up)."""
        with self._read_section():
            behind = self._history[table_index] < self.iteration
            return np.nonzero(behind & ~self._caught_up[table_index])[0]

    def _served_table(self, table_index: int) -> np.ndarray:
        """The dense served memo for one table (allocated on first use;
        caller holds the table's stripe lock or the write lock).

        Uninitialised on purpose: a memo row is read only behind its
        ``_caught_up`` flag, and every flagged row was written first.
        """
        if self._served[table_index] is None:
            self._served[table_index] = np.empty_like(
                self._tables[table_index]
            )
            with self._stats_lock:
                self.memo_allocs += 1
        return self._served[table_index]

    def _catch_up(self, table_index: int, rows: np.ndarray) -> None:
        """Privatize ``rows`` (sorted, unique, not yet caught up) into
        the memo through the release walk the flush runs.

        Caller holds either this table's stripe lock (inside a read
        section) or the write lock (:meth:`export`); each chunk's memo
        rows are written first and its ``_caught_up`` flags last, so a
        flag-then-gather reader can never see a half-written row.  The
        walk's ledger step is the exactly-once proof: every row advances
        from its history snapshot to the serving iteration, contiguously.
        """
        history = self._history[table_index]
        caught = self._caught_up[table_index]
        iteration = self.iteration

        def landed(chunk):
            caught[chunk] = True

        pending = catch_up_rows(
            self._table_ans[table_index],
            table_index,
            self._tables[table_index],
            rows,
            lambda chunk: iteration - history[chunk],
            iteration,
            self.learning_rate,
            self.noise_std,
            dest=self._served_table(table_index),
            ledger=self._ledger[table_index],
            landed=landed,
        )
        if pending:
            with self._stats_lock:
                self.rows_caught_up += pending

    def _validate_rows(self, table_index: int, rows) -> tuple:
        """``(rows, unique)``: the request as int64 and its sorted unique
        rows, whose ends bound every id to the table."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1:
            raise ValueError("rows must be a 1-D array of row indices")
        unique = _unique_rows(rows)
        num_rows = self._tables[table_index].shape[0]
        if unique.size and (unique[0] < 0 or unique[-1] >= num_rows):
            raise IndexError(
                f"row ids out of range for table {table_index} "
                f"({num_rows} rows)"
            )
        return rows, unique

    def _count_served(self, served: int, hits: int) -> None:
        with self._stats_lock:
            self.rows_served += served
            self.memo_hits += hits

    def _cache_fast_path(self, table_index: int, rows: np.ndarray):
        """Lock-free point-lookup path through the hot-row cache.

        Seqlock-style validation: read the (generation, iteration)
        version, probe entries tagged with that generation, then
        re-check the version.  A concurrent refresh publishes a new
        version tuple as its final step, so surviving the re-check
        proves every returned row belongs to the iteration reported.
        """
        cache = self._cache
        if cache is None or rows.size == 0:
            return None
        if self._needs_refresh():
            return None  # snapshot is stale; take the refresh path
        generation, iteration = self._version
        values = cache.get_rows(table_index, rows, generation)
        if values is None:
            return None
        if self._version[0] != generation or self._needs_refresh():
            return None  # raced a refresh; serve from the slow path
        n = int(rows.size)
        self._count_served(n, n)
        return values, iteration

    def _lookup_in_read(self, table_index: int, rows: np.ndarray,
                        unique: np.ndarray):
        """One table's read-through lookup of ``rows`` (``unique``: their
        sorted unique ids); caller holds a read section.

        Returns ``(values, unique, unique_values)``: the served rows of
        the request and of its unique ids, the hot-row cache's admission
        feed (both None without a cache).
        """
        if rows.size == 0:
            dim = self._tables[table_index].shape[1]
            return np.zeros((0, dim), dtype=np.float64), None, None
        caught = self._caught_up[table_index]
        fresh_count = 0
        if not caught[unique].all():
            with self._table_locks[table_index]:
                # Re-check under the stripe: another reader may have
                # privatized some of these rows while we waited.
                fresh = unique[~caught[unique]]
                if fresh.size:
                    self._catch_up(table_index, fresh)
                    fresh_count = int(fresh.size)
        # Every requested row is now caught up, and caught-up memo rows
        # are immutable until the next refresh (a writer), so this
        # gather needs no stripe lock even while other readers privatize
        # disjoint rows of the same table.  Fancy indexing copies, here
        # inside the read section, so nothing handed out (to the caller
        # or the hot-row cache) aliases the memo the next generation
        # overwrites in place.
        served = self._served[table_index]
        values = served[rows]
        self._count_served(int(rows.size), int(rows.size) - fresh_count)
        cache = self._cache
        if cache is not None:
            # Feed every uniquely served row to the admission filter.
            return values, unique, served[unique]
        return values, None, None

    def _offer_to_cache(self, table_index, unique, unique_values,
                        generation) -> None:
        """Admission feed after a slow-path serve (no engine locks held).

        ``generation`` was read inside the read section, so the values
        belong to it; entries tagged with a superseded generation are
        unreturnable, making a racing late offer harmless.
        """
        cache = self._cache
        if cache is not None and unique is not None:
            cache.offer(table_index, unique, unique_values, generation)

    def lookup(self, table_index: int, rows) -> np.ndarray:
        """Privatized embeddings for ``rows`` of one table.

        Read-through: rows seen for the first time get their pending
        deferred noise applied (and memoized); every later lookup is a
        memo read.  Duplicate and unsorted row ids are fine.
        """
        values, _ = self.lookup_versioned(table_index, rows)
        return values

    def lookup_versioned(self, table_index: int, rows) -> tuple:
        """:meth:`lookup` plus the iteration the rows were served at.

        The pair is atomic: the returned values equal
        ``export_private_model``'s bits for exactly the returned
        iteration, however many refreshes race the call — the
        consistency contract the stress suite hammers.
        """
        rows, unique = self._validate_rows(table_index, rows)
        cached = self._cache_fast_path(table_index, rows)
        if cached is not None:
            return cached
        with self._read_section():
            values, unique, unique_values = self._lookup_in_read(
                table_index, rows, unique
            )
            generation, iteration = self._version
        self._offer_to_cache(table_index, unique, unique_values, generation)
        return values, iteration

    def lookup_batch(self, batch) -> list:
        """Privatized embeddings for every table of one mini-batch,
        e.g. for private inference.

        ``batch`` is either a loader batch (anything with
        ``accessed_rows(table_index)``) or a sequence with one row-id
        array per table.  One read-lock acquisition covers all tables
        — a single shared section and one fused gather per table, not
        a lock-per-table loop — and every table is served at the same
        iteration (also returned by :meth:`lookup_batch_versioned`).
        """
        return self.lookup_batch_versioned(batch)[0]

    def lookup_batch_versioned(self, batch) -> tuple:
        """:meth:`lookup_batch` plus the common serving iteration."""
        if hasattr(batch, "accessed_rows"):
            per_table = [
                batch.accessed_rows(t) for t in range(self.num_tables)
            ]
        else:
            per_table = list(batch)
            if len(per_table) != self.num_tables:
                raise ValueError(
                    f"need one row array per table ({self.num_tables}), "
                    f"got {len(per_table)}"
                )
        per_table = [
            self._validate_rows(t, rows)
            for t, rows in enumerate(per_table)
        ]
        offers = []
        with self._read_section():
            generation, iteration = self._version
            results = []
            for t, (rows, unique) in enumerate(per_table):
                values, unique, unique_values = self._lookup_in_read(
                    t, rows, unique
                )
                results.append(values)
                if unique_values is not None:
                    offers.append((t, unique, unique_values))
        for t, unique, unique_values in offers:
            self._offer_to_cache(t, unique, unique_values, generation)
        return results, iteration

    def export(self) -> dict:
        """Finish the catch-up for all remaining rows and release.

        Returns the same ``name -> array`` mapping (same bits) as
        :func:`repro.lazydp.export_private_model` at this iteration —
        assembled incrementally: rows already served stay where they
        are in the memo, everything else is caught up now, in place.

        The embedding tables come back as the memo buffers themselves,
        read-only and zero-copy: ownership passes to the caller (copy an
        array to mutate it).  The engine keeps serving from them until
        its next refresh, which starts new memo buffers instead of
        recycling these, so a release never changes after it is handed
        out; a second export before that refresh returns the same arrays.

        The whole export runs under one write-lock acquisition, so
        every table is caught up at one consistent iteration even if a
        trainer is stepping concurrently (its :meth:`quiesce` window
        waits); the torn-snapshot regression test pins this.
        """
        with self._rw.write():
            self._maybe_refresh()
            released = {
                name: data.copy() for name, data in self._dense.items()
            }
            for table_index, name in enumerate(self.embedding_names):
                remaining = np.nonzero(~self._caught_up[table_index])[0]
                if remaining.size:
                    self._catch_up(table_index, remaining)
                memo = self._served_table(table_index)
                # Read-only marks the hand-over (see ``_reset_memo``).
                memo.flags.writeable = False
                released[name] = memo
        return released

    def audit_exactly_once(self) -> None:
        """Prove serving noise was applied exactly once per row.

        Valid after :meth:`export` (which catches up every row): each
        table's :class:`VersionVector` must stand exactly at the
        serving iteration — any concurrent-lookup interleaving that
        double-applied or skipped a catch-up either raised during
        :meth:`lookup` or is caught here.  Raises
        :class:`repro.lazydp.ledger.LedgerError` on violation.
        """
        with self._rw.read():
            for ledger in self._ledger:
                ledger.audit_complete(self.iteration)

    def stats(self) -> dict:
        """Serving counters (memo effectiveness, catch-up progress)."""
        with self._read_section():
            total_pending = sum(
                int(np.count_nonzero(
                    (self._history[t] < self.iteration)
                    & ~self._caught_up[t]
                ))
                for t in range(self.num_tables)
            )
            generation, iteration = self._version
        with self._stats_lock:
            stats = {
                "iteration": iteration,
                "generation": generation,
                "rows_served": self.rows_served,
                "rows_caught_up": self.rows_caught_up,
                "memo_hits": self.memo_hits,
                "rows_still_pending": total_pending,
                "attached": self._attached is not None,
                "refreshes": self.refreshes,
                "memo_allocs": self.memo_allocs,
            }
        if self._cache is not None:
            stats["cache"] = self._cache.stats()
        return stats
