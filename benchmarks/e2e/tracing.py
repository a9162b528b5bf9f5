"""Span recording wrapped around each layer's public entry points.

Everything here lives in the benchmark's own files: ``install`` swaps
traced wrappers onto the layers' public classes/functions and
``uninstall`` puts the originals back; no file under ``src/`` knows
about it.  A span is ``(id, name, start, end, parent, step, thread,
count)``; ``step`` is the training iteration that *caused* the work,
carried across thread boundaries (prefetch worker, apply worker, shard
pool) by the boundary wrappers, so a busy span on a worker thread names
the step it belongs to even when it ran during another step's wall.

Whether a span is recorded is decided per causing step
(``Recorder.traced``), not per wall-clock interval: the span counts of
a traced step are therefore exact and repeat across same-seed runs.
A wrapper on a thread whose current step is untraced costs one
thread-local attribute read.

Step roots use their iteration number as span id; every other span id
starts at ``FIRST_SPAN_ID``, so a worker can name its parent root
before the trainer thread has opened it.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from time import perf_counter

FIRST_SPAN_ID = 1_000_000
ROOT_NAMES = ("step",)
ROOT_PREFIX = "phase."

#: Stage names the process backend's workers report with their acks
#: (``repro.procshard.worker``), mapped onto this benchmark's layers.
WORKER_STAGES = {
    "lazydp_history_read": "lazydp.plan",
    "lazydp_history_update": "lazydp.plan",
    "noise_sampling": "lazydp.sample",
    "noisy_grad_generation": "kernels.apply",
    "noisy_grad_update": "kernels.apply",
    "terminal_flush": "lazydp.flush",
}


class Recorder:
    """In-memory span store plus the per-thread tracing context."""

    def __init__(self, traced_iterations=frozenset()):
        self.traced = frozenset(traced_iterations)
        self.spans: list = []
        self._ids = itertools.count(FIRST_SPAN_ID)
        self._tl = threading.local()

    # -- context ------------------------------------------------------------
    def _context(self):
        tl = self._tl
        if not hasattr(tl, "on"):
            tl.on = False
            tl.step = 0
            tl.stack = [None]
            tl.thread = threading.current_thread().name
        return tl

    def new_id(self) -> int:
        return next(self._ids)

    def add(self, name, start, end, parent=None, step=0, thread=None,
            count=0, span_id=None) -> int:
        """Record one finished span; returns its id."""
        if span_id is None:
            span_id = next(self._ids)
        if thread is None:
            thread = self._context().thread
        self.spans.append(
            (span_id, name, start, end, parent, step, thread, count)
        )
        return span_id

    def open_root(self, span_id, step: int, on: bool) -> None:
        """Make ``span_id`` this thread's root: spans recorded from now
        on are its descendants and carry ``step``."""
        tl = self._context()
        tl.on = on
        tl.step = step
        tl.stack = [span_id]

    def close_root(self) -> None:
        tl = self._context()
        tl.on = False
        tl.stack = [None]

    @contextmanager
    def phase(self, name):
        """A root span around a whole phase on this thread (release,
        frozen probe); spans inside it are its descendants, step 0."""
        root = next(self._ids)
        self.open_root(root, 0, True)
        start = perf_counter()
        try:
            yield root
        finally:
            self.close_root()
            self.add(name, start, perf_counter(), span_id=root)

    def run_as(self, step, parent, name, fn, count=0):
        """Run ``fn()`` on this thread as a child of ``parent`` caused
        by ``step`` (the thread-boundary crossing)."""
        tl = self._context()
        saved = (tl.on, tl.step, tl.stack)
        span_id = next(self._ids)
        tl.on, tl.step, tl.stack = True, step, [span_id]
        start = perf_counter()
        try:
            return fn()
        finally:
            end = perf_counter()
            tl.on, tl.step, tl.stack = saved
            self.spans.append(
                (span_id, name, start, end, parent, step, tl.thread, count)
            )

    # -- wrappers -----------------------------------------------------------
    def wrap(self, fn, name, count=None):
        """``fn`` recording a ``name`` span when the calling thread's
        current step is traced.  ``count(args, result)`` optionally
        attaches a work count (rows) to the span."""
        context = self._context
        spans = self.spans
        ids = self._ids

        def traced(*args, **kwargs):
            tl = context()
            if not tl.on:
                return fn(*args, **kwargs)
            stack = tl.stack
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            spans.append((
                span_id, name, start, end, parent, tl.step, tl.thread,
                count(args, result) if count is not None else 0,
            ))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- StageTimer sink (process backend only) -----------------------------
    def add_complete(self, name, start, end, args=None) -> None:
        """``StageTimer.tracer`` protocol.  Only the router's fan-out
        wall is kept: the process backend has no ``ShardExecutor.run``
        to wrap, and the other stages duplicate wrapped entry points."""
        tl = self._context()
        if tl.on and name == "shard_model_update":
            self.add("shard.update", start, end, tl.stack[-1], tl.step)

    def add_external_complete(self, key, name, start, end,
                              track_name=None) -> None:
        """Worker-process spans replayed by the router on ack."""
        tl = self._context()
        if tl.on:
            self.add(
                WORKER_STAGES.get(name, name), start, end, tl.stack[-1],
                tl.step, thread=key,
            )


def _rows_of(index):
    return lambda args, result: int(args[index].shape[0])


def _apply_rows(args, result):
    # fused_noisy_update(table, lr, grad_rows, grad_values, noise_rows, ...)
    return int(args[2].shape[0]) + int(args[4].shape[0])


class _Patches:
    """Every attribute ``install`` replaced, for ``uninstall``."""

    def __init__(self):
        self.undo: list = []
        self.kernel_table = None

    def set(self, owner, attr, value) -> None:
        self.undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)


_ACTIVE: _Patches | None = None


def install(recorder: Recorder) -> None:
    """Wrap the layers' public entry points with ``recorder`` spans."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("tracing is already installed")
    from repro import kernels
    from repro.async_.apply import ApplyWorker
    from repro.data.batch import Batch
    from repro.data.loader import DataLoader
    from repro.lazydp import optimizer as lazydp_optimizer
    from repro.lazydp.ans import ANSEngine
    from repro.lazydp.history import HistoryTable
    from repro.nn.dlrm import DLRM
    from repro.pipeline.prefetch import NoisePrefetchWorker
    from repro.pipeline.staging import StagingBuffer
    from repro.privacy.accountant import RDPAccountant
    from repro.rng import NoiseStream
    from repro.serve import engine as serve_engine
    from repro.shard import trainer as shard_trainer
    from repro.shard.executor import SerialExecutor, ThreadPoolShardExecutor
    from repro.shard.router import ShardRouter
    from repro.train import dpsgd
    from repro.train.optimizers import DenseSGD

    patches = _Patches()
    wrap = recorder.wrap
    size_of_result = lambda args, result: int(result.size)  # noqa: E731
    for owner, attr, name, count in (
        (DataLoader, "batch_for", "data.batch", None),
        (Batch, "accessed_rows", "data.dedup", size_of_result),
        (DLRM, "forward", "nn.forward", None),
        (DLRM, "backward", "nn.backward", None),
        (DLRM, "ghost_norm_sq", "nn.ghost_norm", None),
        (DLRM, "weighted_grads", "nn.weighted_grads", None),
        (dpsgd, "clipped_average_weights", "train.clip", None),
        (NoiseStream, "dense_noise", "train.dense_noise", None),
        (DenseSGD, "update", "train.dense_update", None),
        (RDPAccountant, "step", "privacy.accountant", None),
        (RDPAccountant, "get_epsilon", "privacy.accountant", None),
        (HistoryTable, "delays", "lazydp.plan", None),
        (HistoryTable, "mark_updated", "lazydp.plan", None),
        (ANSEngine, "catchup_noise", "lazydp.sample", _rows_of(2)),
        (NoiseStream, "aggregated_row_noise", "kernels.sample", _rows_of(2)),
        (lazydp_optimizer, "apply_sparse_update", "kernels.apply_sparse",
         _rows_of(1)),
        (shard_trainer, "apply_sparse_update", "kernels.apply_sparse",
         _rows_of(1)),
        (serve_engine, "apply_sparse_update", "kernels.apply_sparse",
         _rows_of(1)),
        (ShardRouter, "scatter", "shard.route", None),
        (ShardRouter, "gather", "shard.route", None),
        (StagingBuffer, "pop", "pipeline.wait", None),
        (ApplyWorker, "wait_for", "async.staleness_wait", None),
    ):
        patches.set(owner, attr, wrap(owner.__dict__[attr], name, count))

    # The three dispatched hot kernels have one swap point by design:
    # re-registering the numpy table reroutes every call site (serial,
    # sharded, pipelined, async, flush, serving) at once.
    kernels.set_kernel_backend("numpy")
    table = patches.kernel_table = kernels.active_kernel_table()
    kernels.register_kernel_table(
        "numpy",
        fused_noisy_update=wrap(
            table.fused_noisy_update, "kernels.apply", _apply_rows
        ),
        batched_catchup_sum=wrap(
            table.batched_catchup_sum, "kernels.sample", _rows_of(2)
        ),
        batched_row_noise_sum=wrap(
            table.batched_row_noise_sum, "kernels.sample", _rows_of(2)
        ),
        description=table.description,
    )
    kernels.set_kernel_backend("numpy")

    # Thread boundaries: carry (step, parent) onto the worker thread.
    for executor in (SerialExecutor, ThreadPoolShardExecutor):
        patches.set(
            executor, "run", _traced_run(recorder, executor.__dict__["run"])
        )
    patches.set(
        ApplyWorker, "submit",
        _traced_submit(recorder, ApplyWorker.__dict__["submit"]),
    )
    patches.set(
        NoisePrefetchWorker, "__init__",
        _traced_prefetch_init(
            recorder, NoisePrefetchWorker.__dict__["__init__"]
        ),
    )
    _ACTIVE = patches


def uninstall() -> None:
    """Restore every entry point ``install`` replaced."""
    global _ACTIVE
    patches, _ACTIVE = _ACTIVE, None
    if patches is None:
        return
    from repro import kernels

    for owner, attr, original in reversed(patches.undo):
        setattr(owner, attr, original)
    table = patches.kernel_table
    kernels.register_kernel_table(
        "numpy",
        fused_noisy_update=table.fused_noisy_update,
        batched_catchup_sum=table.batched_catchup_sum,
        batched_row_noise_sum=table.batched_row_noise_sum,
        description=table.description,
    )
    kernels.set_kernel_backend("numpy")


def _traced_run(recorder, run):
    """``ShardExecutor.run``: a ``shard.update`` span on the caller and
    one ``shard.task`` span per shard wherever the task executes."""

    def traced(self, tasks):
        tl = recorder._context()
        if not tl.on:
            return run(self, tasks)
        step = tl.step
        span_id = recorder.new_id()
        carried = [
            (lambda task=task, shard=shard: recorder.run_as(
                step, span_id, "shard.task", task, count=shard
            ))
            for shard, task in enumerate(tasks)
        ]
        parent = tl.stack[-1]
        tl.stack.append(span_id)
        start = perf_counter()
        try:
            return run(self, carried)
        finally:
            end = perf_counter()
            tl.stack.pop()
            recorder.add(
                "shard.update", start, end, parent, step, span_id=span_id
            )

    return traced


def _traced_submit(recorder, submit):
    """``ApplyWorker.submit``: the trainer's blocked time, and the task
    re-rooted under the submitting step on the apply thread."""

    def traced(self, iteration, task):
        tl = recorder._context()
        if not tl.on:
            return submit(self, iteration, task)
        step = int(iteration)
        carried = lambda: recorder.run_as(  # noqa: E731
            step, step, "async.apply", task
        )
        parent = tl.stack[-1]
        start = perf_counter()
        try:
            return submit(self, iteration, carried)
        finally:
            recorder.add("async.submit", start, perf_counter(), parent, step)

    return traced


def _traced_prefetch_init(recorder, init):
    """``NoisePrefetchWorker(compute, ...)``: ``compute(iteration,
    batch)`` runs on the worker thread ahead of the step that consumes
    it; its span is parented to that step's root."""

    def traced(self, compute, *args, **kwargs):
        def carried(iteration, batch):
            step = int(iteration)
            if step not in recorder.traced:
                return compute(iteration, batch)
            return recorder.run_as(
                step, step, "pipeline.prefetch",
                lambda: compute(iteration, batch),
            )

        init(self, carried, *args, **kwargs)

    return traced


# -- analysis ----------------------------------------------------------------

def is_root(span) -> bool:
    return span[1] in ROOT_NAMES or span[1].startswith(ROOT_PREFIX)


def self_times(spans) -> dict:
    """``span id -> self seconds``: the span minus the part of its
    interval covered by children on the *same thread* (cross-thread
    children run concurrently and take nothing from the parent)."""
    children: dict = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append(span)
    result = {}
    for span in spans:
        span_id, _, start, end, _, _, thread, _ = span
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span_id, ()), key=lambda s: s[2]):
            if child[6] != thread:
                continue
            lo = max(child[2], cursor)
            hi = min(child[3], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span_id] = (end - start) - covered
    return result


def busy_by_name(spans, steps) -> dict:
    """``name -> (seconds, count sum, span count)`` over spans caused by
    one of ``steps``."""
    totals: dict = {}
    for _, name, start, end, _, step, _, count in spans:
        if step in steps:
            seconds, counted, n = totals.get(name, (0.0, 0, 0))
            totals[name] = (seconds + (end - start), counted + count, n + 1)
    return totals


def to_json(spans) -> list:
    return [
        {
            "id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "step": step, "thread": thread, "count": count,
        }
        for span_id, name, start, end, parent, step, thread, count in spans
    ]
