"""One pinned lane per CPU: the pool the release walk, large draws, the
step's per-table loops and its dense half use.

Every Gaussian is a pure function of ``(seed, table, row, iteration)``
(the counter-based property of Salmon et al., "Parallel Random Numbers:
As Easy as 1, 2, 3", SC'11), every chunk of the release walk writes
rows no other chunk touches, and every table of a step — its
gather-pool, its weighted scatter-add, its noisy update, SGD's sparse
subtract — touches only its own slab, history, ledger and scratch.  So
such work, split into independent items, releases the same bits on any
thread in any order.  :func:`fan_out` is where those items go: it runs
``fn(item)`` for every item across the lanes and returns once all of
them are done.

The step's dense half fans out too (:mod:`repro.nn.dlrm`): the forward
and the backward in two row parts, every op in them row-independent,
and on such a cut batch the gradient views one layer per item.  A row
part is bitwise the whole batch's rows only where BLAS computes a row
whatever rows sit beside it, so the cut follows a rule of the batch
size alone — one cut at ``(batch // 2) // 8 * 8`` when both parts hold
512 rows, else one part (:func:`repro.nn.dlrm.row_parts`): 8-aligned
halves of at least 256 rows matched the whole product on every layer
shape measured, while 64- or 128-row tiles and a 1-row tail did not, as
OpenBLAS switches kernels at small M.  The lane count decides only
where the parts run.

The pool is what the host is, not a setting: one daemon thread per CPU
the process may use (:data:`CPUS`, captured at import), pinned, lane
*i* to ``CPUS[i]``.  The lanes are process state, so they start at
import rather than at the first fan-out: started lazily, they would
appear inside whichever fit or run first spreads a draw, and every
thread-leak check that compares the threads alive before and after a
run would count them as that run's.  Unpinned, two lanes that
hand the GIL to each other were measured sharing one CPU for a whole
flush, and a lane started while its creator was pinned to one CPU would
inherit that mask.  The caller only waits; it is not a lane, so whatever
moves the caller between CPUs moves no lane.

A fan-out runs inline, item after item on the caller, where lanes could
not help or would nest: fewer than two items, a one-CPU host, a call
made on a lane, or a pool busy with another caller's fan-out.  Either
way every item runs, and the exception of the lowest-index failing item
is raised once all of them have finished.

Python threads, not OpenMP: the compiled kernels' ctypes calls and
numpy's ufuncs release the GIL, and the noise kernel's scratch is
per-thread.  For the same reason the pool, when it starts, sets numpy's
OpenBLAS to one thread: BLAS threads would fight the lanes for the same
CPUs.  ``backend=process`` forks with the lanes running, so a
fork hook drops the pool in the child, which starts its own at its
first fan-out.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import os
import queue
import threading

# The allocator policy is set at its import: before the lanes start,
# so they take no malloc arena of their own.
from . import arena  # noqa: F401


def _usable_cpus() -> tuple:
    try:
        return tuple(sorted(os.sched_getaffinity(0)))
    except AttributeError:  # no affinity API on this platform
        return tuple(range(os.cpu_count() or 1))


#: The CPUs this process may use, captured once: lane *i* runs on ``CPUS[i]``.
CPUS = _usable_cpus()
#: Thread-name prefix of the lanes (``repro-lane-0``, ...).
NAME = "repro-lane-"

_ON_LANE = threading.local()
_INLINE = False
_POOL = None
_START_LOCK = threading.Lock()
#: Pools started / fan-outs that ran on lanes, in this process.
_STARTS = 0
_FAN_OUTS = 0


class _Job:
    """One fan-out: its items, a shared claim counter and each item's
    outcome.  Whoever runs it — every lane, or the caller inline —
    claims the next unclaimed item until none is left."""

    def __init__(self, fn, items):
        self.fn = fn
        self.items = items
        self.results = [None] * len(items)
        self.errors: dict = {}
        self.finished = queue.SimpleQueue()
        # ``next`` on a count is one C call, so no two runners claim the
        # same index; each then writes only its own slot.
        self._claims = itertools.count()

    def run(self) -> None:
        count = len(self.items)
        while (index := next(self._claims)) < count:
            try:
                self.results[index] = self.fn(self.items[index])
            except BaseException as error:  # re-raised on the caller
                self.errors[index] = error

    def outcome(self) -> list:
        if self.errors:
            raise self.errors[min(self.errors)]
        return self.results


def _serve(lane: int, cpu: int, inbox: queue.SimpleQueue) -> None:
    _ON_LANE.lane = lane
    try:
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        pass  # no affinity API, or the CPU is gone: run unpinned
    while True:
        job = inbox.get()
        job.run()
        job.finished.put(lane)
        # Idle, a lane holds nothing of its last caller's: the job's
        # closure can own a whole table (a draw's output, a walk's copy).
        del job


def _one_blas_thread() -> None:
    """Run numpy's OpenBLAS (found among the libraries this process
    maps) on one thread per caller: the lanes are the process's
    parallelism.  Left threaded, two lanes' products at once ran the
    dense half 2-3x slower than the lanes alone, and the
    ``D.T @ A`` reduction's bits followed BLAS's thread count, so the
    host's CPU count.  Another BLAS, or no ``/proc``, is left as it is."""
    import numpy  # noqa: F401  (loads the BLAS library to look for)

    try:
        with open("/proc/self/maps") as maps:
            paths = {
                line.split()[-1] for line in maps
                if "openblas" in line.rsplit("/", 1)[-1].lower()
            }
    except OSError:
        return
    for path in paths:
        library = ctypes.CDLL(path)
        for name in (
            "scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
            "openblas_set_num_threads64_", "openblas_set_num_threads",
        ):
            setter = getattr(library, name, None)
            if setter is not None:
                setter(1)
                break


class _Pool:
    def __init__(self, cpus: tuple):
        _one_blas_thread()
        self.busy = threading.Lock()
        self.inboxes = [queue.SimpleQueue() for _ in cpus]
        for lane, (cpu, inbox) in enumerate(zip(cpus, self.inboxes)):
            threading.Thread(
                target=_serve,
                args=(lane, cpu, inbox),
                name=f"{NAME}{lane}",
                daemon=True,
            ).start()


def _pool():
    """The running pool — started at import, or in a forked child at its
    first fan-out — or ``None`` on a one-CPU host."""
    global _POOL, _STARTS
    if _POOL is None and len(CPUS) > 1:
        with _START_LOCK:
            if _POOL is None:
                _POOL = _Pool(CPUS)
                _STARTS += 1
    return _POOL


def fan_out(fn, items) -> list:
    """``[fn(item) for item in items]`` with the items spread over the
    lanes; ``items`` is a sequence.  Every item runs even when one
    fails; the lowest-index failure is raised after all have finished.
    """
    global _FAN_OUTS
    if len(items) < 2:  # the per-step draws and lookups: nothing to spread
        return [fn(item) for item in items]
    job = _Job(fn, items)
    pool = None if _INLINE or hasattr(_ON_LANE, "lane") else _pool()
    if pool is None or not pool.busy.acquire(blocking=False):
        job.run()
        return job.outcome()
    try:
        _FAN_OUTS += 1
        for inbox in pool.inboxes:
            inbox.put(job)
        for _ in pool.inboxes:
            job.finished.get()
    finally:
        pool.busy.release()
    return job.outcome()


@contextlib.contextmanager
def inline():
    """Run every fan-out in the block on its caller, item after item —
    the one-lane spelling the tests put beside the lanes.  Not for
    concurrent fan-outs."""
    global _INLINE
    previous, _INLINE = _INLINE, True
    try:
        yield
    finally:
        _INLINE = previous


def stats() -> dict:
    """One lane per entry of ``cpus`` (one entry: every fan-out runs
    inline), pools ``started`` and ``fan_outs`` run on lanes in this
    process."""
    return {
        "cpus": list(CPUS),
        "started": _STARTS,
        "fan_outs": _FAN_OUTS,
    }


def _forget_in_child() -> None:
    """A forked child has none of the parent's threads: drop their pool
    (and a lock another thread may have held) so the child's first
    fan-out starts its own."""
    global _POOL, _START_LOCK, _STARTS, _FAN_OUTS
    _POOL, _START_LOCK = None, threading.Lock()
    _STARTS = _FAN_OUTS = 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_in_child)
_pool()
