"""Run one workload through the public front door and measure it.

Two harness gotchas fixed while scoping (ISSUE 11) shape this file:

1. Pipelined and async trainers fall back to the *inline serial path*
   when stepped manually, so train workloads call ``session.fit(loader)``
   exactly once and step boundaries are observed from outside, through
   instance-level wrappers on ``trainer.train_step`` / ``trainer.finalize``
   (one ``perf_counter`` read per step in the untraced run).
2. A writer stepping back-to-back under ``engine.quiesce()`` starves
   readers (~1.5 lookups/s at 2 M rows), so the live workload paces its
   writer on an open-loop schedule, times each step from when it was
   due, and reports how late the writer ran.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import statistics
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter, sleep

import numpy as np

from repro import DLRM, DPConfig, DataLoader, SyntheticClickDataset
from repro.data.skew import SkewSpec
from repro.rng import NoiseStream, philox_invocations
from repro.serve.loadgen import generate_traffic
from repro.session import ExecutionPlan, TrainSession

from . import probes, tracing
from .workloads import BY_NAME, DIGEST_GROUP, DIM, LOOKUP_BATCH, TABLES, model_config, slab_bytes

#: Tables the frozen probe reads (the live reader reads all of them).
PROBE_TABLES = 2
#: How long a hopping thread stays on one CPU (see ``CpuHopper``).
HOP_SECONDS = 0.25
#: Lookups per second of live window the reader's record has room for
#: (it cycles over the precomputed requests until told to stop).
READER_CAP = 40_000
#: Rows per table whose released value is recomputed independently.
CHECK_ROWS = 2048
#: Released values are sums of O(1e-4) noise terms; a dropped or doubled
#: term moves a row by ~1e-5, a reordered float64 sum by < 1e-15.
CHECK_ATOL = 1e-12


@dataclass
class Ops:
    """Operations attempted / failed, and the named correctness checks."""

    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})


@dataclass
class StepMarks:
    """Step boundaries observed from outside ``fit``."""

    starts: list = field(default_factory=list)
    iterations: list = field(default_factory=list)
    release_start: float = 0.0
    release_end: float = 0.0
    allocs_start: int = 0


@dataclass
class Lookups:
    """One closed-loop reader's record."""

    latencies: np.ndarray
    hit: np.ndarray
    refreshed: np.ndarray
    done: int = 0
    failed: int = 0


class CpuHopper:
    """While entered, moves the given threads to the next CPU every
    ``HOP_SECONDS`` (thread *i* starts on CPU *i*, so two threads swap).

    The box this was sized on runs each vCPU, independently, in a fast
    or a ~35 % slower mode for 5-30 s at a time (a neighbour on the
    core's sibling thread).  A single-threaded phase left on one CPU
    lands wholly in one mode, so its timings are bimodal run to run;
    alternating CPUs makes every run the same even mix of both.  Ten
    interleaved pairs of ``serial_uniform`` runs, same seeds, while the
    modes were active: quartile spread of ``steps_per_s`` 0.043 hopping
    vs 0.094 not, of ``lookup_us_p50`` 0.071 vs 0.189; ten more pairs
    in a stretch without them: 0.066 vs 0.067 and 0.12 vs 0.15 — it
    helps when it can and costs nothing when it cannot.  Only phases
    whose work is all on the given threads hop: threads created while
    pinned would inherit the mask.
    """

    def __init__(self, *threads: int, enabled: bool = True):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.threads = threads or (threading.get_native_id(),)
        self.enabled = enabled and len(self.cpus) > 1
        self._stop = threading.Event()
        self._mover = threading.Thread(target=self._run, name="e2e-cpu-hopper")

    def _place(self, masks) -> None:
        for thread, mask in zip(self.threads, masks):
            try:
                os.sched_setaffinity(thread, mask)
            except ProcessLookupError:
                pass  # the thread already ended; nothing left to place

    def _run(self) -> None:
        count, turn = len(self.cpus), 0
        while True:
            self._place(
                {self.cpus[(turn + i) % count]} for i in range(len(self.threads))
            )
            if self._stop.wait(HOP_SECONDS):
                return
            turn += 1

    def __enter__(self) -> "CpuHopper":
        if self.enabled:
            self._mover.start()
        return self

    def __exit__(self, *exc_info) -> bool:
        if self.enabled:
            self._stop.set()
            self._mover.join()
            self._place(self.cpus for _ in self.threads)
        return False


def _single_threaded(plan_spec: str) -> bool:
    """Whether every set-up, step and flush of ``plan_spec`` runs on
    the calling thread alone (no pool, prefetch, apply or process
    workers), so that the thread may hop."""
    plan = ExecutionPlan.from_spec(plan_spec)
    return not (plan.is_sharded or plan.is_pipelined)


# -- set-up -------------------------------------------------------------------

def _build(workload, sizes, seed):
    """One set-up: model + dataset + ``TrainSession.build`` (+ workers)."""
    config = model_config(workload, sizes.rows)
    skew = None if workload.zipf is None else SkewSpec("zipf", workload.zipf)
    t0 = perf_counter()
    model = DLRM(config, seed=seed)
    t1 = perf_counter()
    dataset = SyntheticClickDataset(config, seed=seed + 1, skew=skew)
    t2 = perf_counter()
    session = TrainSession.build(
        model, DPConfig(), ExecutionPlan.from_spec(workload.plan),
        noise_seed=seed + 3,
    )
    t3 = perf_counter()
    return session, dataset, (t0, t1, t2, t3)


def _setup(workload, sizes, seed, recorder):
    """``workload.cycles`` set-ups, keeping the last.

    Every cycle but the last also fits two steps and flushes, so a
    short release is sampled as often as the set-up (the flush catches
    up every row whatever the step count: all are pending either way).
    """
    session = dataset = None
    totals, releases = [], []
    for cycle in range(workload.cycles):
        with CpuHopper(enabled=_single_threaded(workload.plan)):
            session, dataset, (t0, t1, t2, t3) = _build(workload, sizes, seed)
            totals.append(t3 - t0)
            if cycle < workload.cycles - 1:
                try:
                    observed = _observe_steps(session.trainer, sizes, None)
                    session.fit(DataLoader(dataset, sizes.batch, 2, seed=seed + 2))
                    releases.append(observed.release_end - observed.release_start)
                finally:
                    session.close()
                session = dataset = None
                gc.collect()
    if recorder is not None:
        root = recorder.add("phase.setup", t0, t3)
        recorder.add("session.model_init", t0, t1, root)
        recorder.add("session.dataset_init", t1, t2, root)
        recorder.add("session.build", t2, t3, root)
    timing = {
        "setup_s": _median(totals),
        # The layer split is the kept (last) set-up's.
        "session.model_init_s": t1 - t0,
        "session.dataset_init_s": t2 - t1,
        "session.build_s": t3 - t2,
        "cycles": workload.cycles,
        "releases": releases,
    }
    return session, dataset, timing


# -- observing fit() from outside ----------------------------------------------

def _sum_allocs(stats) -> int:
    """Total ``allocs`` over every BufferArena in a ``kernel_stats()``."""
    if isinstance(stats, dict):
        own = int(stats["allocs"]) if "allocs" in stats and "hits" in stats else 0
        return own + sum(_sum_allocs(value) for value in stats.values())
    if isinstance(stats, (list, tuple)):
        return sum(_sum_allocs(value) for value in stats)
    return 0


def _roll_step_root(recorder, marks, now, iteration) -> None:
    """Close the open step root at ``now``; open ``iteration``'s."""
    if marks.iterations:
        previous = marks.iterations[-1]
        if previous in recorder.traced:
            recorder.add(
                "step", marks.starts[-1], now, None, previous,
                span_id=previous,
            )
    if iteration is None:
        recorder.close_root()
    else:
        recorder.open_root(iteration, iteration, iteration in recorder.traced)


def _observe_steps(trainer, sizes, recorder) -> StepMarks:
    """Instance-level wrappers on ``train_step`` / ``finalize``."""
    marks = StepMarks()
    step, finalize = trainer.train_step, trainer.finalize
    if recorder is None:
        def train_step(iteration, batch, next_batch):
            marks.starts.append(perf_counter())
            return step(iteration, batch, next_batch)

        def release(final_iteration):
            marks.release_start = perf_counter()
            finalize(final_iteration)
            marks.release_end = perf_counter()
    else:
        first_timed = sizes.warm + 1

        def train_step(iteration, batch, next_batch):
            now = perf_counter()
            _roll_step_root(recorder, marks, now, iteration)
            marks.starts.append(now)
            marks.iterations.append(iteration)
            if iteration == first_timed:
                marks.allocs_start = _sum_allocs(trainer.kernel_stats())
            return step(iteration, batch, next_batch)

        def release(final_iteration):
            marks.release_start = perf_counter()
            _roll_step_root(recorder, marks, marks.release_start, None)
            with recorder.phase("phase.release"):
                finalize(final_iteration)
            marks.release_end = perf_counter()

    trainer.train_step = train_step
    trainer.finalize = release
    return marks


def _phase(recorder, name):
    """``recorder.phase(name)`` when tracing, else nothing."""
    return nullcontext() if recorder is None else recorder.phase(name)


# -- lookups ------------------------------------------------------------------

def _traffic(sizes, seed, tables):
    """Precomputed fig13d medium-skew batch-64 requests over random
    tables out of the first ``tables``."""
    rows = generate_traffic(
        sizes.rows, sizes.requests, LOOKUP_BATCH, skew="medium",
        seed=seed + 4, perm_seed=seed,
    )
    chosen = np.random.default_rng(seed + 5).integers(0, tables, size=sizes.requests)
    return chosen, rows


def _read_loop(engine, tables, rows, limit, stop, recorder, root, current):
    """Closed-loop client: the next lookup is sent when the previous
    one returned.  Two ``perf_counter`` reads per lookup; the traced
    variant also classifies each lookup from the engine's public
    counters.  ``current()`` is the writer iteration a lookup runs
    beside (its spans' step)."""
    count = len(tables)
    record = Lookups(
        np.zeros(limit), np.zeros(limit, dtype=bool), np.zeros(limit, dtype=bool)
    )
    lookup = engine.lookup
    k = 0
    while k < limit and not stop.is_set():
        table, ids = int(tables[k % count]), rows[k % count]
        if recorder is not None:
            step = current()
            span = recorder.new_id()
            recorder.open_root(span, step, step in recorder.traced)
            hits, generation = engine.memo_hits, engine.generation
        start = perf_counter()
        try:
            lookup(table, ids)
        except Exception:  # noqa: BLE001 - a failed lookup is a counted op
            record.failed += 1
        end = perf_counter()
        record.latencies[k] = end - start
        if recorder is not None:
            record.hit[k] = engine.memo_hits - hits == ids.size
            record.refreshed[k] = engine.generation != generation
            if step in recorder.traced:
                recorder.add(
                    "serve.lookup", start, end, root, step, span_id=span
                )
        k += 1
    record.done = k
    if recorder is not None:
        recorder.close_root()
    return record


def _probe_released(session, sizes, seed, recorder):
    """Train workloads: serve the released model, no writer."""
    engine = session.serve()
    tables, rows = _traffic(sizes, seed, PROBE_TABLES)
    # The engine allocates a table's dense memo at its first lookup
    # (~0.2 s per 64 MB table): lazy set-up, paid once, not timed — and
    # the reason the probe reads two tables, not all eight.
    for table in range(PROBE_TABLES):
        engine.lookup(table, rows[0])
    # Spans of the frozen probe belong to no training step (step 0).
    with CpuHopper(), _phase(recorder, "phase.serve") as root:
        record = _read_loop(
            engine, tables, rows, sizes.lookups, threading.Event(), recorder,
            root, lambda: 0,
        )
    return engine, record


# -- correctness ----------------------------------------------------------------

def released_digest(parameters: dict) -> str:
    """SHA-256 over every released parameter, in name order."""
    digest = hashlib.sha256()
    for name in sorted(parameters):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(parameters[name]).data)
    return digest.hexdigest()


def _model_arrays(model) -> dict:
    return {name: param.data for name, param in model.parameters().items()}


def _sample_rows(model, seed):
    """Per table: ``CHECK_ROWS`` row ids and a copy of their values."""
    rng = np.random.default_rng(seed + 6)
    sample = []
    for bag in model.embeddings:
        rows = np.sort(rng.choice(
            bag.num_rows, size=min(CHECK_ROWS, bag.num_rows), replace=False
        ))
        sample.append((rows, bag.table.data[rows].copy()))
    return sample


def _expected_release(stream, table, rows, base, delays, iteration, std, lr):
    """Eager-equivalent value of lazily-noised rows, recomputed with
    the public noise stream only (no engine code)."""
    noise = stream.aggregated_row_noise(table, rows, delays, iteration, DIM, std=std)
    return base - lr * noise


def _check_untouched(ops, model, dataset, loader, sample, seed, final):
    """Rows no batch ever gathered must equal init minus their whole
    deferred-noise history — the flush path, checked at full scale."""
    touched = [np.zeros(bag.num_rows, dtype=bool) for bag in model.embeddings]
    for index in range(len(loader)):
        indices = dataset.sparse_indices(loader.example_ids_for(index))
        for table in range(TABLES):
            touched[table][indices[:, table, :]] = True
    dp = DPConfig()
    stream = NoiseStream(seed + 3)
    std = dp.noise_std(loader.batch_size)
    checked, worst = 0, 0.0
    for table, (rows, init) in enumerate(sample):
        keep = ~touched[table][rows]
        if not keep.any():
            continue
        rows, init = rows[keep], init[keep]
        expected = _expected_release(
            stream, table, rows, init, np.full(rows.size, final), final, std,
            dp.learning_rate,
        )
        actual = model.embeddings[table].table.data[rows]
        worst = max(worst, float(np.abs(actual - expected).max()))
        checked += rows.size
    ops.check(
        "untouched_rows_match_eager", worst <= CHECK_ATOL,
        f"{checked} rows, max abs diff {worst:.3g}",
    )


def _check_audit(ops, name, audit, *args) -> None:
    """``audit(*args)`` raises (``LedgerError``) on a violation."""
    try:
        audit(*args)
        ops.check(name, True)
    except RuntimeError as error:
        ops.check(name, False, str(error))


def _fit_digest(workload, plan_spec, sizes, seed) -> str:
    """Released-model digest of ``plan_spec`` at ``sizes`` (twin check)."""
    config = model_config(workload, sizes.rows)
    model = DLRM(config, seed=seed)
    dataset = SyntheticClickDataset(config, seed=seed + 1)
    session = TrainSession.build(
        model, DPConfig(), ExecutionPlan.from_spec(plan_spec), noise_seed=seed + 3
    )
    try:
        session.fit(DataLoader(
            dataset, sizes.batch, sizes.warm + sizes.timed, seed=seed + 2
        ))
        return released_digest(_model_arrays(model))
    finally:
        session.close()


def _check_twin(ops, workload, seed) -> None:
    """Composed plan == serial plan, bitwise, at tiny geometry.  (The
    at-scale three-way digest needs all three workloads in one
    invocation; ``python -m benchmarks.e2e`` without ``--workload``.)"""
    tiny = workload.sized(0.0, tiny=True)
    composed = _fit_digest(workload, workload.plan, tiny, seed)
    serial = _fit_digest(workload, "ans=on", tiny, seed)
    ops.check("tiny_twin_equals_serial", composed == serial,
              f"{composed[:12]} vs {serial[:12]}")


# -- the two run shapes ---------------------------------------------------------

def _layer_state(trainer, model, steps, philox, **own) -> dict:
    """What the per-layer metrics read off the run besides spans."""
    return {
        "history_mb": trainer.engine.history_bytes() / 1e6,
        "flush_s": trainer.timer.totals.get("terminal_flush", 0.0),
        "dense_params": sum(
            param.size for param in model.dense_parameters().values()
        ),
        # Philox launches of this process over the whole run, per step.
        "philox_per_step": philox / steps,
        "ledger_gaps": 0, "allocs_steady": 0, "workers": 0, "epsilon": 0.0,
        **own,
    }


def _run_train(workload, sizes, seed, recorder, ops):
    session, dataset, timing = _setup(workload, sizes, seed, recorder)
    try:
        trainer, model = session.trainer, session.model
        if recorder is not None and hasattr(trainer, "procshard_stats"):
            trainer.timer.tracer = recorder
        sample = _sample_rows(model, seed)
        total = sizes.warm + sizes.timed
        loader = DataLoader(dataset, sizes.batch, total, seed=seed + 2)
        marks = _observe_steps(trainer, sizes, recorder)
        philox_start = philox_invocations()
        with CpuHopper(enabled=_single_threaded(workload.plan)):
            result = session.fit(loader)
        philox_end = philox_invocations()
        ops.attempted += total
        ops.failed += total - result.iterations
        own_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        if hasattr(trainer, "audit_noise_ledger"):
            _check_audit(
                ops, "noise_ledger_clean", trainer.audit_noise_ledger, total
            )
        arrays = _model_arrays(model)
        # A finite sum rules out NaN and inf without a 64 MB temporary.
        ops.check("released_finite", all(
            bool(np.isfinite(data.sum())) for data in arrays.values()
        ))
        _check_untouched(ops, model, dataset, loader, sample, seed, total)
        digest = released_digest(arrays)

        engine, lookups = _probe_released(session, sizes, seed, recorder)
        serve_stats = engine.stats()
        layer_state = _layer_state(
            trainer, model, total, philox_end - philox_start,
            ledger_gaps=sum(
                int(vector.pending_rows(total).size)
                for vector in getattr(trainer, "ledger", ())
            ),
            allocs_steady=(
                _sum_allocs(trainer.kernel_stats()) - marks.allocs_start
                if recorder is not None else 0
            ),
            workers=(
                trainer.num_shards if hasattr(trainer, "procshard_stats") else 0
            ),
            epsilon=result.epsilon or 0.0,
        )
    finally:
        start = perf_counter()
        session.close()
        timing["session.close_s"] = perf_counter() - start
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    # Start-to-start step walls: their sum is the timed window.
    walls = np.diff(marks.starts[sizes.warm:] + [marks.release_start])
    return {
        "timing": timing,
        "walls": walls,
        "iterations": list(range(sizes.warm + 1, total + 1)),
        "release_s": marks.release_end - marks.release_start,
        "steps_per_s": len(walls) / walls.sum(),
        "lookups": lookups,
        "serve_stats": serve_stats,
        "peak_rss_mb": (own_peak + children) / 1024.0,
        "digest": digest,
        "layer": layer_state,
        "writer": {"late": [], "waits": []},
    }


def _run_live(workload, sizes, seed, recorder, ops, full_checks):
    session, dataset, timing = _setup(workload, sizes, seed, recorder)
    try:
        trainer, model = session.trainer, session.model
        warm, steps = sizes.warm, sizes.timed
        philox_start = philox_invocations()
        # Iteration i trains on loader position i-1 and catches up the
        # rows of position i.  The warm-up steps are manual too: the
        # plan is serial (gotcha 1 does not apply) and fit() would end
        # in a 3.5 s flush nothing here measures.
        stream = DataLoader(dataset, sizes.batch, warm + steps + 1, seed=seed + 2)
        batches = [stream.batch_for(j) for j in range(warm + steps + 1)]
        for j in range(warm):
            session.train_step(j + 1, batches[j], batches[j + 1])
        ops.attempted += warm
        engine = session.serve()
        tables, rows = _traffic(sizes, seed, TABLES)
        stop = threading.Event()
        iteration = [warm]
        root = None if recorder is None else recorder.new_id()
        box = []
        reader = threading.Thread(
            target=lambda: box.append(_read_loop(
                engine, tables, rows, int(READER_CAP * sizes.live_seconds), stop,
                recorder, root, lambda: iteration[0],
            )),
            name="e2e-reader",
        )
        walls, late, waits, step_failed = [], [], [], 0
        traced_iterations = []
        window_start = perf_counter()
        reader.start()
        try:
            # Writer (this thread) and reader swap CPUs every HOP_SECONDS.
            with CpuHopper(threading.get_native_id(), reader.native_id):
                for j in range(steps):
                    due = window_start + j / sizes.writer_rate
                    pause = due - perf_counter()
                    if pause > 0:
                        sleep(pause)
                    asked = perf_counter()
                    late.append(asked - due)
                    current = warm + 1 + j
                    with engine.quiesce():
                        entered = perf_counter()
                        if recorder is not None:
                            recorder.open_root(
                                current, current, current in recorder.traced
                            )
                        try:
                            session.train_step(
                                current, batches[warm + j], batches[warm + j + 1]
                            )
                        except Exception:  # noqa: BLE001 - counted, run goes on
                            step_failed += 1
                        iteration[0] = current
                    finished = perf_counter()
                    if recorder is not None:
                        recorder.close_root()
                        if current in recorder.traced:
                            recorder.add(
                                "step", entered, finished, None, current,
                                span_id=current,
                            )
                    # Open loop: a step's latency runs from when it was due.
                    walls.append(finished - due)
                    waits.append(entered - asked)
                    traced_iterations.append(current)
                remaining = window_start + sizes.live_seconds - perf_counter()
                if remaining > 0:
                    sleep(remaining)
        finally:
            stop.set()
            reader.join()
        if recorder is not None:
            recorder.add(
                "phase.serve", window_start, perf_counter(), span_id=root,
                thread=reader.name,
            )
        lookups = box[0]
        ops.attempted += steps
        ops.failed += step_failed
        philox_end = philox_invocations()

        final = warm + steps
        sample = _sample_rows(model, seed)
        pending = [
            final - trainer.engine.histories[t].last_updated(rows_t).astype(np.int64)
            for t, (rows_t, _) in enumerate(sample)
        ]
        with _phase(recorder, "phase.release"):
            start = perf_counter()
            exported = engine.export()
            release_s = perf_counter() - start
        own_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        _check_audit(ops, "serve_exactly_once", engine.audit_exactly_once)
        dp = DPConfig()
        noise = NoiseStream(seed + 3)
        std = dp.noise_std(sizes.batch)
        worst = 0.0
        for t, (rows_t, base) in enumerate(sample):
            expected = _expected_release(
                noise, t, rows_t, base, pending[t], final, std, dp.learning_rate
            )
            name = model.embeddings[t].table.name
            worst = max(worst, float(np.abs(exported[name][rows_t] - expected).max()))
        ops.check("export_matches_eager_sample", worst <= CHECK_ATOL,
                  f"max abs diff {worst:.3g}")
        if full_checks:
            reference = session.export_private_model()
            ops.check("export_equals_export_private_model", all(
                np.array_equal(exported[name], reference[name]) for name in reference
            ))
            del reference
        digest = released_digest(exported)
        serve_stats = engine.stats()
        # The accountant is stepped by fit(), which this run never
        # calls, so epsilon stays at the default 0.
        layer_state = _layer_state(trainer, model, final, philox_end - philox_start)
    finally:
        start = perf_counter()
        session.close()
        timing["session.close_s"] = perf_counter() - start
    return {
        "timing": timing,
        "walls": np.array(walls),
        "iterations": traced_iterations,
        "release_s": release_s,
        # The rate the paced writer achieved (2/s unless it ran late).
        "steps_per_s": steps / (finished - window_start),
        "lookups": lookups,
        "serve_stats": serve_stats,
        "peak_rss_mb": own_peak / 1024.0,
        "digest": digest,
        "layer": layer_state,
        "writer": {"late": late, "waits": waits},
    }


# -- metrics --------------------------------------------------------------------

def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def _end_to_end(run) -> dict:
    """The five metrics steady enough on a shared host to carry a bound
    (README: spread behind each bound); the step and lookup percentiles
    and the lookup rate are reported with the layers, unbounded."""
    lookups = run["lookups"]
    release = run["timing"]["releases"] + [run["release_s"]]
    return {
        "setup_s": run["timing"]["setup_s"],
        "steps_per_s": run["steps_per_s"],
        "release_s": _median(release),
        "lookup_us_p50": 1e6 * _percentile(
            lookups.latencies[: lookups.done], 50
        ),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def _per_layer(run, recorder, machine, is_live) -> dict:
    traced = recorder.traced
    busy = tracing.busy_by_name(recorder.spans, traced)
    steps = max(len(traced), 1)

    def total(name):
        """``(seconds, count sum, spans)`` of one span name."""
        return busy.get(name, (0.0, 0, 0))

    def seconds(*names):
        return sum(total(name)[0] for name in names)

    def ms(*names):
        return 1e3 * seconds(*names) / steps

    def counted(name):
        return total(name)[1]

    layer, timing = run["layer"], run["timing"]
    walls = dict(zip(run["iterations"], run["walls"]))
    traced_walls = [wall for it, wall in walls.items() if it in traced]
    plain_walls = [wall for it, wall in walls.items() if it not in traced]
    catchup_rows = counted("data.dedup") / steps
    apply_s = seconds("kernels.apply")
    apply_gbps = (
        3 * counted("kernels.apply") * DIM * 8 / apply_s / 1e9 if apply_s else 0.0
    )
    sample_s = seconds("kernels.sample")
    prefetch, waited = ms("pipeline.prefetch"), ms("pipeline.wait")

    # Per-shard busy: pool tasks by shard index, worker processes by track.
    shard_busy: dict = {}
    for _, name, start, end, _, step, thread, count in recorder.spans:
        if step not in traced:
            continue
        if name == "shard.task":
            shard_busy[count] = shard_busy.get(count, 0.0) + end - start
        elif thread.startswith("shard-proc-"):
            shard_busy[thread] = shard_busy.get(thread, 0.0) + end - start
    shard_loads = list(shard_busy.values())
    workers = layer["workers"]
    roundtrip_ms = ms("shard.update") if workers else 0.0

    lookups = run["lookups"]
    latencies = lookups.latencies[: lookups.done]
    hit = lookups.hit[: lookups.done]
    refreshed = lookups.refreshed[: lookups.done]
    stats = run["serve_stats"]
    writer = run["writer"]
    return {
        "data.batch_ms": ms("data.batch"),
        "data.dedup_ms": ms("data.dedup"),
        "nn.forward_ms": ms("nn.forward"),
        "nn.backward_ms": ms("nn.backward", "nn.ghost_norm", "nn.weighted_grads"),
        "train.clip_ms": ms("train.clip"),
        "train.dense_update_ms": ms("train.dense_noise", "train.dense_update"),
        "privacy.accountant_ms": ms("privacy.accountant"),
        "privacy.epsilon": layer["epsilon"],
        "lazydp.plan_ms": ms("lazydp.plan"),
        "lazydp.sample_ms": ms("lazydp.sample"),
        "lazydp.flush_s": layer["flush_s"],
        "lazydp.catchup_rows_per_step": catchup_rows,
        "lazydp.history_mb": layer["history_mb"],
        "lazydp.ledger_gaps": layer["ledger_gaps"],
        "kernels.apply_ms": ms("kernels.apply"),
        "kernels.apply_gbps": apply_gbps,
        "kernels.apply_roofline_frac": apply_gbps / machine["stream_gbps"],
        "kernels.stream_gbps": machine["stream_gbps"],
        "kernels.sample_ms": ms("kernels.sample"),
        "kernels.sample_mrows_per_s": (
            counted("kernels.sample") / sample_s / 1e6 if sample_s else 0.0
        ),
        "kernels.arena_allocs_steady": layer["allocs_steady"],
        "rng.philox_launches_per_step": layer["philox_per_step"],
        "rng.gaussians_per_step": catchup_rows * DIM + layer["dense_params"],
        "rng.gaussian_mps": machine["gaussian_mps"],
        "shard.route_ms": ms("shard.route"),
        "shard.update_ms": ms("shard.update"),
        "shard.imbalance": (
            max(shard_loads) / statistics.fmean(shard_loads) if shard_loads else 0.0
        ),
        "pipeline.prefetch_busy_ms": prefetch,
        "pipeline.wait_ms": waited,
        "pipeline.hidden_frac": (
            max(prefetch - waited, 0.0) / prefetch if prefetch else 0.0
        ),
        "async.apply_busy_ms": ms("async.apply"),
        "async.submit_wait_ms": ms("async.submit"),
        "async.staleness_wait_ms": ms("async.staleness_wait"),
        "procshard.roundtrips_per_step": (
            total("shard.update")[2] * workers / steps
            if workers else 0.0
        ),
        "procshard.ipc_ms": (
            roundtrip_ms - 1e3 * max(shard_loads) / steps
            if workers and shard_loads else 0.0
        ),
        "procshard.worker_busy_ms": (
            1e3 * sum(shard_loads) / workers / steps if workers else 0.0
        ),
        "procshard.start_s": timing["session.build_s"] if workers else 0.0,
        "train.step_ms_p50": 1e3 * _percentile(run["walls"], 50),
        "train.step_ms_p90": 1e3 * _percentile(run["walls"], 90),
        # Closed loop, no think time: latencies sum to the reader's wall.
        "serve.lookups_per_s": len(latencies) / max(latencies.sum(), 1e-12),
        "serve.lookup_us_p90": 1e6 * _percentile(latencies, 90),
        "serve.hit_us_p50": 1e6 * _median(latencies[hit]),
        "serve.miss_us_p50": 1e6 * _median(latencies[~hit]),
        "serve.lookup_us_p99": 1e6 * _percentile(latencies, 99),
        "serve.memo_hit_rate": stats["memo_hits"] / max(stats["rows_served"], 1),
        "serve.cache_hit_rate": stats.get("cache", {}).get("hit_rate", 0.0),
        "serve.refresh_ms": 1e3 * _median(latencies[refreshed]),
        "serve.quiesce_wait_ms": 1e3 * _median(writer["waits"]),
        "serve.writer_late_ms": 1e3 * _median(writer["late"]),
        "serve.rows_caught_up": stats["rows_caught_up"],
        "serve.export_s": run["release_s"] if is_live else 0.0,
        "session.model_init_s": timing["session.model_init_s"],
        "session.dataset_init_s": timing["session.dataset_init_s"],
        "session.build_s": timing["session.build_s"],
        "session.close_s": timing["session.close_s"],
        "bench.trace_overhead_frac": (
            _median(traced_walls) / _median(plain_walls) - 1.0
            if traced_walls and plain_walls else 0.0
        ),
    }


def run_workload(name, seed, seconds, trace, tiny=False, full_checks=False,
                 spans_path=None) -> dict:
    """Run one workload once; returns the full report (``metrics`` holds
    the end-to-end set when untraced, the per-layer set when traced)."""
    workload = BY_NAME[name]
    sizes = workload.sized(seconds, tiny)
    spec = probes.load_benchmark_spec()
    ops = Ops()
    recorder = None
    machine = {}
    if trace:
        caches = probes.cache_sizes()
        llc = probes.llc_bytes(caches)
        gbps, array_bytes = probes.stream_gbps(min(llc, 1 << 20) if tiny else llc)
        machine = {
            "stream_gbps": gbps, "stream_array_bytes": array_bytes,
            "llc_bytes": llc, "gaussian_mps": probes.gaussian_mps(seed),
        }
        recorder = tracing.Recorder(sizes.traced_iterations())
        tracing.install(recorder)
    try:
        if workload.live:
            run = _run_live(workload, sizes, seed, recorder, ops, full_checks)
        else:
            run = _run_train(workload, sizes, seed, recorder, ops)
    finally:
        if trace:
            tracing.uninstall()
    if workload.twin:
        _check_twin(ops, workload, seed)
    lookups = run["lookups"]
    ops.attempted += lookups.done
    ops.failed += lookups.failed

    if trace:
        values = _per_layer(run, recorder, machine, workload.live)
        declared = spec["per_layer"]
    else:
        values = _end_to_end(run)
        declared = spec["end_to_end"]
    metrics = {
        entry["name"]: {"value": float(values[entry["name"]]), "unit": entry["unit"]}
        for entry in declared
    }
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "tiny": bool(tiny),
        "plan": workload.plan,
        "sizes": {
            "rows": sizes.rows, "batch": sizes.batch, "warm_steps": sizes.warm,
            "timed_steps": sizes.timed, "slab_bytes": slab_bytes(sizes.rows),
        },
        "env": probes.env_block(seed, slab_bytes(sizes.rows)),
        "machine": machine,
        "samples": {
            "steps": int(len(run["walls"])), "lookups": int(lookups.done),
            "cycles": run["timing"]["cycles"],
        },
        "metrics": metrics,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "ops_failed_frac": ops.failed / max(ops.attempted, 1),
        "correct": ops.failed == 0,
        "checks": ops.checks,
        "digest": run["digest"],
    }
    if trace:
        own = tracing.self_times(recorder.spans)
        self_ms: dict = {}
        for span in recorder.spans:
            self_ms[span[1]] = self_ms.get(span[1], 0.0) + 1e3 * own[span[0]]
        report["self_ms"] = self_ms
        report["spans"] = len(recorder.spans)
        if spans_path is not None:
            with open(spans_path, "w", encoding="utf-8") as handle:
                json.dump(tracing.to_json(recorder.spans), handle)
            report["spans_file"] = str(spans_path)
    return report


def check_digests(reports: dict) -> dict:
    """The bitwise ``engine == serial`` invariant across workloads:
    same seed + geometry + step count must release the same bytes."""
    digests = {
        name: reports[name]["digest"] for name in DIGEST_GROUP if name in reports
    }
    return {
        "name": "three_way_released_digest",
        "ok": len(set(digests.values())) <= 1,
        "detail": ", ".join(f"{n}={d[:12]}" for n, d in digests.items()),
    }


def result_line(report: dict) -> str:
    """The driver's contract: exactly these four keys, one line."""
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    })
