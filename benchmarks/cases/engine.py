"""Engine cases: whole plans trained, traced and served.

``plan_sweep`` trains a list of ``ExecutionPlan`` specs against the
serial plan in one process and demands the released model be bitwise
equal (or, under ``bounded:k``, the noise ledger exact).
``obs_overhead`` and ``serve_load`` pin the tracer's and the serving
tier's contracts.  All three build through :func:`train`.
"""

from __future__ import annotations

import importlib.util
import pathlib
import time
from contextlib import contextmanager
from dataclasses import replace

from repro import configs
from repro.configs import ObservabilityConfig
from repro.lazydp.ledger import LedgerError
from repro.obs import format_table
from repro.perfmodel import shard_scaling_series
from repro.serve import HotRowCache, run_load
from repro.session import ExecutionPlan
from repro.testing import make_loader, max_param_diff
from repro.train.common import StageTimer

from . import Checks, Result, Table, case, train

#: One spec per engine shape the plan axes span: ans x flat/sharded x
#: inline/pipelined/async.
PLAN_SHAPES = tuple(
    ",".join(part for part in (ans, shards, engine) if part)
    for engine in ("", "pipeline=2", "async=strict,inflight=2")
    for shards in ("", "shards=2")
    for ans in ("ans=on", "ans=off")
)


def sweep_plans(tier: str) -> dict:
    """``{benchmark: {label: spec}}`` for every plan the sweep trains.

    ``benchmark`` names the ``BENCH_<benchmark>.json`` a plan reports
    into and ``label`` its ``throughput_ratio_<label>`` metric; both are
    frozen by ``baseline.json``.  The full tier only adds depth (4
    shards, depth 4) — every pinned key comes from plans both tiers run.
    """
    counts = (1, 2, 4) if tier == "full" else (1, 2)
    deepest = counts[-1]
    backends = {"serial": "numpy", "threads": "threads", "process": "process"}
    threads2 = "shards=2,backend=threads"
    return {
        "shard_scaling": {
            f"{variant}_{n}shards": f"shards={n},backend={backend}"
            for variant, backend in backends.items()
            for n in counts
        },
        "pipeline_overlap": {
            **{f"pipelined_depth{n}": f"pipeline={n}" for n in counts},
            "pipelined_sharded_depth2": f"{threads2},pipeline=2",
        },
        "async_inflight": {
            **{f"async_inflight{n}": f"async=strict,inflight={n}" for n in counts},
            f"async_inflight{deepest}_bounded": f"async=bounded:2,inflight={deepest}",
            "async_sharded_inflight2": f"{threads2},async=strict,inflight=2",
        },
        "plan_matrix": {
            ExecutionPlan.from_spec(spec).legacy_name(): spec for spec in PLAN_SHAPES
        },
    }


def _shard_model_table(checks: Checks) -> Table:
    """Paper-scale projection of the sharded update's critical path."""
    series = shard_scaling_series(configs.mlperf_dlrm(), 2048, (1, 2, 4, 8, 16))
    speedups = [serial / critical for critical, serial in series.values()]
    checks.require(
        speedups == sorted(speedups) and speedups[-1] > 2.0,
        f"modelled shard speedup must grow with shards past 2x: {speedups}",
    )
    rows = [
        [n, f"{critical * 1e3:.1f}", f"{serial * 1e3:.1f}", f"{serial / critical:.2f}x"]
        for n, (critical, serial) in series.items()
    ]
    return Table(
        "shard_scaling_model",
        format_table(
            ["shards", "critical path ms", "serial ms", "speedup"],
            rows,
            title="Sharded model update, modelled (96 GB, batch 2048)",
        ),
    )


@case(
    "plan_sweep",
    figure="— (beyond paper: shards, pipeline, async, backends)",
    shows="Every engine shape and backend trained against the serial plan: "
    "bitwise-equal release (clean noise ledger under `bounded:k`), "
    "throughput ratio per plan, hidden fraction of the prefetch pipeline",
)
def plan_sweep(tier: str) -> Result:
    rows, iterations = (2000, 4) if tier == "smoke" else (4000, 6)
    config = configs.small_dlrm(rows=rows)
    checks = Checks()
    references: dict = {}

    def reference(ans: bool):
        """The serial plan with the row's ANS setting (ANS changes the
        draws, so each setting has its own bitwise reference)."""
        if ans not in references:
            session, result = train(
                config, ExecutionPlan(ans=ans), iterations=iterations
            )
            session.close()
            references[ans] = (session.model, result.wall_time)
        return references[ans]

    serial_rate = iterations / reference(True)[1]
    metrics: dict = {}
    plans: dict = {}
    snapshots: dict = {}
    table_rows = []
    sweep = [
        (benchmark, label, spec)
        for benchmark, specs in sweep_plans(tier).items()
        for label, spec in specs.items()
    ]
    for benchmark, label, spec in sweep:
        plan = ExecutionPlan.from_spec(spec)
        serial_model, serial_wall = reference(plan.ans)
        session, result = train(
            config,
            replace(plan, obs=ObservabilityConfig(metrics=True)),
            iterations=iterations,
        )
        session.close()
        trainer = session.trainer
        snapshots[benchmark] = session.observability.metrics.snapshot()
        group = metrics.setdefault(
            benchmark, {"serial_iterations_per_second": serial_rate}
        )
        group[f"throughput_ratio_{label}"] = serial_wall / result.wall_time
        plans[f"{benchmark}/throughput_ratio_{label}"] = plan.canonical()

        if plan.is_async and plan.async_.staleness != "strict":
            verdict = "diverges (by design)"
        else:
            diff = max_param_diff(serial_model, session.model)
            verdict = "exact" if diff == 0.0 else f"{diff:.2e}"
            checks.require(
                diff == 0.0, f"{spec}: released model differs from serial by {diff}"
            )
        if plan.is_async:
            try:
                trainer.audit_noise_ledger(iterations)
                verdict += ", ledger exact"
            except LedgerError as error:
                checks.require(False, f"{spec}: noise-ledger audit failed: {error}")
                verdict = f"LEDGER: {error}"
        hidden = "-"
        if plan.is_pipelined and not plan.is_async:
            fraction = trainer.pipeline_stats()["hidden_fraction"]
            group[f"hidden_fraction_{label}"] = fraction
            hidden = f"{fraction:.0%}"
            checks.timing(
                fraction > 0.0,
                f"{spec}: no noise catch-up time was hidden behind the step",
            )
        per_shard = trainer.shard_update_seconds() if trainer.plan is not None else []
        table_rows.append(
            [
                benchmark,
                label,
                plan.canonical(),
                f"{result.wall_time:.2f}",
                f"{serial_wall / result.wall_time:.2f}x",
                hidden,
                " / ".join(f"{s * 1e3:.1f}" for s in per_shard) or "in place",
                verdict,
            ]
        )
    table = Table(
        "plan_sweep",
        format_table(
            [
                "benchmark",
                "variant",
                "plan",
                "total s",
                "vs serial",
                "hidden %",
                "per-shard update ms",
                "released model",
            ],
            table_rows,
            title=f"Plan sweep against the serial plan ({rows} rows/table, "
            f"{iterations} iterations)",
        ),
        measured=True,
    )
    meta = {
        "rows": rows,
        "iterations": iterations,
        "plans": plans,
        "metrics": snapshots,
    }
    return Result([table, _shard_model_table(checks)], metrics, meta, checks)


# ---------------------------------------------------------------------------
# Observability: tracing must be free when off and invisible when on.
# ---------------------------------------------------------------------------

#: The acceptance bound on the disabled-path overhead fraction.
MAX_DISABLED_OVERHEAD = 0.02

#: Trace-derived and timer-derived hidden fractions must agree this
#: closely (absolute, both live in [0, 1]).
MAX_HIDDEN_FRACTION_GAP = 0.10

_TRACE_REPORT_PATH = (
    pathlib.Path(__file__).resolve().parents[2] / "tools" / "trace_report.py"
)


def _load_trace_report():
    spec = importlib.util.spec_from_file_location("trace_report", _TRACE_REPORT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def timer_overhead_per_event(calls: int = 50_000) -> float:
    """Per-event cost (seconds) the tracer adapter adds over the seed
    timer, measured with no tracer bound — the disabled path every
    un-instrumented run takes."""
    timer = StageTimer()
    start = time.perf_counter()
    for _ in range(calls):
        with timer.time("stage"):
            pass
    adapter_seconds = time.perf_counter() - start

    totals: dict = {}

    @contextmanager
    def reference(stage):
        # The seed-era timer body: one clock read on entry, one on
        # exit, dict accumulate.  Identical arithmetic, no tracer hook.
        begin = time.perf_counter()
        try:
            yield
        finally:
            totals[stage] = totals.get(stage, 0.0) + (time.perf_counter() - begin)

    start = time.perf_counter()
    for _ in range(calls):
        with reference("stage"):
            pass
    reference_seconds = time.perf_counter() - start
    return max(adapter_seconds - reference_seconds, 0.0) / calls


@case(
    "obs_overhead",
    figure="Figure 11, §6.2 via the tracer (beyond paper)",
    shows="Observability cost: disabled-path overhead < 2%, traced == "
    "untraced bitwise, trace-derived vs timer-derived hidden fraction "
    "within 10 points",
)
def obs_overhead(tier: str) -> Result:
    rows, iterations = (2000, 4) if tier == "smoke" else (4000, 8)
    config = configs.small_dlrm(rows=rows)
    checks = Checks()
    runs = []
    for spec in ("pipeline=2", "pipeline=2,obs=trace+metrics"):
        session, result = train(
            config, ExecutionPlan.from_spec(spec), iterations=iterations
        )
        session.close()
        runs.append((session, result))
    (off, off_result), (traced, traced_result) = runs
    diff = max_param_diff(off.model, traced.model)
    checks.require(diff == 0.0, f"traced model diverged from untraced by {diff}")
    checks.require(
        off_result.stage_times.keys() == traced_result.stage_times.keys(),
        "tracing changed the set of timed stages",
    )

    obs = traced.observability
    events = obs.tracer.events_recorded
    per_event = timer_overhead_per_event()
    overhead = per_event * events / off_result.wall_time
    summary = _load_trace_report().summarize(obs.export_trace())
    trace_hidden = [
        stats["hidden_fraction"]
        for name, stats in summary.get("overlap", {}).items()
        if name.startswith("noise-prefetch")
    ]
    timer_hidden = traced.trainer.pipeline_stats()["hidden_fraction"]
    gap = abs(trace_hidden[0] - timer_hidden) if trace_hidden else 1.0
    checks.timing(
        overhead < MAX_DISABLED_OVERHEAD,
        f"disabled-observability overhead {overhead:.3%} >= "
        f"{MAX_DISABLED_OVERHEAD:.0%}",
    )
    checks.timing(
        gap <= MAX_HIDDEN_FRACTION_GAP,
        f"trace-derived hidden fraction disagrees with the timer-derived "
        f"{timer_hidden:.3f} by {gap:.3f} > {MAX_HIDDEN_FRACTION_GAP}",
    )
    metrics = {
        "disabled_overhead_fraction": overhead,
        "adapter_ns_per_event": per_event * 1e9,
        "events_per_run": float(events),
        "traced_wall_ratio": traced_result.wall_time / off_result.wall_time,
        "timer_hidden_fraction": timer_hidden,
        "trace_hidden_fraction": trace_hidden[0] if trace_hidden else -1.0,
        "hidden_fraction_gap": gap,
    }
    table = Table(
        "obs_overhead",
        format_table(
            ["metric", "value"],
            [
                ["adapter cost (ns/event)", f"{per_event * 1e9:.0f}"],
                ["events per run", str(events)],
                ["disabled overhead", f"{overhead:.3%}"],
                ["traced wall ratio", f"{metrics['traced_wall_ratio']:.2f}x"],
                ["hidden fraction (timer)", f"{timer_hidden:.1%}"],
                ["hidden fraction (trace)", f"{metrics['trace_hidden_fraction']:.1%}"],
                ["agreement gap", f"{gap:.3f}"],
                ["traced vs untraced", "exact" if diff == 0.0 else f"{diff:.2e}"],
            ],
            title=f"observability overhead ({rows} rows/table, "
            f"{iterations} iterations)",
        ),
        measured=True,
    )
    meta = {
        "rows": rows,
        "iterations": iterations,
        "metrics": obs.metrics.snapshot(),
    }
    return Result([table], {"obs_overhead": metrics}, meta, checks)


# ---------------------------------------------------------------------------
# Serving: reader scaling and the hot-row cache.
# ---------------------------------------------------------------------------

#: N readers on memo-hit traffic must at least double a single reader's
#: closed-loop throughput: lookups hold the read lock *shared*, so a
#: serializing bug anywhere on the hit path collapses the ratio to 1.
MIN_MULTI_READER_SCALING = 2.0

#: A `HotRowCache.for_skew`-sized cache must catch well over half the
#: fig13d medium-skew point lookups, or its admission filter thrashes.
MIN_CACHE_HIT_RATE = 0.55

#: Closed-loop think time (seconds).  Emulated per-request client
#: work; by the response-time law N/(Z+S) this is what lets N readers
#: offer ~N times one reader's load when the served path stays shared.
THINK_TIME = 2e-3

READERS = 4


def _load(engine, **kwargs):
    report = run_load(engine, skew="medium", warmup=True, **kwargs)
    if report.errors:
        raise report.errors[0]
    return report


def _reader_scaling(rows: int, requests: int, seed: int = 17):
    """Single-reader vs N-reader closed-loop throughput on warmed
    (memo-hit) traffic, batch 8, medium skew."""
    session, _ = train(configs.small_dlrm(rows=rows), iterations=4, seed=seed)
    with session:
        engine = session.serve(cache=False)
        single, multi = (
            _load(
                engine,
                readers=n,
                requests_per_reader=requests,
                batch_size=8,
                think_time=THINK_TIME,
                seed=seed,
            )
            for n in (1, READERS)
        )
        stats = engine.stats()
    metrics = {
        "multi_reader_scaling": multi.throughput_rps / single.throughput_rps,
        "single_reader_rps": single.throughput_rps,
        "multi_reader_rps": multi.throughput_rps,
        "single_p50_ms": single.latency_p50_ms,
        "multi_p50_ms": multi.latency_p50_ms,
        "single_p99_ms": single.latency_p99_ms,
        "multi_p99_ms": multi.latency_p99_ms,
    }
    return metrics, stats


def _cache_on_off(requests: int, rows: int = 512, seed: int = 23):
    """Skewed point lookups (batch 1 — the all-or-nothing probe's
    regime), cache on vs off, long enough that the admission filter's
    learning phase is a small fraction of the run."""
    cache = HotRowCache.for_skew("medium", rows)
    legs = {}
    for name, handle_cache in (("on", cache), ("off", False)):
        session, _ = train(configs.small_dlrm(rows=rows), iterations=4, seed=seed)
        with session:
            legs[name] = _load(
                session.serve(cache=handle_cache),
                readers=1,
                requests_per_reader=requests,
                batch_size=1,
                think_time=0.0,
                seed=seed,
            )
    stats = cache.stats()
    return {
        "cache_hit_rate": stats["hit_rate"],
        "cache_on_rps": legs["on"].throughput_rps,
        "cache_off_rps": legs["off"].throughput_rps,
        "cache_on_p50_ms": legs["on"].latency_p50_ms,
        "cache_on_p99_ms": legs["on"].latency_p99_ms,
        "cache_resident_rows": float(stats["resident_rows"]),
    }


def _memo_reuse(rows: int, cycles: int = 4, seed: int = 29) -> float:
    """Table-sized memo buffers allocated by the worst steady-state
    refresh cycle (writer step under ``quiesce``, then a lookup on every
    table).  The first lookup touched every table, so the persistent
    memo must serve every later generation in place: 0, a count."""
    config = configs.small_dlrm(rows=rows)
    session, _ = train(config, iterations=2, seed=seed)
    with session:
        engine = session.serve(cache=False)
        start = session.current_iteration()
        batches = list(make_loader(config, batch_size=64, num_batches=cycles + 1))
        engine.lookup_batch(batches[0])
        worst = 0
        for k in range(cycles):
            before = engine.memo_allocs
            with engine.quiesce():
                session.train_step(start + k + 1, batches[k], batches[k + 1])
            engine.lookup_batch(batches[k + 1])
            worst = max(worst, engine.memo_allocs - before)
        if engine.refreshes != cycles:
            raise RuntimeError(
                f"{engine.refreshes} refreshes over {cycles} writer steps"
            )
    return float(worst)


@case(
    "serve_load",
    figure="§3 threat model + Fig. 13(d) traffic (beyond paper)",
    shows="Serving tier under closed-loop fig13d-skewed load: 4 readers >= 2x "
    "one reader on memo-hit traffic, skew-sized hot-row cache hit rate, "
    "p50/p99 latencies",
)
def serve_load(tier: str) -> Result:
    smoke = tier == "smoke"
    rows, requests = (1024, 100) if smoke else (4096, 250)
    scaling, stats = _reader_scaling(rows, requests)
    metrics = {
        **scaling,
        **_cache_on_off(4000 if smoke else 8000),
        "memo_allocs_per_refresh": _memo_reuse(rows),
    }
    checks = Checks()
    checks.require(
        metrics["memo_allocs_per_refresh"] == 0,
        f"a steady-state refresh allocated "
        f"{metrics['memo_allocs_per_refresh']:.0f} memo buffer(s); the "
        "persistent memo must be reused in place",
    )
    checks.require(
        stats["rows_still_pending"] == 0, "warmup left rows un-privatized"
    )
    checks.timing(
        metrics["multi_reader_scaling"] >= MIN_MULTI_READER_SCALING,
        f"multi-reader scaling {metrics['multi_reader_scaling']:.2f}x < "
        f"{MIN_MULTI_READER_SCALING:.1f}x — the memo-hit path is "
        "serializing readers",
    )
    checks.timing(
        metrics["cache_hit_rate"] >= MIN_CACHE_HIT_RATE,
        f"hot-row cache hit rate {metrics['cache_hit_rate']:.1%} < "
        f"{MIN_CACHE_HIT_RATE:.0%} under medium skew",
    )
    table = Table(
        "serve_load",
        format_table(
            ["metric", "value"],
            [
                ["single reader", f"{metrics['single_reader_rps']:.0f} req/s"],
                [f"{READERS} readers", f"{metrics['multi_reader_rps']:.0f} req/s"],
                ["scaling", f"{metrics['multi_reader_scaling']:.2f}x"],
                [
                    "p50 (single / multi)",
                    f"{metrics['single_p50_ms']:.3f} / "
                    f"{metrics['multi_p50_ms']:.3f} ms",
                ],
                [
                    "p99 (single / multi)",
                    f"{metrics['single_p99_ms']:.3f} / "
                    f"{metrics['multi_p99_ms']:.3f} ms",
                ],
                ["cache hit rate", f"{metrics['cache_hit_rate']:.1%}"],
                [
                    "memo allocs / refresh",
                    f"{metrics['memo_allocs_per_refresh']:.0f}",
                ],
                [
                    "cache on / off",
                    f"{metrics['cache_on_rps']:.0f} / "
                    f"{metrics['cache_off_rps']:.0f} req/s",
                ],
            ],
            title=f"serving load ({rows} rows, medium skew, "
            f"think {THINK_TIME * 1e3:.1f} ms)",
        ),
        measured=True,
    )
    meta = {
        "rows": rows,
        "readers": READERS,
        "requests_per_reader": requests,
        "think_time_ms": THINK_TIME * 1e3,
        "serve_stats": {k: v for k, v in stats.items() if k != "cache"},
    }
    return Result([table], {"serve_load": metrics}, meta, checks)
