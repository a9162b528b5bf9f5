"""Shard-scaling benchmark: the parallel model update, measured and modelled.

Measured mode trains the real numpy LazyDP trainer under ``shards=N``
plans at a scaled-down geometry across shard counts and execution
backends —
the in-process serial and thread-pool schedules plus the
``backend=process`` worker-process engine (:mod:`repro.procshard`) —
reporting per-shard model-update timing and verifying the released
model stays bitwise identical to the flat trainer.  Model mode
projects the same sweep at paper scale with
:mod:`repro.perfmodel.shardmodel`.

Runs two ways:

* under pytest-benchmark alongside the other figure benchmarks
  (``pytest benchmarks/bench_shard_scaling.py``);
* as a plain script — ``python benchmarks/bench_shard_scaling.py
  [--smoke]`` — for CI smoke coverage without the benchmark harness.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro import configs
from repro.bench.reporting import format_table
from repro.data import DataLoader, SyntheticClickDataset
from repro.nn import DLRM
from repro.perfmodel import shard_scaling_series
from repro.session import ExecutionPlan, TrainSession
from repro.train import DPConfig

SHARD_COUNTS = (1, 2, 4)
EXECUTORS = ("serial", "threads")
#: Sweep variants: the two in-process executor schedules plus the
#: worker-process backend.  Variant names key the gated
#: ``throughput_ratio_{variant}_{n}shards`` metrics, so they are frozen
#: ("serial" is the numpy backend's serial schedule).
VARIANTS = EXECUTORS + ("process",)

#: Metrics snapshot of the most recent instrumented run — embedded into
#: the report's ``meta`` so BENCH_*.json carries the engine gauges
#: (arena hits, shard skew, ...) alongside the gated relative metrics.
_last_metrics: dict = {}


def variant_plan(variant, num_shards) -> ExecutionPlan:
    """The ExecutionPlan of one sweep cell (``None`` shards = flat)."""
    if num_shards is None:
        return ExecutionPlan()
    backend = "numpy" if variant == "serial" else variant
    return ExecutionPlan.from_spec(f"shards={num_shards},backend={backend}")


def _train(config, *, num_shards=None, variant="serial", batch=64,
           iterations=6, seed=11):
    """Train flat (num_shards=None) or sharded; return (model, trainer, s).

    ``variant`` is a sweep-variant name from :data:`VARIANTS`: an
    in-process executor schedule, or ``"process"`` for the
    worker-process backend.  Worker startup (and shutdown) happen
    outside the timed region, matching the in-process variants whose
    pools are also built at construction.
    """
    from repro.configs import ObservabilityConfig
    from repro.obs import Observability

    model = DLRM(config, seed=seed)
    dataset = SyntheticClickDataset(config, seed=seed + 1)
    loader = DataLoader(dataset, batch_size=batch, num_batches=iterations,
                        seed=seed + 2)
    trainer = TrainSession.build(
        model, DPConfig(), variant_plan(variant, num_shards),
        noise_seed=seed + 3,
    ).trainer
    obs = trainer.instrument(Observability(ObservabilityConfig(metrics=True)))
    start = time.perf_counter()
    trainer.fit(loader)
    elapsed = time.perf_counter() - start
    _last_metrics.clear()
    _last_metrics.update(obs.metrics.snapshot())
    trainer.close()
    return model, trainer, elapsed


def measured_sweep(rows=4000, batch=64, iterations=6,
                   shard_counts=SHARD_COUNTS, variants=VARIANTS):
    """Per-shard model-update timing across shard counts and backends.

    Returns (table_rows, metrics, max_diff): one report row per
    (variant, num_shards) with per-shard update seconds, the gateable
    relative metrics (per-variant throughput against the flat trainer
    measured in the same process), and the worst parameter difference
    against the flat reference (must be exactly 0.0 — the process
    backend's cross-process updates included).
    """
    config = configs.small_dlrm(rows=rows)
    flat_model, flat_trainer, flat_elapsed = _train(
        config, batch=batch, iterations=iterations
    )
    reference = {
        name: param.data.copy()
        for name, param in flat_model.parameters().items()
    }

    table_rows = []
    metrics = {"flat_iterations_per_second": iterations / flat_elapsed}
    max_diff = 0.0
    for variant in variants:
        for num_shards in shard_counts:
            model, trainer, elapsed = _train(
                config, num_shards=num_shards, variant=variant,
                batch=batch, iterations=iterations,
            )
            config_diff = max(
                float(np.max(np.abs(param.data - reference[name])))
                for name, param in model.parameters().items()
            )
            max_diff = max(max_diff, config_diff)
            # One in-process shard is the flat engine: it runs in place,
            # timed on the trainer's own timer, with no per-shard view.
            per_shard = (trainer.shard_update_seconds()
                         if trainer.plan is not None else [])
            update_wall = trainer.timer.total(
                "shard_routing", "shard_model_update", "terminal_flush"
            )
            metrics[f"throughput_ratio_{variant}_{num_shards}shards"] = \
                flat_elapsed / elapsed
            table_rows.append([
                variant, num_shards,
                f"{update_wall * 1e3:.1f}",
                " / ".join(f"{seconds * 1e3:.1f}" for seconds in per_shard)
                or "in place",
                f"{elapsed:.2f}",
                "exact" if config_diff == 0.0 else f"{config_diff:.2e}",
            ])
    return table_rows, metrics, max_diff


def model_sweep(batch=2048, shard_counts=(1, 2, 4, 8, 16)):
    """Paper-scale projection of the update across shard counts."""
    config = configs.mlperf_dlrm()
    series = shard_scaling_series(config, batch, shard_counts)
    return [
        [num_shards, f"{critical * 1e3:.1f}", f"{serial * 1e3:.1f}",
         f"{serial / critical:.2f}x"]
        for num_shards, (critical, serial) in series.items()
    ]


def run_report(smoke: bool = False) -> int:
    import _jsonreport

    shard_counts = (1, 2) if smoke else SHARD_COUNTS
    iterations = 3 if smoke else 6
    rows = 2000 if smoke else 4000
    table_rows, metrics, max_diff = measured_sweep(
        rows=rows, iterations=iterations, shard_counts=shard_counts
    )
    print(format_table(
        ["backend", "shards", "update wall ms", "per-shard ms",
         "total s", "vs flat"],
        table_rows,
        title=f"Sharded model update, measured ({rows} rows/table)",
    ))
    print()
    print(format_table(
        ["shards", "critical path ms", "serial ms", "speedup"],
        model_sweep(),
        title="Sharded model update, modelled (96 GB, batch 2048)",
    ))
    if max_diff != 0.0:
        print(f"ERROR: sharded model diverged from flat by {max_diff}",
              file=sys.stderr)
        return 1
    print("\nequivalence: sharded == flat (bitwise) for every row above")
    # Variants are named by their canonical ExecutionPlan spec, so the
    # JSON artifact identifies runs the way the session API does.
    plans = {"flat": variant_plan(None, None).canonical()}
    for variant in VARIANTS:
        for num_shards in shard_counts:
            plans[f"throughput_ratio_{variant}_{num_shards}shards"] = \
                variant_plan(variant, num_shards).canonical()
    return _jsonreport.gate(
        "shard_scaling", metrics,
        meta={"rows": rows, "iterations": iterations, "plans": plans,
              "smoke": smoke, "metrics": dict(_last_metrics)},
    )


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------

def test_shard_scaling_measured(benchmark):
    from conftest import emit_report

    table_rows, _, max_diff = benchmark.pedantic(
        measured_sweep, kwargs={"rows": 2000, "iterations": 4},
        rounds=1, iterations=1,
    )
    emit_report("shard_scaling_measured", format_table(
        ["backend", "shards", "update wall ms", "per-shard ms",
         "total s", "vs flat"],
        table_rows,
        title="Sharded model update, measured (2000 rows/table)",
    ))
    assert max_diff == 0.0
    # Every backend variant reported, every shard count present.
    variants = {row[0] for row in table_rows}
    assert variants == set(VARIANTS)


def test_shard_scaling_model(benchmark):
    from conftest import emit_report

    rows = benchmark.pedantic(model_sweep, rounds=1, iterations=1)
    emit_report("shard_scaling_model", format_table(
        ["shards", "critical path ms", "serial ms", "speedup"],
        rows,
        title="Sharded model update, modelled (96 GB, batch 2048)",
    ))
    # Parallel speedup over the serial executor must grow with shards.
    speedups = [float(row[3].rstrip("x")) for row in rows]
    assert speedups == sorted(speedups)
    assert speedups[-1] > 2.0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small fast sweep for CI")
    raise SystemExit(run_report(smoke=parser.parse_args().smoke))
