"""Pipeline-overlap benchmark: hidden vs exposed noise catch-up time.

The serial LazyDP trainer pays the full catch-up (dedup + history read/
update + ANS draw) on the critical path every iteration.  A plan with
the ``pipeline`` axis moves that work onto a background prefetch worker;
what remains
on the critical path is only ``pipeline_wait`` — the time the trainer
blocked because the worker had not finished.  This benchmark measures
both, reports how much of the background compute was *hidden* behind
forward/backward and input gather, and verifies the pipelined model
stays bitwise identical to the serial one.

Runs two ways:

* under pytest-benchmark alongside the other figure benchmarks
  (``pytest benchmarks/bench_pipeline_overlap.py``);
* as a plain script — ``python benchmarks/bench_pipeline_overlap.py
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
from repro.session import ExecutionPlan, TrainSession
from repro.train import DPConfig

PREFETCH_DEPTHS = (1, 2, 4)

#: Serial-trainer stages that the pipeline moves off the critical path.
CATCHUP_STAGES = ("lazydp_dedup", "lazydp_history_read",
                  "lazydp_history_update", "noise_sampling")

#: Metrics snapshot of the most recent instrumented run — embedded into
#: the report's ``meta`` so BENCH_*.json carries the engine gauges
#: (staging occupancy, hidden fractions, ...) alongside the gated
#: relative metrics.
_last_metrics: dict = {}


def variant_plan(variant, depth=2, num_shards=2) -> ExecutionPlan:
    """The ExecutionPlan of one sweep variant."""
    specs = {
        "serial": "",
        "pipelined": f"pipeline={depth}",
        "pipelined_sharded":
            f"shards={num_shards},pipeline={depth},backend=threads",
    }
    if variant not in specs:
        raise ValueError(f"unknown variant: {variant}")
    return ExecutionPlan.from_spec(specs[variant])


def _train(config, *, variant="serial", depth=2, num_shards=2, batch=64,
           iterations=6, seed=11):
    """Train one variant; returns (model, trainer, wall_seconds)."""
    from repro.configs import ObservabilityConfig
    from repro.nn import DLRM
    from repro.obs import Observability

    model = DLRM(config, seed=seed)
    dataset = SyntheticClickDataset(config, seed=seed + 1)
    loader = DataLoader(dataset, batch_size=batch, num_batches=iterations,
                        seed=seed + 2)
    trainer = TrainSession.build(
        model, DPConfig(), variant_plan(variant, depth, num_shards),
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


def overlap_sweep(rows=4000, batch=64, iterations=6,
                  depths=PREFETCH_DEPTHS, num_shards=2):
    """Hidden-vs-exposed catch-up time across pipeline variants.

    Returns ``(table_rows, metrics, max_diff, worst_hidden_fraction)``:
    one report row per variant, the gateable relative metrics (hidden
    fractions, per-variant throughput against the serial trainer
    measured in the same process), the worst parameter difference
    against the serial reference (must be exactly 0.0), and the
    smallest hidden fraction observed (the acceptance criterion
    demands > 0).
    """
    config = configs.small_dlrm(rows=rows)
    serial_model, serial_trainer, serial_wall = _train(
        config, variant="serial", batch=batch, iterations=iterations
    )
    reference = {
        name: param.data.copy()
        for name, param in serial_model.parameters().items()
    }
    serial_catchup = serial_trainer.timer.total(*CATCHUP_STAGES)

    table_rows = [[
        "serial", "-", f"{serial_catchup * 1e3:.1f}", "-", "-", "-",
        f"{serial_wall:.2f}", "reference",
    ]]
    metrics = {"serial_iterations_per_second": iterations / serial_wall}
    max_diff = 0.0
    worst_hidden = 1.0
    runs = [("pipelined", depth, None) for depth in depths]
    runs.append(("pipelined_sharded", 2, num_shards))
    for variant, depth, shards in runs:
        model, trainer, elapsed = _train(
            config, variant=variant, depth=depth,
            num_shards=shards or num_shards, batch=batch,
            iterations=iterations,
        )
        diff = max(
            float(np.max(np.abs(param.data - reference[name])))
            for name, param in model.parameters().items()
        )
        max_diff = max(max_diff, diff)
        stats = trainer.pipeline_stats()
        worst_hidden = min(worst_hidden, stats["hidden_fraction"])
        label = (variant if shards is None
                 else f"{variant} ({shards} shards)")
        metrics[f"hidden_fraction_{variant}_depth{depth}"] = \
            stats["hidden_fraction"]
        metrics[f"throughput_ratio_{variant}_depth{depth}"] = \
            serial_wall / elapsed
        table_rows.append([
            label, depth,
            f"{stats['prefetch_busy_seconds'] * 1e3:.1f}",
            f"{stats['exposed_wait_seconds'] * 1e3:.1f}",
            f"{stats['hidden_seconds'] * 1e3:.1f}",
            f"{stats['hidden_fraction']:.0%}",
            f"{elapsed:.2f}",
            "exact" if diff == 0.0 else f"{diff:.2e}",
        ])
    return table_rows, metrics, max_diff, worst_hidden


HEADER = ["variant", "depth", "catch-up busy ms", "exposed wait ms",
          "hidden ms", "hidden %", "total s", "vs serial"]


def overlap_sweep_with_retry(retries: int = 2, **kwargs):
    """Run the sweep, retrying if *no* time was hidden.

    Correctness (``max_diff``) is deterministic and never retried, but
    the hidden fraction is a wall-clock property: on a heavily loaded
    single-core runner the worker may only get scheduled while the
    trainer is already blocked, measuring 0% hidden.  One clean re-run
    distinguishes that scheduling artefact from a real pipeline bug
    (which would measure 0% every time).
    """
    table_rows, metrics, max_diff, worst_hidden = overlap_sweep(**kwargs)
    for _ in range(retries):
        if max_diff != 0.0 or worst_hidden > 0.0:
            break
        table_rows, metrics, max_diff, worst_hidden = overlap_sweep(**kwargs)
    return table_rows, metrics, max_diff, worst_hidden


def run_report(smoke: bool = False) -> int:
    import _jsonreport

    depths = (1, 2) if smoke else PREFETCH_DEPTHS
    iterations = 4 if smoke else 6
    rows = 2000 if smoke else 4000
    table_rows, metrics, max_diff, worst_hidden = overlap_sweep_with_retry(
        rows=rows, iterations=iterations, depths=depths
    )
    print(format_table(
        HEADER, table_rows,
        title=f"Noise catch-up: hidden vs exposed ({rows} rows/table; "
              "serial row shows critical-path catch-up cost)",
    ))
    if max_diff != 0.0:
        print(f"ERROR: pipelined model diverged from serial by {max_diff}",
              file=sys.stderr)
        return 1
    if worst_hidden <= 0.0:
        print("ERROR: no noise catch-up time was hidden behind gather",
              file=sys.stderr)
        return 1
    print("\nequivalence: pipelined == serial (bitwise) for every row; "
          f"worst hidden fraction {worst_hidden:.0%}")
    # Variants are named by their canonical ExecutionPlan spec, so the
    # JSON artifact identifies runs the way the session API does.
    plans = {"serial": variant_plan("serial").canonical()}
    for depth in depths:
        plans[f"throughput_ratio_pipelined_depth{depth}"] = \
            variant_plan("pipelined", depth).canonical()
    plans["throughput_ratio_pipelined_sharded_depth2"] = \
        variant_plan("pipelined_sharded", 2, 2).canonical()
    return _jsonreport.gate(
        "pipeline_overlap", metrics,
        meta={"rows": rows, "iterations": iterations, "plans": plans,
              "smoke": smoke, "metrics": dict(_last_metrics)},
    )


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------

def test_pipeline_overlap_measured(benchmark):
    from conftest import emit_report

    table_rows, _, max_diff, worst_hidden = benchmark.pedantic(
        overlap_sweep_with_retry,
        kwargs={"rows": 2000, "iterations": 4, "depths": (1, 2)},
        rounds=1, iterations=1,
    )
    emit_report("pipeline_overlap", format_table(
        HEADER, table_rows,
        title="Noise catch-up: hidden vs exposed (2000 rows/table)",
    ))
    assert max_diff == 0.0
    assert worst_hidden > 0.0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small fast sweep for CI")
    raise SystemExit(run_report(smoke=parser.parse_args().smoke))
