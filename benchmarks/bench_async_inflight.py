"""Async in-flight benchmark: throughput vs ``max_in_flight`` depth.

The async engine keeps up to ``max_in_flight`` iteration applies
outstanding on a background worker while the trainer proceeds with the
next forward/backward.  This benchmark sweeps the in-flight depth for
the strict (bitwise-serial) and bounded-staleness policies, reports
throughput against the serial plan, verifies the
strict runs release bitwise-identical parameters, and runs the
noise-ledger audit on every async run (noise applied exactly once per
row regardless of interleaving).

Runs two ways:

* under pytest-benchmark alongside the other figure benchmarks
  (``pytest benchmarks/bench_async_inflight.py``);
* as a plain script — ``python benchmarks/bench_async_inflight.py
  [--smoke]`` — for CI smoke coverage; writes a ``BENCH_async_inflight
  .json`` artifact and fails on a >25% throughput regression against
  ``benchmarks/reports/baseline.json``.

Set ``BENCH_ASYNC_INJECT_MS=<ms>`` to inject a per-iteration slowdown
into the async variants — the local way to prove the regression gate
actually trips (see docs/reproducing.md).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

import _jsonreport
from repro import configs
from repro.bench.reporting import format_table
from repro.data import DataLoader, SyntheticClickDataset
from repro.session import ExecutionPlan, TrainSession
from repro.train import DPConfig

IN_FLIGHT_DEPTHS = (1, 2, 4)

#: Metrics snapshot of the most recent instrumented run — embedded into
#: the report's ``meta`` so BENCH_*.json carries the engine gauges
#: (in-flight depth, staleness lag, ...) alongside the gated relative
#: metrics.
_last_metrics: dict = {}


def _injected_slowdown_seconds() -> float:
    return float(os.environ.get("BENCH_ASYNC_INJECT_MS", "0")) / 1e3


def variant_plan(variant, max_in_flight=2, staleness="strict",
                 num_shards=2) -> ExecutionPlan:
    """The ExecutionPlan of one sweep variant."""
    engine = f"async={staleness},inflight={max_in_flight}"
    specs = {
        "serial": "",
        "async": engine,
        "async_sharded": f"shards={num_shards},{engine},backend=threads",
    }
    if variant not in specs:
        raise ValueError(f"unknown variant: {variant}")
    return ExecutionPlan.from_spec(specs[variant])


def _train(config, *, variant="serial", max_in_flight=2, staleness="strict",
           num_shards=2, batch=64, iterations=6, seed=11):
    """Train one variant; returns (model, trainer, wall_seconds)."""
    from repro.configs import ObservabilityConfig
    from repro.nn import DLRM
    from repro.obs import Observability

    model = DLRM(config, seed=seed)
    dataset = SyntheticClickDataset(config, seed=seed + 1)
    loader = DataLoader(dataset, batch_size=batch, num_batches=iterations,
                        seed=seed + 2)
    trainer = TrainSession.build(
        model, DPConfig(),
        variant_plan(variant, max_in_flight, staleness, num_shards),
        noise_seed=seed + 3,
    ).trainer
    slowdown = 0.0 if variant == "serial" else _injected_slowdown_seconds()
    if slowdown > 0.0:
        original_step = trainer.train_step

        def slowed_step(iteration, current, upcoming):
            time.sleep(slowdown)
            return original_step(iteration, current, upcoming)

        trainer.train_step = slowed_step
    obs = trainer.instrument(Observability(ObservabilityConfig(metrics=True)))
    start = time.perf_counter()
    trainer.fit(loader)
    elapsed = time.perf_counter() - start
    _last_metrics.clear()
    _last_metrics.update(obs.metrics.snapshot())
    trainer.close()
    return model, trainer, elapsed


def inflight_sweep(rows=4000, batch=64, iterations=6,
                   depths=IN_FLIGHT_DEPTHS, num_shards=2):
    """Throughput vs in-flight depth across staleness policies.

    Returns ``(table_rows, metrics, max_strict_diff, ledger_ok)``: one
    report row per variant, the gateable relative metrics, the worst
    strict-mode parameter difference against the serial reference
    (must be exactly 0.0), and whether every ledger audit passed.
    """
    config = configs.small_dlrm(rows=rows)
    serial_model, _, serial_wall = _train(
        config, variant="serial", batch=batch, iterations=iterations
    )
    reference = {
        name: param.data.copy()
        for name, param in serial_model.parameters().items()
    }
    serial_throughput = iterations / serial_wall
    table_rows = [[
        "serial", "-", "-", f"{serial_wall:.2f}",
        f"{serial_throughput:.1f}", "1.00x", "reference",
    ]]
    metrics = {"serial_iterations_per_second": serial_throughput}
    max_strict_diff = 0.0
    ledger_ok = True

    runs = [("async", depth, "strict") for depth in depths]
    runs.append(("async", max(depths), "bounded:2"))
    runs.append(("async_sharded", 2, "strict"))
    for variant, depth, staleness in runs:
        model, trainer, elapsed = _train(
            config, variant=variant, max_in_flight=depth,
            staleness=staleness, num_shards=num_shards, batch=batch,
            iterations=iterations,
        )
        throughput = iterations / elapsed
        ratio = throughput / serial_throughput
        strict = staleness == "strict"
        if strict:
            diff = max(
                float(np.max(np.abs(param.data - reference[name])))
                for name, param in model.parameters().items()
            )
            max_strict_diff = max(max_strict_diff, diff)
            verdict = "exact" if diff == 0.0 else f"{diff:.2e}"
        else:
            verdict = "diverges (by design)"
        try:
            trainer.audit_noise_ledger(iterations)
        except Exception as error:
            ledger_ok = False
            verdict = f"LEDGER: {error}"
        label = (variant if variant == "async"
                 else f"{variant} ({num_shards} shards)")
        key = (f"throughput_ratio_{variant}_inflight{depth}"
               + ("" if strict else "_bounded"))
        metrics[key] = ratio
        table_rows.append([
            label, depth, staleness, f"{elapsed:.2f}",
            f"{throughput:.1f}", f"{ratio:.2f}x", verdict,
        ])
    return table_rows, metrics, max_strict_diff, ledger_ok


HEADER = ["variant", "in flight", "staleness", "total s", "iters/s",
          "vs serial", "released model"]


def run_report(smoke: bool = False) -> int:
    depths = (1, 2) if smoke else IN_FLIGHT_DEPTHS
    iterations = 4 if smoke else 6
    rows = 2000 if smoke else 4000
    table_rows, metrics, max_strict_diff, ledger_ok = inflight_sweep(
        rows=rows, iterations=iterations, depths=depths
    )
    print(format_table(
        HEADER, table_rows,
        title=f"Async multi-in-flight training ({rows} rows/table)",
    ))
    if max_strict_diff != 0.0:
        print("ERROR: strict async model diverged from serial by "
              f"{max_strict_diff}", file=sys.stderr)
        return 1
    if not ledger_ok:
        print("ERROR: noise-ledger audit failed", file=sys.stderr)
        return 1
    print("\nequivalence: strict async == serial (bitwise) for every row; "
          "every ledger audit exact")
    # Variants are named by their canonical ExecutionPlan spec, so the
    # JSON artifact identifies runs the way the session API does.
    plans = {"serial": variant_plan("serial").canonical()}
    for depth in depths:
        plans[f"throughput_ratio_async_inflight{depth}"] = \
            variant_plan("async", depth).canonical()
    plans[f"throughput_ratio_async_inflight{max(depths)}_bounded"] = \
        variant_plan("async", max(depths), "bounded:2").canonical()
    plans["throughput_ratio_async_sharded_inflight2"] = \
        variant_plan("async_sharded", 2).canonical()
    return _jsonreport.gate(
        "async_inflight", metrics,
        meta={"rows": rows, "iterations": iterations, "plans": plans,
              "smoke": smoke, "metrics": dict(_last_metrics),
              "injected_slowdown_ms":
                  _injected_slowdown_seconds() * 1e3},
    )


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------

def test_async_inflight_measured(benchmark):
    from conftest import emit_report

    table_rows, metrics, max_strict_diff, ledger_ok = benchmark.pedantic(
        inflight_sweep,
        kwargs={"rows": 2000, "iterations": 4, "depths": (1, 2)},
        rounds=1, iterations=1,
    )
    emit_report("async_inflight", format_table(
        HEADER, table_rows,
        title="Async multi-in-flight training (2000 rows/table)",
    ))
    assert max_strict_diff == 0.0
    assert ledger_ok
    # Every variant reported against the serial reference.
    assert {row[0] for row in table_rows} == \
        {"serial", "async", "async_sharded (2 shards)"}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small fast sweep for CI")
    raise SystemExit(run_report(smoke=parser.parse_args().smoke))
