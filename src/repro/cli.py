"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``train``     train a scaled DLRM with any of the seven algorithms and
              print throughput, loss and the privacy budget spent.
``audit``     train EANA and LazyDP on the same trace and run the
              untouched-row attack against both final models.
``serve``     train briefly, then drive the private serving tier with
              skewed closed-loop load and print throughput/latency.
``backends``  list the execution backends, the lanes and which compiled
              kernels run.

The paper's figures are bench cases: ``python benchmarks/run.py [case
...]`` checks them and their paper-vs-modelled bands, and the committed
tables are under ``benchmarks/reports/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import configs
from .data import DataLoader, SyntheticClickDataset, paper_skew_spec
from .nn import DLRM
from .obs import Observability, format_table
from .perfmodel import ALGORITHMS
from .privacy import audit_untouched_rows
from .session import ExecutionPlan, TrainSession, make_trainer
from .train import DPConfig


def _add_train_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "train", help="train a scaled DLRM with one algorithm"
    )
    parser.add_argument("--algorithm", choices=ALGORITHMS, default="lazydp")
    parser.add_argument("--rows", type=int, default=8192,
                        help="rows per embedding table")
    parser.add_argument("--batch", type=int, default=256)
    parser.add_argument("--iterations", type=int, default=10)
    parser.add_argument("--noise-multiplier", type=float, default=1.1)
    parser.add_argument("--max-grad-norm", type=float, default=1.0)
    parser.add_argument("--learning-rate", type=float, default=0.05)
    parser.add_argument("--delta", type=float, default=1e-5)
    parser.add_argument("--skew", choices=("random", "low", "medium", "high"),
                        default="random")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--plan", default=None, metavar="SPEC",
        help="how LazyDP executes, e.g. "
             "'shards=4,pipeline=2,async=strict,ans=off' "
             "(keys: ans, shards, pipeline, async, inflight, obs, serve, "
             "backend).  The backend key selects "
             "how shard tasks run as 'name[:workers]': numpy (default), "
             "threads[:K] or process (one worker process per shard).  "
             "Determines the whole execution, "
             "including the ans axis: drop --algorithm when using it.",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a thread-aware span timeline and write it as "
             "Chrome trace-event JSON (open in Perfetto or "
             "chrome://tracing); implies obs=trace on top of whatever "
             "the plan's obs axis enables",
    )


def _run_train(args) -> int:
    config = configs.small_dlrm(rows=args.rows)
    skew = (None if args.skew == "random"
            else paper_skew_spec(args.skew, args.rows))
    model = DLRM(config, seed=args.seed)
    dataset = SyntheticClickDataset(config, seed=args.seed + 1, skew=skew)
    loader = DataLoader(dataset, batch_size=args.batch,
                        num_batches=args.iterations, seed=args.seed + 2)
    dp = DPConfig(
        noise_multiplier=args.noise_multiplier,
        max_grad_norm=args.max_grad_norm,
        learning_rate=args.learning_rate,
        delta=args.delta,
    )
    plan = None
    if args.plan is not None:
        if args.algorithm != "lazydp":
            print("--plan determines the whole execution (including the "
                  "ans axis, via ans=on/off); drop --algorithm",
                  file=sys.stderr)
            return 2
        try:
            plan = ExecutionPlan.from_spec(args.plan)
        except ValueError as error:
            print(f"invalid --plan spec: {error}", file=sys.stderr)
            return 2
    elif args.algorithm in ("lazydp", "lazydp_no_ans"):
        plan = ExecutionPlan(ans=args.algorithm == "lazydp")

    if args.trace is not None and plan is not None:
        # --trace turns the tracer on without clobbering a metrics
        # setting the plan spec already chose.
        plan = dataclasses.replace(
            plan, obs="trace" if plan.obs == "trace" else "trace+metrics"
        )

    obs = None
    if plan is not None:
        session = TrainSession.build(model, dp, plan, noise_seed=args.seed + 3)
        trainer = session.trainer
        obs = session.observability
        result = session.fit(loader)
    else:
        session = None
        trainer = make_trainer(args.algorithm, model, dp,
                               noise_seed=args.seed + 3)
        if args.trace is not None:
            obs = trainer.instrument(Observability(trace=True))
        result = trainer.fit(loader)
    per_iteration = result.wall_time / max(result.iterations, 1)
    print(f"algorithm        : {result.algorithm}")
    if plan is not None:
        print(f"plan             : {plan.to_spec()}")
    print(f"iterations       : {result.iterations}")
    print(f"wall time        : {result.wall_time:.3f}s "
          f"({per_iteration * 1e3:.1f} ms/iter)")
    print(f"loss             : {result.mean_losses[0]:.4f} -> "
          f"{result.final_loss:.4f}")
    if result.epsilon is not None:
        print(f"privacy          : epsilon = {result.epsilon:.3f} "
              f"at delta = {args.delta:g}")
    stage_rows = sorted(
        result.stage_times.items(), key=lambda item: -item[1]
    )
    print(format_table(
        ["stage", "seconds"], [[s, t] for s, t in stage_rows],
        title="stage breakdown",
    ))
    if result.counters:
        print(format_table(
            ["counter", "count"],
            [[name, count] for name, count in sorted(result.counters.items())],
            title="event counters",
        ))
    if plan is not None and trainer.num_shards > 1:
        sizes = np.diff(trainer.engine.router.bounds[0]).tolist()
        shard_rows = [
            [s, sizes[s], f"{seconds:.4f}"]
            for s, seconds in enumerate(trainer.shard_update_seconds())
        ]
        print(format_table(
            ["shard", "rows (table 0)", "update seconds"], shard_rows,
            title=f"per-shard model update (backend={plan.backend})",
        ))
        if result.shard_times is not None:
            summed = sorted(result.shard_times["summed"].items(),
                            key=lambda item: -item[1])
            print(format_table(
                ["stage", "seconds (all shards)"],
                [[s, f"{t:.4f}"] for s, t in summed],
                title="per-shard stage totals",
            ))
            shard_skew = result.shard_times.get("skew")
            if shard_skew is not None:
                print(f"shard update skew: max {shard_skew['max']:.4f}s, "
                      f"min {shard_skew['min']:.4f}s, "
                      f"spread {shard_skew['spread']:.4f}s")
    if plan is not None and plan.split_backend()[0] == "process":
        trainer.audit_noise_ledger(result.iterations)
        stats = trainer.procshard_stats()
        print(format_table(
            ["worker", "pid", "messages", "samples drawn"],
            [
                [w["shard"], w["pid"], w["messages"], w["samples_drawn"]]
                for w in stats["workers"]
            ],
            title=f"process backend ({stats['start_method']} start, "
                  "noise ledger exact)",
        ))
    if plan is not None and plan.is_pipelined:
        stats = trainer.pipeline_stats()
        print(format_table(
            ["metric", "value"],
            [
                ["prefetch busy (s)", f"{stats['prefetch_busy_seconds']:.4f}"],
                ["exposed wait (s)", f"{stats['exposed_wait_seconds']:.4f}"],
                ["hidden (s)", f"{stats['hidden_seconds']:.4f}"],
                ["hidden fraction", f"{stats['hidden_fraction']:.1%}"],
                ["plans computed", stats["plans_computed"]],
            ],
            title="noise prefetch pipeline (depth "
                  f"{stats['prefetch_depth']})",
        ))
    if plan is not None and plan.is_async:
        stats = trainer.async_stats()
        trainer.audit_noise_ledger(result.iterations)
        print(format_table(
            ["metric", "value"],
            [
                ["applies completed", stats["applies_completed"]],
                ["apply busy (s)", f"{stats['apply_busy_seconds']:.4f}"],
                ["submit stall (s)",
                 f"{stats['submit_stall_seconds']:.4f}"],
                ["staleness wait (s)",
                 f"{stats['staleness_wait_seconds']:.4f}"],
                ["noise ledger", "exact (applied once per row)"],
            ],
            title="async apply engine (max in flight "
                  f"{plan.inflight})",
        ))
    if args.trace is not None:
        events = obs.save_trace(args.trace)
        tracks = ", ".join(obs.tracer.track_names())
        print(f"trace            : wrote {events} events to {args.trace} "
              f"(tracks: {tracks})")
    if session is not None:
        session.close()
    return 0


def _run_serve(args) -> int:
    """Train a small model, then put its serving tier under load."""
    from .serve import HotRowCache, run_load

    config = configs.small_dlrm(rows=args.rows)
    model = DLRM(config, seed=args.seed)
    dataset = SyntheticClickDataset(config, seed=args.seed + 1)
    loader = DataLoader(dataset, batch_size=args.batch,
                        num_batches=args.iterations, seed=args.seed + 2)
    session = TrainSession.build(model, DPConfig(), ExecutionPlan(),
                                 noise_seed=args.seed + 3)
    session.fit(loader)
    cache = (HotRowCache.for_skew(args.skew, args.rows)
             if args.cache else False)
    engine = session.serve(cache=cache)
    rows = []
    for readers in (1, args.readers):
        report = run_load(
            engine,
            readers=readers,
            requests_per_reader=args.requests,
            batch_size=args.lookup_batch,
            skew=args.skew,
            think_time=args.think_ms / 1e3,
            seed=args.seed,
        )
        if report.errors:
            print(f"serve errors: {report.errors[0]!r}", file=sys.stderr)
            return 1
        rows.append([
            readers, f"{report.throughput_rps:.0f}",
            f"{report.rows_per_second:.0f}",
            f"{report.latency_p50_ms:.3f}", f"{report.latency_p99_ms:.3f}",
        ])
    print(format_table(
        ["readers", "req/s", "rows/s", "p50 ms", "p99 ms"], rows,
        title=f"serving load ({args.skew} skew, batch {args.lookup_batch}, "
              f"cache {'on' if args.cache else 'off'})",
    ))
    stats = engine.stats()
    if "cache" in stats:
        cache_stats = stats["cache"]
        print(f"hot-row cache    : {cache_stats['resident_rows']}/"
              f"{cache_stats['capacity']} resident, "
              f"hit rate {cache_stats['hit_rate']:.1%}")
    print(f"memo             : {stats['rows_served']} rows served, "
          f"{stats['memo_hits']} memo hits, "
          f"{stats['rows_caught_up']} caught up")
    session.close()
    return 0


def _run_audit(args) -> int:
    config = configs.small_dlrm(rows=args.rows)
    rows_for_table = []
    final_tables = {}
    reference = DLRM(config, seed=11)
    for algorithm in ("eana", "lazydp"):
        model = DLRM(config, seed=11)
        dataset = SyntheticClickDataset(config, seed=12)
        loader = DataLoader(dataset, batch_size=args.batch,
                            num_batches=args.iterations, seed=13)
        trainer = make_trainer(algorithm, model, DPConfig(), noise_seed=14)
        trainer.fit(loader)
        final_tables[algorithm] = model.embeddings[0].table.data
        if not rows_for_table:
            rows_for_table = [
                batch.accessed_rows(0) for batch in loader
            ]
    accessed = np.unique(np.concatenate(rows_for_table))
    table_rows = []
    for algorithm, final in final_tables.items():
        outcome = audit_untouched_rows(
            reference.embeddings[0].table.data, final, accessed
        )
        table_rows.append([
            algorithm, outcome.flagged_untouched, outcome.precision,
            outcome.recall, "LEAKS" if outcome.leaks else "protected",
        ])
    print(format_table(
        ["algorithm", "rows flagged", "precision", "recall", "verdict"],
        table_rows,
        title="Untouched-row attack against the final model (table 0)",
    ))
    return 0


def _run_backends(args) -> int:
    """Print the execution backends — one row per backend with the
    plan axes it composes with, read off the plan's own validation —
    the lanes the release walk, large draws and the step's per-table
    loops spread over (one per usable CPU), and whether the
    compiled inner loops (noise draw, sparse apply, embedding
    scatter-add) or their numpy expressions run — and, compiled, on
    which instruction set."""
    from .kernels import lanes
    from .rng import native_status, vector_isa
    from .session.plan import BACKENDS

    # What each capability switches on, as a plan spec.
    probes = {
        "flat": "",
        "shards": "shards=2",
        "pipeline": "shards=2,pipeline=2",
        "async": "shards=2,async=strict",
        "workers": "shards=2",
    }
    table_rows = []
    for name, note in BACKENDS.items():
        capabilities = []
        for capability, spec in probes.items():
            backend = f"{name}:2" if capability == "workers" else name
            try:
                ExecutionPlan.from_spec(f"{spec},backend={backend}")
            except ValueError:
                continue
            capabilities.append(capability)
        table_rows.append([name, ",".join(capabilities), note])
    print(format_table(
        ["backend", "capabilities", "notes"],
        table_rows,
        title="Execution backends (ExecutionPlan backend=...)",
    ))
    print(f"\nlanes: {len(lanes.CPUS)} (cpus {','.join(map(str, lanes.CPUS))})")
    name, detail = native_status()
    if name == "native":
        print(f"compiled kernels: native ({vector_isa()}) {detail}")
    else:
        print(f"compiled kernels: numpy ({detail})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    _add_train_parser(subparsers)

    audit_parser = subparsers.add_parser(
        "audit", help="run the untouched-row attack on EANA vs LazyDP"
    )
    audit_parser.add_argument("--rows", type=int, default=4096)
    audit_parser.add_argument("--batch", type=int, default=128)
    audit_parser.add_argument("--iterations", type=int, default=6)

    subparsers.add_parser(
        "backends",
        help="list execution backends and their capabilities",
    )

    serve_parser = subparsers.add_parser(
        "serve", help="drive the private serving tier under skewed load"
    )
    serve_parser.add_argument("--rows", type=int, default=4096,
                              help="rows per embedding table")
    serve_parser.add_argument("--batch", type=int, default=128,
                              help="training batch size")
    serve_parser.add_argument("--iterations", type=int, default=4,
                              help="training iterations before serving")
    serve_parser.add_argument("--readers", type=int, default=4,
                              help="concurrent closed-loop clients")
    serve_parser.add_argument("--requests", type=int, default=500,
                              help="requests per reader")
    serve_parser.add_argument("--lookup-batch", type=int, default=8,
                              help="rows per serving request")
    serve_parser.add_argument("--skew",
                              choices=("random", "low", "medium", "high"),
                              default="medium",
                              help="fig13d traffic skew of the load")
    serve_parser.add_argument("--think-ms", type=float, default=0.5,
                              help="per-request client think time")
    serve_parser.add_argument("--cache", action="store_true",
                              help="front lookups with a skew-sized "
                                   "hot-row cache")
    serve_parser.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    handlers = {
        "train": _run_train,
        "audit": _run_audit,
        "serve": _run_serve,
        "backends": _run_backends,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
