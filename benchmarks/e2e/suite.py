"""Orchestration: one workload in-process, or all five as child processes.

Kept apart from ``__main__`` so importing it has no side effects (the
entry point pins BLAS threads in the environment before numpy loads).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile

from . import probes

OUT_DIR = probes.REPO_ROOT / "benchmarks" / "e2e" / "out"


def print_report(report: dict) -> None:
    kind = "per-layer (traced)" if report["trace"] else "end-to-end"
    print(f"== {report['workload']} seed={report['seed']} {kind}: "
          f"{report['samples']['steps']} steps, "
          f"{report['samples']['lookups']} lookups, "
          f"{report['samples']['cycles']} set-up(s)")
    for name, metric in report["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    for check in report["checks"]:
        status = "ok" if check["ok"] else "FAILED"
        print(f"  check {check['name']:28s} {status} {check['detail']}")
    print(f"  ops_failed_frac {report['ops_failed_frac']:.6g} "
          f"({report['failed']}/{report['attempted']})  digest "
          f"{report['digest'][:16]}")


def run_one(args, seconds) -> int:
    from . import harness

    report = harness.run_workload(
        args.workload, args.seed, seconds, bool(args.trace), tiny=args.tiny,
        full_checks=args.full_checks, spans_path=args.spans,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    print_report(report)
    print(harness.result_line(report))
    return 0 if report["correct"] else 1


def _child(workload, seed, seconds, trace, args, spans):
    """One workload in its own process: peak RSS, the kernel table and
    forked workers never leak from one workload into the next."""
    with tempfile.NamedTemporaryFile(
        suffix=".json", dir=OUT_DIR, delete=False
    ) as handle:
        path = handle.name
    command = [
        sys.executable, "-m", "benchmarks.e2e", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--full-checks", "--out", path,
    ]
    if args.tiny:
        command.append("--tiny")
    if spans is not None:
        command += ["--spans", str(spans)]
    try:
        # Its own process group, so that a timeout (or this process
        # being told to stop) takes the child's shard workers with it.
        child = subprocess.Popen(
            command, cwd=probes.REPO_ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            _, stderr = child.communicate(timeout=600)
        except BaseException:
            child.terminate()  # it unwinds: workers joined, segments unlinked
            try:
                child.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                child.communicate()
            raise
        if child.returncode not in (0, 1):
            raise RuntimeError(
                f"{workload} (seed {seed}) crashed:\n{stderr[-4000:]}"
            )
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    finally:
        try:
            os.unlink(path)
        except OSError:
            pass


def run_all(args, seconds, child=None) -> int:
    from . import harness
    from .workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    runs = []
    attempted = failed = 0
    for repeat in range(args.repeat):
        seed = args.seed + repeat
        run = {"seed": seed, "end_to_end": {}, "per_layer": {}}
        for trace in ((0, 1) if args.trace else (0,)):
            key = "per_layer" if trace else "end_to_end"
            for workload in WORKLOADS:
                spans = (
                    OUT_DIR / f"spans-{workload.name}-seed{seed}.json"
                    if trace else None
                )
                report = (child or _child)(
                    workload.name, seed, seconds, trace, args, spans
                )
                print_report(report)
                run[key][workload.name] = report
                attempted += report["attempted"]
                failed += report["failed"]
            check = harness.check_digests(run[key])
            attempted += 1
            failed += 0 if check["ok"] else 1
            run.setdefault("checks", []).append(check)
            print(f"check {check['name']} "
                  f"{'ok' if check['ok'] else 'FAILED'}: {check['detail']}")
        runs.append(run)
    summary = {
        "runs": runs,
        "attempted": attempted,
        "failed": failed,
        "ops_failed_frac": failed / max(attempted, 1),
    }
    path = args.json or OUT_DIR / f"e2e-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
    print(f"ops_failed_frac {summary['ops_failed_frac']:.6g} "
          f"({failed}/{attempted}); report written to {path}")
    return 0 if failed == 0 else 1
