"""The bench runner: ``python benchmarks/run.py [case ...] [--smoke]``.

Runs the named cases of the registry (``benchmarks/cases``; no names =
every case) at the smoke or the full tier and exits non-zero if any
case broke a hard check, raised, or regressed a pinned metric.  A case
only measures and checks; everything around it lives here, once:

* **Retry.**  A failure of a wall-clock property (``cases.Timing`` — a
  ratio of timings, a hidden fraction, a pinned floor) re-runs the case
  up to ``RETRIES`` times: a loaded runner produces one without a bug,
  a real regression fails every time.  Deterministic failures (bitwise
  divergence, a failed ledger audit, an exception) are never retried.
* **Reports.**  Tables are printed and persisted: model-mode tables are
  deterministic and tracked under ``benchmarks/reports/``; measured
  tables and the ``BENCH_<benchmark>.json`` artifacts carry wall-clock
  numbers and go to the git-ignored ``benchmarks/reports/out/`` — so a
  run leaves the work tree clean.
* **The gate.**  ``benchmarks/reports/baseline.json`` (committed) pins
  selected metrics; one regressing more than ``tolerance`` (default
  25%) in its pinned direction fails the case that emitted it.  Pinned
  metrics are deliberately *relative* (speedup ratios, hidden fractions
  measured against a reference in the same process), so the gate tracks
  engine regressions, not the speed of the machine.

``figure_table()`` renders the registry as the figure-to-case table of
``docs/reproducing.md`` (a test keeps the two in sync).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
# Run as a script, sys.path[0] is benchmarks/: make the `benchmarks`
# namespace package and an uninstalled `repro` importable.
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.cases import REGISTRY, Result, Timing  # noqa: E402

REPORTS_DIR = ROOT / "benchmarks" / "reports"
OUT_DIR = REPORTS_DIR / "out"
BASELINE_PATH = REPORTS_DIR / "baseline.json"
ARTIFACT_PREFIX = "BENCH_"
DEFAULT_TOLERANCE = 0.25
RETRIES = 2


def write_report(
    name: str,
    metrics: dict,
    meta: dict | None = None,
    directory: pathlib.Path | None = None,
) -> pathlib.Path:
    """Persist one benchmark's metrics as ``BENCH_<name>.json``.

    ``metrics`` must map metric names to numbers; ``meta`` (geometry,
    iteration counts, ...) rides along for humans and is never gated.
    """
    bad = {
        key: value
        for key, value in metrics.items()
        if not isinstance(value, (int, float)) or isinstance(value, bool)
    }
    if bad:
        raise TypeError(f"metrics must be numeric, got {bad!r}")
    payload = {
        "benchmark": name,
        "metrics": {key: float(value) for key, value in metrics.items()},
        "meta": dict(meta or {}),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    path = (directory or OUT_DIR) / f"{ARTIFACT_PREFIX}{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_baseline(path: pathlib.Path | None = None) -> dict:
    """The committed baseline: ``{"tolerance": ..., "metrics": {...}}``.

    Each baselined metric is ``"<benchmark>/<metric>": {"value": v,
    "direction": "higher"|"lower"}`` — ``higher`` means larger is
    better (throughput ratios), ``lower`` the opposite.
    """
    return json.loads((path or BASELINE_PATH).read_text(encoding="utf-8"))


def check_against_baseline(name: str, metrics: dict, baseline: dict) -> list:
    """Regression failures for one benchmark's metrics (empty == pass).

    Only metrics pinned in the baseline are gated; everything else is
    informational.  A pinned metric missing from ``metrics`` is itself
    a failure — a silently dropped measurement must not pass the gate —
    unless its spec names, as ``only_where``, another metric that the
    case did not report either: a gate on what one implementation
    measures (``gaussian_sincos_fallback_frac``, where the AVX-512 body
    ran: ``gaussian_mps_avx512``) applies only where it ran.
    """
    tolerance = float(baseline.get("tolerance", DEFAULT_TOLERANCE))
    failures = []
    prefix = f"{name}/"
    for key, spec in baseline.get("metrics", {}).items():
        if not key.startswith(prefix):
            continue
        metric = key.removeprefix(prefix)
        where = spec.get("only_where")
        if where is not None and where not in metrics:
            continue
        if metric not in metrics:
            failures.append(f"{key}: metric missing from report")
            continue
        current = float(metrics[metric])
        pinned = float(spec["value"])
        direction = spec.get("direction", "higher")
        if direction == "higher":
            floor = pinned * (1.0 - tolerance)
            if current < floor:
                failures.append(
                    f"{key}: {current:.4g} regressed below {floor:.4g} "
                    f"(baseline {pinned:.4g}, tolerance {tolerance:.0%})"
                )
        elif direction == "lower":
            ceiling = pinned * (1.0 + tolerance)
            if current > ceiling:
                failures.append(
                    f"{key}: {current:.4g} regressed above {ceiling:.4g} "
                    f"(baseline {pinned:.4g}, tolerance {tolerance:.0%})"
                )
        else:
            failures.append(f"{key}: unknown direction {direction!r}")
    return failures


def run_case(case, tier: str, baseline: dict) -> tuple:
    """Run one case under the retry policy; returns ``(result,
    failures)`` of the last attempt, the gate's verdicts included.

    A case that raises is a failed case, not a failed run: the error is
    reported and the remaining cases still run.
    """
    for attempt in range(1 + RETRIES):
        try:
            result = Result(*case.run(tier))
            failures = list(result.failures)
        except Exception as error:  # noqa: BLE001 - keep running the others
            traceback.print_exc()
            return Result([], {}, {}, []), [f"raised {error!r}"]
        for benchmark, metrics in result.metrics.items():
            regressions = check_against_baseline(benchmark, metrics, baseline)
            failures += map(Timing, regressions)
        if not failures or not all(isinstance(f, Timing) for f in failures):
            break
        if attempt < RETRIES:
            print(f"{case.name}: retrying after wall-clock failure(s): {failures}")
    return result, failures


def persist(case, tier: str, result: Result) -> None:
    """Print and write one case's tables and ``BENCH_*.json`` artifacts."""
    for table in result.tables:
        print(f"\n{table.text}")
        path = (OUT_DIR if table.measured else REPORTS_DIR) / f"{table.name}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(table.text + "\n", encoding="utf-8")
    meta = {"case": case.name, "tier": tier, **result.meta}
    for benchmark, metrics in result.metrics.items():
        print(f"wrote {write_report(benchmark, metrics, meta)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run bench cases and gate them against baseline.json.",
        epilog="cases: " + " ".join(REGISTRY),
    )
    parser.add_argument("cases", nargs="*", metavar="case", help="default: every case")
    parser.add_argument("--smoke", action="store_true", help="small fast tier for CI")
    args = parser.parse_args(argv)
    unknown = [name for name in args.cases if name not in REGISTRY]
    if unknown:
        parser.error(f"unknown case(s): {' '.join(unknown)}")
    tier = "smoke" if args.smoke else "full"
    baseline = load_baseline()
    pinned = {key.partition("/")[0] for key in baseline["metrics"]}

    owners: dict = {}
    failed: dict = {}
    for name in args.cases or REGISTRY:
        case = REGISTRY[name]
        print(f"\n=== {name} — {case.figure} [{tier}] ===")
        result, failures = run_case(case, tier, baseline)
        for benchmark in result.metrics:
            owner = owners.setdefault(benchmark, name)
            if owner != name:
                failures.append(f"BENCH_{benchmark}.json already written by {owner}")
        persist(case, tier, result)
        gated = sorted(pinned.intersection(result.metrics))
        if gated and not failures:
            print(f"regression gate: {', '.join(gated)} within tolerance")
        for failure in failures:
            print(f"FAILED {name}: {failure}", file=sys.stderr)
        if failures:
            failed[name] = failures
    total = len(args.cases or REGISTRY)
    print(f"\n{total - len(failed)} of {total} case(s) passed [{tier}]")
    if failed:
        print(f"failed: {' '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def figure_table() -> str:
    """The registry as ``docs/reproducing.md``'s figure-to-case table."""
    lines = [
        "| Case | Paper figure / section | What it shows |",
        "|---|---|---|",
    ]
    lines += [
        f"| `{case.name}` | {case.figure} | {case.shows} |"
        for case in REGISTRY.values()
    ]
    return "\n".join(lines)


if __name__ == "__main__":
    raise SystemExit(main())
