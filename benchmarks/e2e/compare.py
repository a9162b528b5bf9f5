"""Compare benchmark reports: ``python3 -m benchmarks.e2e.compare A.json B.json [...]``.

The first file is the base; every further file is compared against it.
A file is what ``python3 -m benchmarks.e2e --json`` writes (any number
of ``--repeat`` passes) or a single-workload ``--out`` report.  Per
(workload, metric): median and quartiles of each side, the relative
change of the median signed so that positive is *worse*, and a verdict
against the metric's bound from ``BENCHMARK.json``:

``unresolved``  either side's quartile spread is wider than the bound
``worse``       the median got worse by more than the bound
``better``      the median improved by more than the base's own spread
``unchanged``   everything else

Exit status 1 when any pair is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from . import probes


def load_values(path, section="end_to_end") -> dict:
    """``{(workload, metric): [value per run]}`` of one report file."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if "runs" in data:
        reports = [
            report for run in data["runs"] for report in run[section].values()
        ]
    else:
        wanted = section == "per_layer"
        reports = [data] if bool(data["trace"]) == wanted else []
    values: dict = {}
    for report in reports:
        for name, metric in report["metrics"].items():
            values.setdefault((report["workload"], name), []).append(
                metric["value"]
            )
    return values


def quartiles(values) -> tuple:
    """``(q1, median, q3)``; one sample has no spread."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base, other, better: str, bound: float | None) -> dict:
    """Compare two samples of one (workload, metric) pair."""
    base_q, other_q = quartiles(base), quartiles(other)
    base_median, other_median = base_q[1], other_q[1]
    change = (
        (other_median - base_median) / abs(base_median) if base_median else 0.0
    )
    worse_by = -change if better == "higher" else change
    base_spread, other_spread = spread(base), spread(other)
    if bound is None:
        word = "layer"
    elif max(base_spread, other_spread) > bound:
        word = "unresolved"
    elif worse_by > bound:
        word = "worse"
    elif worse_by < 0 and -worse_by > base_spread:
        word = "better"
    else:
        word = "unchanged"
    return {
        "base": base_q, "other": other_q, "n": (len(base), len(other)),
        "worse_by": worse_by, "spread": (base_spread, other_spread),
        "bound": bound, "verdict": word,
    }


def compare(base_path, other_path, section="end_to_end") -> dict:
    declared = {
        entry["name"]: entry for entry in probes.load_benchmark_spec()[section]
    }
    base, other = load_values(base_path, section), load_values(other_path, section)
    return {
        key: verdict(
            base[key], other[key], declared[key[1]]["better"],
            declared[key[1]].get("bound"),
        )
        for key in base
        if key in other and key[1] in declared
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e.compare")
    parser.add_argument("base")
    parser.add_argument("others", nargs="+")
    parser.add_argument("--layers", action="store_true",
                        help="compare the per-layer metrics (no bounds: "
                             "reported, never judged)")
    args = parser.parse_args(argv)
    section = "per_layer" if args.layers else "end_to_end"
    bad = 0
    for other in args.others:
        print(f"== {args.base} -> {other}")
        print(f"{'workload':26s} {'metric':30s} {'base median':>12s} "
              f"{'other median':>12s} {'worse by':>9s} {'spread':>15s} "
              f"{'bound':>6s}  verdict")
        for (workload, metric), row in compare(args.base, other, section).items():
            bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
            print(f"{workload:26s} {metric:30s} {row['base'][1]:12.5g} "
                  f"{row['other'][1]:12.5g} {row['worse_by']:+9.3f} "
                  f"{row['spread'][0]:7.3f}/{row['spread'][1]:<7.3f} "
                  f"{bound:>6s}  {row['verdict']} (n={row['n'][0]}/{row['n'][1]})")
            bad += row["verdict"] in ("worse", "unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
