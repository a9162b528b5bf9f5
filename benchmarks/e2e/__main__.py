"""Command line of the end-to-end benchmark.

One workload (the driver's contract; last stdout line is the result)::

    python3 -m benchmarks.e2e --workload serial_uniform --seed 0 \
        --seconds 8 --trace 0

All five, with the cross-workload digest check and one JSON report::

    python3 -m benchmarks.e2e --seed 0 [--trace] [--repeat N] [--tiny]
"""

from __future__ import annotations

import argparse
import signal
import sys

from . import probes

# Before anything imports numpy: BLAS pools are sized at load time.
probes.pin_threads()
_SRC = str(probes.REPO_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def _parse(argv):
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e")
    parser.add_argument("--workload", help="run this one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="2 000-row geometry, 12 steps (tests)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="all-workloads mode: passes, seeds seed..seed+N-1")
    parser.add_argument("--full-checks", action="store_true",
                        help="serve_zipf_live: also compare the whole export "
                             "against export_private_model() (~7 s)")
    parser.add_argument("--out", help="single workload: write the full report here")
    parser.add_argument("--spans", help="single workload, traced: span file")
    parser.add_argument("--json", help="all-workloads mode: report path")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    from . import suite

    args = _parse(sys.argv[1:] if argv is None else argv)
    seconds = args.seconds
    if seconds is None:
        seconds = float(probes.load_benchmark_spec()["run_seconds"])
    if args.workload:
        return suite.run_one(args, seconds)
    return suite.run_all(args, seconds)


def _sigterm(signum, frame):
    # Unwind through the ``finally`` blocks (``session.close()``, the
    # reader join, ``reap_children``) instead of dying with workers up.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _sigterm)
    try:
        status = main()
    finally:
        # The driver's contract: no process this run started outlives it.
        probes.reap_children()
    sys.exit(status)
