"""The bench case registry and what every case shares.

A *case* is a plain function ``tier -> Result`` registered with
:func:`case` under a name, the paper figure/section it answers to and
one line on what it shows.  ``tier`` is ``"smoke"`` (CI: small
geometry, few rounds) or ``"full"``.  A case measures, checks and
returns; it never parses arguments, prints, writes files or reads the
baseline — ``benchmarks/run.py`` owns all of that, plus the retry of
wall-clock failures.

Importing this package registers every case (the three case modules
are imported at the bottom); importing runs nothing.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple

from repro.data import DataLoader, SyntheticClickDataset
from repro.nn import DLRM
from repro.session import ExecutionPlan, TrainSession
from repro.train import DPConfig

class Table(NamedTuple):
    """One rendered report.  Model-mode tables are deterministic and
    committed under ``benchmarks/reports/``; ``measured`` tables carry
    wall-clock numbers and go to the git-ignored ``reports/out/``."""

    name: str
    text: str
    measured: bool = False


class Result(NamedTuple):
    """What a case hands the runner.

    ``metrics`` maps a benchmark name to ``{metric: number}`` — one
    ``BENCH_<benchmark>.json`` each, gated as ``<benchmark>/<metric>``
    against ``baseline.json``.  ``failures`` are the case's broken
    hard checks (empty == pass).
    """

    tables: list
    metrics: dict
    meta: dict
    failures: list


class Case(NamedTuple):
    name: str
    figure: str
    shows: str
    run: Callable


REGISTRY: dict = {}


def case(name: str, *, figure: str, shows: str):
    """Register ``run(tier) -> Result`` as the bench case ``name``."""

    def register(run):
        if name in REGISTRY:
            raise ValueError(f"duplicate bench case: {name}")
        REGISTRY[name] = Case(name, figure, shows, run)
        return run

    return register


class Timing(str):
    """A failed check on a wall-clock property (a ratio of timings, a
    hidden fraction).  A loaded runner can produce one without a bug, so
    the runner re-runs the case before believing it; a real regression
    fails every time.  Plain ``str`` failures are deterministic
    (bitwise divergence, a failed audit) and are never retried."""


class Checks(list):
    """A case's failure list, filled by its checks."""

    def require(self, ok, message: str) -> None:
        if not ok:
            self.append(message)

    def timing(self, ok, message: str) -> None:
        if not ok:
            self.append(Timing(message))


def best_of(repeats: int, fn) -> float:
    """Minimum wall seconds of ``fn()`` over ``repeats`` runs — the
    noise-robust estimate every timed comparison here uses."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def train(config, plan=None, *, batch=64, iterations=6, seed=11):
    """One timed ``fit`` of ``plan`` (default: the serial plan) from a
    fixed initial state; returns ``(session, result)`` — the wall time
    is ``result.wall_time``.

    Every call with the same seed sees the same model init, trace and
    noise stream, so two plans' released parameters are comparable
    bitwise.  Building (worker threads, worker processes) stays outside
    the timed region.  The session is returned open — stats, audits and
    serving need the live trainer — and the caller closes it.
    """
    model = DLRM(config, seed=seed)
    dataset = SyntheticClickDataset(config, seed=seed + 1)
    loader = DataLoader(
        dataset, batch_size=batch, num_batches=iterations, seed=seed + 2
    )
    session = TrainSession.build(
        model, DPConfig(), plan or ExecutionPlan(), noise_seed=seed + 3
    )
    return session, session.fit(loader)


from . import figures, kernels, engine  # noqa: E402,F401  (registration)
