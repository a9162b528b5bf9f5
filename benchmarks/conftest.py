"""Shared machinery for the figure benchmarks.

Each ``bench_figXX`` module does two things:

1. **Measured mode** — pytest-benchmark times real numpy training steps /
   kernels at a scaled-down geometry, demonstrating the paper's effects
   with live measurements.
2. **Model mode** — the calibrated performance model regenerates the
   figure's series at the paper's full scale; the paper-vs-reproduced
   table is printed (visible with ``pytest -s``) and persisted under
   ``benchmarks/reports/`` so results survive output capture.
"""

from __future__ import annotations

import pathlib

import pytest

from repro import configs
from repro.bench.experiments import make_trainer
from repro.data import DataLoader, SyntheticClickDataset
from repro.nn import DLRM
from repro.train import DPConfig

REPORTS_DIR = pathlib.Path(__file__).parent / "reports"


def emit_report(name: str, text: str) -> None:
    """Print a figure table and persist it under benchmarks/reports/."""
    print()
    print(text)
    REPORTS_DIR.mkdir(exist_ok=True)
    (REPORTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


class SteppableRun:
    """A pre-warmed trainer whose ``step`` can be benchmarked repeatedly.

    The model, dataset and lookahead batches are built outside the timed
    region; every ``step`` call advances the iteration counter so LazyDP's
    HistoryTable semantics stay valid across benchmark rounds.
    """

    def __init__(
        self,
        algorithm: str,
        config,
        batch: int = 128,
        seed: int = 21,
        dp: DPConfig | None = None,
        pool_batches: int = 8,
    ):
        self.model = DLRM(config, seed=seed)
        dataset = SyntheticClickDataset(config, seed=seed + 1)
        loader = DataLoader(
            dataset, batch_size=batch, num_batches=pool_batches, seed=seed + 2
        )
        self.batches = [loader.batch_for(i) for i in range(pool_batches)]
        self.trainer = make_trainer(
            algorithm, self.model, dp or DPConfig(), noise_seed=seed + 3
        )
        self.trainer.expected_batch_size = batch
        self.iteration = 0

    def step(self) -> float:
        current = self.batches[self.iteration % len(self.batches)]
        upcoming = self.batches[(self.iteration + 1) % len(self.batches)]
        self.iteration += 1
        return self.trainer.train_step(self.iteration, current, upcoming)


@pytest.fixture
def bench_config():
    """Default scaled geometry for measured-mode benchmarks."""
    return configs.small_dlrm(rows=20000)


@pytest.fixture
def tiny_bench_config():
    return configs.small_dlrm(rows=4000)
