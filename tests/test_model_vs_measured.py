"""Cross-validation: the performance model vs. real measured trainers.

The reproduction stands on two legs — the calibrated model (paper scale)
and the measured numpy trainers (scaled geometry).  These tests check the
legs agree with *each other* on every trend the figures rely on, using
the same scaled geometries for both, so neither mode can drift into
telling its own story.

Absolute times are incomparable (numpy vs modelled AVX), so every
assertion is about ratios and orderings computed within each mode.
"""

import time

import numpy as np
import pytest

from repro import configs
from repro.data import DataLoader, SyntheticClickDataset
from repro.nn import DLRM
from repro.perfmodel import iteration_breakdown, paper_system
from repro.session import make_trainer
from repro.train import DPConfig


class StepClock:
    """A warmed-up trainer; each call times its next training step."""

    def __init__(self, algorithm, config, batch, steps, seed=9):
        model = DLRM(config, seed=seed)
        dataset = SyntheticClickDataset(config, seed=seed + 1)
        loader = DataLoader(dataset, batch_size=batch, num_batches=steps + 2,
                            seed=seed + 2)
        self.trainer = make_trainer(algorithm, model, DPConfig(),
                                    noise_seed=seed + 3)
        self.trainer.expected_batch_size = batch
        self.batches = [loader.batch_for(i) for i in range(steps + 2)]
        self.iteration = 1
        self()  # warm-up

    def __call__(self):
        i = self.iteration
        self.iteration += 1
        start = time.perf_counter()
        self.trainer.train_step(i, self.batches[i - 1], self.batches[i])
        return time.perf_counter() - start


def measured_step_seconds(algorithm, config, batch=128, repeats=3, seed=9):
    """Median wall-clock of one warmed-up training step."""
    clock = StepClock(algorithm, config, batch, repeats, seed)
    return float(np.median([clock() for _ in range(repeats)]))


def interleaved_best_step_seconds(algorithms, config, batch=128, rounds=7):
    """Per algorithm, the fastest of ``rounds`` warmed-up steps (the
    ``best_of`` estimator of ``benchmarks/cases``), the algorithms
    taking turns within each round so a slow phase of a shared host
    hits all of them alike instead of whichever was being timed."""
    clocks = {a: StepClock(a, config, batch, rounds) for a in algorithms}
    samples = [{a: clock() for a, clock in clocks.items()} for _ in range(rounds)]
    return {a: min(sample[a] for sample in samples) for a in algorithms}


def modelled_step_seconds(algorithm, config, batch=128):
    return iteration_breakdown(
        algorithm, config, batch, hw=paper_system()
    ).total


@pytest.fixture(scope="module")
def geometries():
    return {
        "small": configs.small_dlrm(rows=5000, name="xval-small"),
        "large": configs.small_dlrm(rows=20000, name="xval-large"),
    }


class TestTableSizeTrend:
    """Figure 13(a)'s load-bearing trend, agreed on by both modes.

    Each mode is probed where its table-dependent terms dominate its
    fixed costs: numpy at 5 k-20 k rows (numpy per-element cost is high
    relative to its dispatch overhead), the model at 24-96 GB (the
    paper's calibrated fixed costs are tuned to that system).  The
    *trend* — DP-SGD grows ~linearly with 4x the capacity, LazyDP stays
    flat — must appear in both.
    """

    def test_dpsgd_scales_in_both_modes(self, geometries):
        measured_ratio = (
            measured_step_seconds("dpsgd_f", geometries["large"])
            / measured_step_seconds("dpsgd_f", geometries["small"])
        )
        modelled_ratio = (
            modelled_step_seconds("dpsgd_f", configs.mlperf_dlrm(96e9), 2048)
            / modelled_step_seconds("dpsgd_f", configs.mlperf_dlrm(24e9),
                                    2048)
        )
        # 4x the capacity: both modes must show substantial (>1.7x) growth.
        assert measured_ratio > 1.7
        assert modelled_ratio > 1.7

    def test_lazydp_flat_in_both_modes(self, geometries):
        measured_ratio = (
            measured_step_seconds("lazydp", geometries["large"])
            / measured_step_seconds("lazydp", geometries["small"])
        )
        modelled_ratio = (
            modelled_step_seconds("lazydp", configs.mlperf_dlrm(96e9), 2048)
            / modelled_step_seconds("lazydp", configs.mlperf_dlrm(24e9),
                                    2048)
        )
        assert measured_ratio < 1.8   # timer noise headroom
        assert modelled_ratio < 1.1


class TestAlgorithmOrdering:
    """Figure 10/14's ordering must hold per mode at the same geometry."""

    @pytest.fixture(scope="class")
    def step_times(self, geometries):
        algorithms = ("sgd", "eana", "lazydp", "dpsgd_f")
        # Measured at numpy's natural scale, modelled at the paper's.
        return (
            interleaved_best_step_seconds(algorithms, geometries["large"]),
            {a: modelled_step_seconds(a, configs.mlperf_dlrm(96e9), 2048)
             for a in algorithms},
        )

    def test_lazydp_beats_dpsgd_in_both(self, step_times):
        measured, modelled = step_times
        assert measured["dpsgd_f"] > 2.5 * measured["lazydp"]
        assert modelled["dpsgd_f"] > 2.5 * modelled["lazydp"]

    def test_sgd_fastest_in_both(self, step_times):
        measured, modelled = step_times
        for table in (measured, modelled):
            assert table["sgd"] == min(table.values())

    def test_eana_not_slower_than_lazydp_in_both(self, step_times):
        measured, modelled = step_times
        # Interleaved best-of-7, eana / lazydp measures 0.87-0.98 over
        # six runs on a loaded 2-vCPU host (0.86-1.08 before the blocked
        # noise kernel sped both algorithms' draws); 1.15 keeps headroom.
        assert measured["eana"] <= measured["lazydp"] * 1.15
        assert modelled["eana"] <= modelled["lazydp"] * 1.15


class TestNoiseVolumeAgreement:
    """The model's central quantity — Gaussian draws per iteration — must
    match what the trainers actually draw."""

    def test_eager_draw_count(self, geometries):
        config = geometries["small"]
        model = DLRM(config, seed=1)
        dataset = SyntheticClickDataset(config, seed=2)
        loader = DataLoader(dataset, batch_size=64, num_batches=1, seed=3)
        trainer = make_trainer("dpsgd_f", model, DPConfig(), noise_seed=4)
        trainer.fit(loader)
        # Eager: every table element gets one draw per iteration; the
        # model charges exactly config.total_embedding_params draws.
        # (The trainers don't count draws directly; sanity-check via the
        # tables: every row moved.)
        reference = DLRM(config, seed=1)
        for t, bag in enumerate(model.embeddings):
            moved = ~np.all(
                bag.table.data == reference.embeddings[t].table.data, axis=1
            )
            assert moved.all()

    def test_lazydp_draw_count_matches_unique_rows(self, geometries):
        config = geometries["small"]
        model = DLRM(config, seed=1)
        dataset = SyntheticClickDataset(config, seed=2)
        iterations = 4
        loader = DataLoader(dataset, batch_size=64,
                            num_batches=iterations, seed=3)
        trainer = make_trainer("lazydp", model, DPConfig(), noise_seed=4)
        trainer.fit(loader)
        drawn = trainer.engine.samples_drawn / config.embedding_dim
        # Conservation: catch-ups + flush touch each (row, lifetime) once;
        # per-iteration catch-up count equals next-batch unique rows, and
        # the flush covers the rest -> total rows touched equals
        # (sum over iterations of unique next rows) + pending at flush.
        # Upper bound: unique-per-iter * (iters-1) + total rows.
        unique_per_iter = sum(
            len(np.unique(loader.batch_for(i).sparse[:, t, :]))
            for i in range(1, iterations)
            for t in range(config.num_tables)
        )
        total_rows = config.total_embedding_rows
        assert drawn == unique_per_iter + total_rows

    def test_modelled_lazydp_noise_share_matches_measured_order(self,
                                                                geometries):
        """Noise work relative to eager: both modes agree it collapses."""
        config = geometries["large"]
        modelled_lazy = iteration_breakdown("lazydp", config, 128)
        modelled_eager = iteration_breakdown("dpsgd_f", config, 128)
        model_reduction = (
            modelled_eager.stage("noise_sampling")
            / modelled_lazy.stage("noise_sampling")
        )
        # Measured: time the two noise paths directly.
        from repro.rng import NoiseStream
        stream = NoiseStream(0)
        rows_all = np.arange(config.table_rows[0], dtype=np.int64)
        rows_batch = np.arange(128, dtype=np.int64)
        start = time.perf_counter()
        stream.row_noise(0, rows_all, 1, config.embedding_dim)
        eager_s = time.perf_counter() - start
        start = time.perf_counter()
        stream.aggregated_row_noise(
            0, rows_batch, np.full(128, 3), 1, config.embedding_dim
        )
        lazy_s = time.perf_counter() - start
        measured_reduction = eager_s / lazy_s
        assert model_reduction > 10
        assert measured_reduction > 10
