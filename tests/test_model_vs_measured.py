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
from repro.rng import NoiseStream
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


def interleaved_best(clocks, rounds=7):
    """Per clock, the fastest of ``rounds`` warmed-up steps (the
    ``best_of`` estimator of ``benchmarks/cases``), the clocks taking
    turns within each round so a slow phase of a shared host hits all
    of them alike instead of whichever was being timed."""
    samples = [{k: clock() for k, clock in clocks.items()} for _ in range(rounds)]
    return {k: min(sample[k] for sample in samples) for k in clocks}


def interleaved_best_step_seconds(algorithms, config, batch=128, rounds=7):
    """Per algorithm, its :func:`interleaved_best` step at ``config``."""
    return interleaved_best(
        {a: StepClock(a, config, batch, rounds) for a in algorithms}, rounds
    )


def measured_growth(algorithm, geometries, batch=128, rounds=7):
    """Best large-geometry step over best small-geometry step, the two
    taking turns (:func:`interleaved_best`)."""
    best = interleaved_best(
        {size: StepClock(algorithm, geometries[size], batch, rounds)
         for size in ("small", "large")},
        rounds,
    )
    return best["large"] / best["small"]


def gaussians_per_step(algorithm, config, monkeypatch, batch=128, steps=3):
    """Per warmed-up training step, the Gaussians drawn, counted where
    every draw lands (``NoiseStream._keyed_gaussians``): the work whose
    growth the wall-clock trends stand for, fixed by the seeds."""
    keyed = NoiseStream._keyed_gaussians
    drawn = [0]

    def counting(key, rows, iteration, scale, out):
        drawn[0] += out.size
        return keyed(key, rows, iteration, scale, out)

    with monkeypatch.context() as patch:
        patch.setattr(NoiseStream, "_keyed_gaussians", staticmethod(counting))
        clock = StepClock(algorithm, config, batch, steps)
        counts = []
        for _ in range(steps):
            before = drawn[0]
            clock()
            counts.append(drawn[0] - before)
    return float(np.median(counts))


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
        measured_ratio = measured_growth("dpsgd_f", geometries)
        modelled_ratio = (
            modelled_step_seconds("dpsgd_f", configs.mlperf_dlrm(96e9), 2048)
            / modelled_step_seconds("dpsgd_f", configs.mlperf_dlrm(24e9),
                                    2048)
        )
        # 4x the capacity: both modes must show substantial (>1.7x) growth.
        assert measured_ratio > 1.7
        assert modelled_ratio > 1.7

    def test_draws_per_step_scale_for_dpsgd_and_stay_flat_for_lazydp(
        self, geometries, monkeypatch
    ):
        """The deterministic witness beside the two timed trends: eager
        DP-SGD draws every row each step (4x the rows, ~4x the
        Gaussians), LazyDP only the next batch's rows."""

        def ratio(algorithm):
            return (
                gaussians_per_step(algorithm, geometries["large"], monkeypatch)
                / gaussians_per_step(algorithm, geometries["small"], monkeypatch)
            )

        assert ratio("dpsgd_f") > 1.7
        assert ratio("lazydp") < 1.1

    def test_lazydp_flat_in_both_modes(self, geometries):
        measured_ratio = measured_growth("lazydp", geometries)
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

    def test_sgd_draws_nothing(self, geometries, monkeypatch):
        """The deterministic witness beside the timed ordering: SGD
        draws no Gaussian in a step, and every private algorithm draws
        some — the noise the private steps pay for and SGD does not."""
        draws = {
            algorithm: gaussians_per_step(
                algorithm, geometries["large"], monkeypatch
            )
            for algorithm in (
                "sgd", "eana", "lazydp", "lazydp_no_ans",
                "dpsgd_b", "dpsgd_r", "dpsgd_f",
            )
        }
        assert draws.pop("sgd") == 0
        assert all(count > 0 for count in draws.values()), draws

    def test_eana_not_slower_than_lazydp_in_both(self, step_times):
        measured, modelled = step_times
        # Interleaved best-of-7, eana / lazydp measures 0.87-0.98 over
        # six runs on a loaded 2-vCPU host (0.86-1.08 before the blocked
        # noise kernel sped both algorithms' draws); 1.15 keeps headroom.
        assert measured["eana"] <= measured["lazydp"] * 1.15
        assert modelled["eana"] <= modelled["lazydp"] * 1.15

    def test_eana_draws_no_more_than_lazydp(self, geometries, monkeypatch):
        """The deterministic witness beside the timed ordering: per step
        EANA draws for the batch's rows, LazyDP for the next batch's —
        about the same count, far below eager DP-SGD's every row."""
        draws = {
            algorithm: gaussians_per_step(
                algorithm, geometries["large"], monkeypatch
            )
            for algorithm in ("eana", "lazydp", "dpsgd_f")
        }
        assert draws["eana"] <= draws["lazydp"] * 1.15
        assert draws["dpsgd_f"] > 2.5 * draws["lazydp"]


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
        # Measured: time the two noise paths directly, each the fastest
        # of several warmed-up draws taken in turns (the estimator of
        # :func:`interleaved_best`), so one preemption of the
        # sub-millisecond lazy draw on a shared host cannot decide it.
        stream = NoiseStream(0)
        rows_all = np.arange(config.table_rows[0], dtype=np.int64)
        rows_batch = np.arange(128, dtype=np.int64)
        delays = np.full(128, 3)
        draws = {
            "eager": lambda: stream.row_noise(
                0, rows_all, 1, config.embedding_dim),
            "lazy": lambda: stream.aggregated_row_noise(
                0, rows_batch, delays, 1, config.embedding_dim),
        }

        def clock(draw):
            def timed():
                start = time.perf_counter()
                draw()
                return time.perf_counter() - start
            timed()  # warm-up
            return timed

        best = interleaved_best({k: clock(d) for k, d in draws.items()})
        measured_reduction = best["eager"] / best["lazy"]
        assert model_reduction > 10
        assert measured_reduction > 10
