"""Experiment drivers: one function per paper figure.

Each ``figure_*`` function returns a :class:`FigureResult` whose
``reproduced`` series is computed by the calibrated performance model at
the paper's full scale (96 MB - 192 GB models), aligned against the
paper-reported series from :mod:`repro.bench.paper_data`.  The functions
are consumed by the figure cases of ``benchmarks/run.py`` (which check
each figure's claims and also time *measured* numpy kernels) and by the
EXPERIMENTS.md generator (``python -m repro.bench.report``).

``measured_series`` runs the real numpy trainers at a scaled-down geometry
and reports the same normalised numbers from wall-clock measurements — the
shape (who wins, by what order) reproduces even though absolute numpy
times are not comparable to the paper's AVX-tuned C++.
"""

from __future__ import annotations

from dataclasses import dataclass, field


from .. import configs
from ..data import DataLoader, SkewSpec, SyntheticClickDataset, paper_skew_spec
from ..nn import DLRM
from ..perfmodel import (
    ALGORITHMS,
    iteration_breakdown,
    iteration_energy_joules,
    paper_system,
)
from ..perfmodel import memory as memmodel
from ..perfmodel import roofline
from ..train import (
    DPConfig,
    DPSGDBTrainer,
    DPSGDFTrainer,
    DPSGDRTrainer,
    EANATrainer,
    SGDTrainer,
)
from . import paper_data
from .reporting import comparison_table, geometric_mean

TRAINER_CLASSES = {
    "sgd": SGDTrainer,
    "dpsgd_b": DPSGDBTrainer,
    "dpsgd_r": DPSGDRTrainer,
    "dpsgd_f": DPSGDFTrainer,
    "eana": EANATrainer,
}


def make_trainer(algorithm: str, model: DLRM, dp: DPConfig,
                 noise_seed: int = 1234):
    """Instantiate any of the paper's seven algorithms by name.

    The five baselines are genuinely different algorithms; ``lazydp``
    and ``lazydp_no_ans`` are the serial plan with ``ans=on|off``.
    *How* LazyDP executes (shards, pipeline, async, backend) is not an
    algorithm — spell it as a :class:`repro.session.ExecutionPlan` and
    build with ``TrainSession.build(model, dp, plan)``.
    """
    if algorithm in ("lazydp", "lazydp_no_ans"):
        from ..session import ExecutionPlan, TrainSession

        plan = ExecutionPlan(ans=algorithm == "lazydp")
        return TrainSession.build(model, dp, plan, noise_seed=noise_seed).trainer
    if algorithm in TRAINER_CLASSES:
        return TRAINER_CLASSES[algorithm](model, dp, noise_seed=noise_seed)
    raise ValueError(f"unknown algorithm: {algorithm}")


@dataclass
class FigureResult:
    """Paper-vs-reproduced series for one figure."""

    figure: str
    labels: tuple
    paper: dict
    reproduced: dict
    label_name: str = "point"
    notes: str = ""
    extras: dict = field(default_factory=dict)

    def table(self) -> str:
        text = comparison_table(
            self.figure, self.labels, self.paper, self.reproduced,
            label_name=self.label_name,
        )
        if self.notes:
            text += f"\nnote: {self.notes}"
        return text

    def chart(self, width: int = 48) -> str:
        """ASCII bar rendering of the reproduced series (log scale)."""
        from .reporting import series_chart

        return series_chart(
            self.labels, self.reproduced, width=width, log_scale=True,
            title=self.figure,
        )


def _reference_seconds(hw=None) -> float:
    """The normalisation anchor every figure uses: SGD @ 2048, 96 GB."""
    config = configs.mlperf_dlrm()
    return iteration_breakdown("sgd", config, 2048, hw=hw).total


def _normalized(algorithm: str, config, batch: int, reference: float,
                hw=None, skew=None) -> float:
    breakdown = iteration_breakdown(
        algorithm, config, batch, hw=hw, skew=skew
    )
    if breakdown.oom:
        return float("inf")
    return breakdown.total / reference


# ---------------------------------------------------------------------------
# Characterisation figures (Section 4)
# ---------------------------------------------------------------------------

def figure3(hw=None) -> FigureResult:
    """DP-SGD(B/R/F) end-to-end time vs table size, normalised to SGD."""
    reference = _reference_seconds(hw)
    labels = tuple(f"{b/1e9:g}GB" if b >= 1e9 else f"{b/1e6:g}MB"
                   for b in paper_data.FIG3_TABLE_SIZES_BYTES)
    reproduced = {}
    for algorithm in ("dpsgd_b", "dpsgd_r", "dpsgd_f"):
        series = []
        for size in paper_data.FIG3_TABLE_SIZES_BYTES:
            config = configs.mlperf_dlrm(int(size))
            series.append(_normalized(algorithm, config, 2048, reference, hw))
        reproduced[algorithm] = tuple(series)
    return FigureResult(
        figure="Figure 3: training time vs table size (x SGD)",
        labels=labels,
        paper=paper_data.FIG3,
        reproduced=reproduced,
        label_name="table size",
        notes="96MB/960MB paper bars read off the figure; text pins "
              "F 1.5x faster than R at 96MB and <0.3% spread at 96GB.",
    )


def figure5(hw=None) -> FigureResult:
    """Model-update latency breakdown for DP-SGD(F) across table sizes."""
    labels = tuple(f"{b/1e9:g}GB" if b >= 1e9 else f"{b/1e6:g}MB"
                   for b in paper_data.FIG3_TABLE_SIZES_BYTES)
    share_series = []
    growth_series = []
    base_update = None
    for size in paper_data.FIG3_TABLE_SIZES_BYTES:
        config = configs.mlperf_dlrm(int(size))
        breakdown = iteration_breakdown("dpsgd_f", config, 2048, hw=hw)
        update_total = breakdown.model_update_total()
        noise_plus_update = (
            breakdown.stage("noise_sampling")
            + breakdown.stage("noisy_grad_update")
        )
        share_series.append(noise_plus_update / update_total)
        if base_update is None:
            base_update = update_total
        growth_series.append(update_total / base_update)
    paper = {
        "noise+update share": (None, None, None,
                               paper_data.FIG5_NOISE_PLUS_UPDATE_OF_MODEL_UPDATE),
        "model-update growth": (1.0, None, None,
                                paper_data.FIG5_MODEL_UPDATE_GROWTH_96GB_VS_96MB),
    }
    reproduced = {
        "noise+update share": tuple(share_series),
        "model-update growth": tuple(growth_series),
    }
    return FigureResult(
        figure="Figure 5: model-update breakdown (DP-SGD)",
        labels=labels,
        paper=paper,
        reproduced=reproduced,
        label_name="table size",
        notes="share = (noise sampling + noisy grad update) / model update; "
              "growth normalised to the 96MB model.",
    )


def figure6(hw=None) -> FigureResult:
    """AVX roofline microbenchmark: effective GFLOPS vs op count N."""
    hw = hw or paper_system()
    labels = ("N=2 (noisy update)", "N=101 (noise sampling)",
              "update BW fraction", "sampling peak fraction")
    update_gflops = roofline.noisy_update_throughput(hw)
    sampling_gflops = roofline.noise_sampling_throughput(hw)
    reproduced = {
        "roofline": (
            update_gflops,
            sampling_gflops,
            update_gflops * 1e9 * roofline.MICROBENCH_BYTES_PER_ELEMENT
            / paper_data.FIG6_NOISY_UPDATE_N / hw.cpu.dram_bandwidth,
            sampling_gflops / hw.cpu.avx_peak_gflops,
        ),
    }
    paper = {
        "roofline": (
            paper_data.FIG6_NOISY_UPDATE_N
            * paper_data.FIG6_NOISY_UPDATE_BW_FRACTION
            * hw.cpu.dram_bandwidth
            / roofline.MICROBENCH_BYTES_PER_ELEMENT / 1e9,
            paper_data.FIG6_NOISE_SAMPLING_GFLOPS,
            paper_data.FIG6_NOISY_UPDATE_BW_FRACTION,
            paper_data.FIG6_NOISE_SAMPLING_PEAK_FRACTION,
        ),
    }
    n_values, gflops = roofline.sweep(hw)
    return FigureResult(
        figure="Figure 6: effective AVX throughput roofline",
        labels=labels,
        paper=paper,
        reproduced=reproduced,
        label_name="operating point",
        extras={"sweep_n": n_values, "sweep_gflops": gflops},
        notes=f"ridge point at N={roofline.ridge_point(hw):.0f}; full sweep "
              "in extras.",
    )


# ---------------------------------------------------------------------------
# Evaluation figures (Section 7)
# ---------------------------------------------------------------------------

def figure10(hw=None) -> FigureResult:
    """End-to-end training time vs batch size (the headline figure)."""
    reference = _reference_seconds(hw)
    config = configs.mlperf_dlrm()
    reproduced = {}
    for algorithm in ("sgd", "lazydp", "lazydp_no_ans", "dpsgd_f"):
        reproduced[algorithm] = tuple(
            _normalized(algorithm, config, batch, reference, hw)
            for batch in paper_data.FIG10_BATCHES
        )
    speedups = [
        reproduced["dpsgd_f"][i] / reproduced["lazydp"][i]
        for i in range(len(paper_data.FIG10_BATCHES))
    ]
    return FigureResult(
        figure="Figure 10: end-to-end training time (x SGD@2048)",
        labels=paper_data.FIG10_BATCHES,
        paper=paper_data.FIG10,
        reproduced=reproduced,
        label_name="batch",
        extras={"lazydp_speedups": speedups,
                "avg_speedup": geometric_mean(speedups)},
        notes="LazyDP speedup over DP-SGD(F): "
              f"{min(speedups):.0f}-{max(speedups):.0f}x "
              "(paper: 85-155x, avg 119x).",
    )


def figure11(hw=None) -> FigureResult:
    """LazyDP's own latency breakdown and pure-overhead split."""
    config = configs.mlperf_dlrm()
    lazydp = iteration_breakdown("lazydp", config, 2048, hw=hw)
    dpsgd_f = iteration_breakdown("dpsgd_f", config, 2048, hw=hw)
    overhead = lazydp.lazydp_overhead_total()
    split = {
        stage: lazydp.stage(stage) / overhead
        for stage in paper_data.FIG11_OVERHEAD_SPLIT
    }
    noise_reduction = (
        dpsgd_f.stage("noise_sampling") / lazydp.stage("noise_sampling")
    )
    update_reduction = (
        dpsgd_f.stage("noisy_grad_update") / lazydp.stage("noisy_grad_update")
    )
    labels = ("overhead fraction", "dedup share", "history-read share",
              "history-update share", "noise reduction", "update reduction")
    paper = {
        "lazydp": (
            paper_data.FIG11_OVERHEAD_FRACTION,
            paper_data.FIG11_OVERHEAD_SPLIT["lazydp_dedup"],
            paper_data.FIG11_OVERHEAD_SPLIT["lazydp_history_read"],
            paper_data.FIG11_OVERHEAD_SPLIT["lazydp_history_update"],
            paper_data.FIG11_NOISE_SAMPLING_REDUCTION,
            paper_data.FIG11_NOISY_UPDATE_REDUCTION,
        ),
    }
    reproduced = {
        "lazydp": (
            overhead / lazydp.total,
            split["lazydp_dedup"],
            split["lazydp_history_read"],
            split["lazydp_history_update"],
            noise_reduction,
            update_reduction,
        ),
    }
    return FigureResult(
        figure="Figure 11: LazyDP latency breakdown",
        labels=labels,
        paper=paper,
        reproduced=reproduced,
        label_name="metric",
        extras={"stages": dict(lazydp.stages)},
    )


def figure12(hw=None) -> FigureResult:
    """Energy consumption, normalised to SGD @ 2048."""
    hw = hw or paper_system()
    config = configs.mlperf_dlrm()
    reference = iteration_energy_joules(
        iteration_breakdown("sgd", config, 2048, hw=hw), hw
    )
    reproduced = {}
    for algorithm in ("sgd", "lazydp", "dpsgd_f"):
        series = []
        for batch in paper_data.FIG10_BATCHES:
            breakdown = iteration_breakdown(algorithm, config, batch, hw=hw)
            series.append(iteration_energy_joules(breakdown, hw) / reference)
        reproduced[algorithm] = tuple(series)
    savings = [
        reproduced["dpsgd_f"][i] / reproduced["lazydp"][i]
        for i in range(len(paper_data.FIG10_BATCHES))
    ]
    return FigureResult(
        figure="Figure 12: energy consumption (x SGD@2048)",
        labels=paper_data.FIG10_BATCHES,
        paper=paper_data.FIG12,
        reproduced=reproduced,
        label_name="batch",
        extras={"avg_energy_saving": geometric_mean(savings)},
        notes=f"avg energy saving {geometric_mean(savings):.0f}x "
              "(paper: 155x).",
    )


def figure13a(hw=None) -> FigureResult:
    """Sensitivity to embedding-table size, incl. the 192 GB OOM."""
    reference = _reference_seconds(hw)
    labels = tuple(f"{int(b/1e9)}GB" for b in paper_data.FIG13A_SIZES_BYTES)
    reproduced = {}
    for algorithm in ("sgd", "lazydp", "dpsgd_f"):
        reproduced[algorithm] = tuple(
            _normalized(algorithm, configs.mlperf_dlrm(int(size)), 2048,
                        reference, hw)
            for size in paper_data.FIG13A_SIZES_BYTES
        )
    return FigureResult(
        figure="Figure 13a: table-size sensitivity (x SGD@2048)",
        labels=labels,
        paper=paper_data.FIG13A,
        reproduced=reproduced,
        label_name="table size",
    )


def figure13b(hw=None) -> FigureResult:
    """Sensitivity to the embedding pooling factor."""
    reference = _reference_seconds(hw)
    reproduced = {}
    for algorithm in ("sgd", "lazydp", "dpsgd_f"):
        series = []
        for pooling in paper_data.FIG13B_POOLING:
            config = configs.mlperf_dlrm(lookups_per_table=pooling)
            series.append(_normalized(algorithm, config, 2048, reference, hw))
        reproduced[algorithm] = tuple(series)
    return FigureResult(
        figure="Figure 13b: pooling-factor sensitivity (x SGD@2048)",
        labels=paper_data.FIG13B_POOLING,
        paper=paper_data.FIG13B,
        reproduced=reproduced,
        label_name="pooling",
    )


def figure13c(hw=None) -> FigureResult:
    """Alternative DLRM configurations RMC1-RMC3."""
    model_factories = {
        "rmc1": configs.rmc1, "rmc2": configs.rmc2, "rmc3": configs.rmc3,
    }
    reproduced = {"sgd": (), "lazydp": (), "dpsgd_f": ()}
    for name in paper_data.FIG13C_MODELS:
        config = model_factories[name]()
        own_sgd = iteration_breakdown("sgd", config, 2048, hw=hw).total
        for algorithm in reproduced:
            value = _normalized(algorithm, config, 2048, own_sgd, hw)
            reproduced[algorithm] = reproduced[algorithm] + (value,)
    return FigureResult(
        figure="Figure 13c: RMC model configs (x own SGD)",
        labels=paper_data.FIG13C_MODELS,
        paper=paper_data.FIG13C,
        reproduced=reproduced,
        label_name="model",
        notes="RMC hyper-parameters follow DeepRecSys shapes; exact sizes "
              "unstated in the paper (DESIGN.md deviations).",
    )


def figure13d(hw=None) -> FigureResult:
    """Sensitivity to embedding access skew (Criteo-style power law)."""
    reference = _reference_seconds(hw)
    config = configs.mlperf_dlrm()
    rows = config.table_rows[0]
    reproduced = {}
    for algorithm in ("sgd", "lazydp", "dpsgd_f"):
        series = []
        for level in paper_data.FIG13D_LEVELS:
            skew = None if level == "random" else paper_skew_spec(level, rows)
            series.append(
                _normalized(algorithm, config, 2048, reference, hw, skew=skew)
            )
        reproduced[algorithm] = tuple(series)
    return FigureResult(
        figure="Figure 13d: access-skew sensitivity (x SGD@2048)",
        labels=paper_data.FIG13D_LEVELS,
        paper=paper_data.FIG13D,
        reproduced=reproduced,
        label_name="skew",
        notes="skew levels calibrated so 90% of accesses hit 36%/10%/0.6% "
              "of rows, as in the paper.",
    )


def figure14(hw=None) -> FigureResult:
    """LazyDP vs EANA across batch sizes."""
    reference = _reference_seconds(hw)
    config = configs.mlperf_dlrm()
    reproduced = {}
    for algorithm in ("sgd", "eana", "lazydp", "dpsgd_f"):
        reproduced[algorithm] = tuple(
            _normalized(algorithm, config, batch, reference, hw)
            for batch in paper_data.FIG10_BATCHES
        )
    overheads = [
        reproduced["lazydp"][i] / reproduced["eana"][i]
        for i in range(len(paper_data.FIG10_BATCHES))
    ]
    return FigureResult(
        figure="Figure 14: LazyDP vs EANA (x SGD@2048)",
        labels=paper_data.FIG10_BATCHES,
        paper=paper_data.FIG14,
        reproduced=reproduced,
        label_name="batch",
        extras={"lazydp_over_eana": overheads},
        notes=f"LazyDP/EANA overhead {min(overheads):.2f}-"
              f"{max(overheads):.2f}x (paper: 1.27-1.37x).",
    )


def section72(batch: int = 2048) -> FigureResult:
    """LazyDP implementation overheads (input queue + HistoryTable)."""
    config = configs.mlperf_dlrm()
    queue_bytes = memmodel.input_queue_bytes(batch, config)
    history_bytes = memmodel.history_table_bytes(config)
    fraction = history_bytes / memmodel.table_bytes(config)
    labels = ("input queue bytes", "history table bytes", "history fraction")
    return FigureResult(
        figure="Section 7.2: LazyDP metadata overheads",
        labels=labels,
        paper={"overheads": (paper_data.SEC72_INPUT_QUEUE_BYTES,
                             paper_data.SEC72_HISTORY_TABLE_BYTES,
                             paper_data.SEC72_HISTORY_FRACTION_LIMIT)},
        reproduced={"overheads": (float(queue_bytes), float(history_bytes),
                                  fraction)},
        label_name="metric",
        notes="paper fraction entry is the stated '<1%' bound.",
    )


ALL_FIGURES = {
    "figure3": figure3,
    "figure5": figure5,
    "figure6": figure6,
    "figure10": figure10,
    "figure11": figure11,
    "figure12": figure12,
    "figure13a": figure13a,
    "figure13b": figure13b,
    "figure13c": figure13c,
    "figure13d": figure13d,
    "figure14": figure14,
    "section72": section72,
}


# ---------------------------------------------------------------------------
# Measured mode: run the real numpy trainers at a scaled-down geometry.
# ---------------------------------------------------------------------------

def measured_series(algorithms, config=None, batch: int = 256,
                    iterations: int = 4, seed: int = 11,
                    skew: SkewSpec | None = None,
                    dp: DPConfig | None = None) -> dict:
    """Wall-clock per-iteration seconds for each algorithm (numpy, scaled).

    Every algorithm trains the *same* initial model on the *same* trace.
    Returns ``{algorithm: seconds_per_iteration}``.
    """
    config = config or configs.small_dlrm(rows=20000)
    dp = dp or DPConfig()
    results = {}
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm: {algorithm}")
        model = DLRM(config, seed=seed)
        dataset = SyntheticClickDataset(config, seed=seed + 1, skew=skew)
        loader = DataLoader(dataset, batch_size=batch,
                            num_batches=iterations, seed=seed + 2)
        trainer = make_trainer(algorithm, model, dp, seed + 3)
        result = trainer.fit(loader)
        results[algorithm] = result.wall_time / max(result.iterations, 1)
    return results


def measured_stage_breakdown(algorithm: str, config=None, batch: int = 256,
                             iterations: int = 4, seed: int = 11,
                             dp: DPConfig | None = None) -> dict:
    """Per-stage wall-clock totals from the instrumented trainer."""
    config = config or configs.small_dlrm(rows=20000)
    dp = dp or DPConfig()
    model = DLRM(config, seed=seed)
    dataset = SyntheticClickDataset(config, seed=seed + 1)
    loader = DataLoader(dataset, batch_size=batch, num_batches=iterations,
                        seed=seed + 2)
    trainer = make_trainer(algorithm, model, dp, seed + 3)
    trainer.fit(loader)
    return trainer.timer.as_dict()
