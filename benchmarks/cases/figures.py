"""Figure, section and ablation cases: the paper's evaluation.

Each paper figure runs in two modes.  **Model mode** regenerates the
figure's series at the paper's full scale from the calibrated
performance model (``repro.bench.ALL_FIGURES``) and checks the claims
the paper's text makes about it; those tables are deterministic and
committed.  **Measured mode** times real numpy trainers and kernels at
a scaled-down geometry — the *shape* of each result (who wins, by what
order) reproduces even though absolute numpy times are not comparable
to the paper's AVX-tuned C++ — and checks that shape.

``FIGURES`` is the table the figure cases are generated from: one row
per ``ALL_FIGURES`` driver, naming its model-mode checks and (where the
effect is measurable on a laptop) its measured-mode function.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np

from repro import configs
from repro.bench import ALL_FIGURES, make_trainer, measured_stage_breakdown
from repro.bench.reporting import format_table
from repro.data import DataLoader, SyntheticClickDataset, paper_skew_spec
from repro.lazydp import ANSEngine, HistoryTable
from repro.lazydp.history import NaiveCounterHistory
from repro.nn import DLRM
from repro.perfmodel import (
    average_power_watts,
    fits_when_sharded,
    iteration_breakdown,
    min_shards_to_fit,
    paper_system,
    per_shard_table_bytes,
    sharded_update_breakdown,
)
from repro.perfmodel.scaling import (
    break_even_model_bytes,
    oom_capacity_bytes,
    project_scaling,
)
from repro.perfmodel.sensitivity import conclusions_hold, sensitivity_sweep
from repro.rng import NoiseStream
from repro.train import LAZYDP_OVERHEAD_STAGES, DPConfig

from . import Checks, Result, Table, best_of, case

# ---------------------------------------------------------------------------
# The shared measured-step helper.
# ---------------------------------------------------------------------------


class SteppableRun:
    """A pre-built trainer whose ``step`` can be timed repeatedly.

    The model, dataset and lookahead batches are built outside the timed
    region; every ``step`` advances the iteration counter so LazyDP's
    HistoryTable semantics stay valid across rounds.
    """

    def __init__(self, algorithm, config, batch=128, skew=None, seed=21):
        model = DLRM(config, seed=seed)
        dataset = SyntheticClickDataset(config, seed=seed + 1, skew=skew)
        loader = DataLoader(dataset, batch_size=batch, num_batches=8, seed=seed + 2)
        self.batches = [loader.batch_for(i) for i in range(8)]
        self.trainer = make_trainer(algorithm, model, DPConfig(), noise_seed=seed + 3)
        self.trainer.expected_batch_size = batch
        self.iteration = 0
        self.seconds = float("nan")

    def step(self) -> float:
        current = self.batches[self.iteration % 8]
        upcoming = self.batches[(self.iteration + 1) % 8]
        self.iteration += 1
        return self.trainer.train_step(self.iteration, current, upcoming)


def rounds(tier: str) -> int:
    return 2 if tier == "smoke" else 5


def measure_steps(tier: str, rows) -> dict:
    """Time one training step per row ``(label, algorithm, config[,
    batch[, skew]])``: one warm step, then the best of the tier's
    rounds.  Returns ``{label: run}`` with ``run.seconds`` set (and
    ``run.trainer.timer`` holding the same number of steps for every
    row, so stage totals are comparable across rows)."""
    runs = {}
    for label, *build in rows:
        run = SteppableRun(*build)
        run.step()
        run.seconds = best_of(rounds(tier), run.step)
        runs[label] = run
    return runs


def measured_table(name: str, header: list, rows: list, title: str) -> Table:
    return Table(name, format_table(header, rows, title=title), measured=True)


def steps_table(name: str, title: str, runs: dict, baseline: str = "") -> Table:
    """The measured-mode report of :func:`measure_steps`; ``baseline``
    adds each row's speedup against that row."""
    header = ["run", "ms/step (numpy)"] + ([f"{baseline} / run"] if baseline else [])
    rows = [
        [label, run.seconds * 1e3]
        + ([runs[baseline].seconds / run.seconds] if baseline else [])
        for label, run in runs.items()
    ]
    return measured_table(name, header, rows, title)


def slower(checks: Checks, runs: dict, slow: str, fast: str, factor: float, why: str):
    """Check ``runs[slow]`` takes more than ``factor`` x ``runs[fast]``."""
    ratio = runs[slow].seconds / runs[fast].seconds
    checks.timing(
        ratio > factor, f"{why}: {slow} / {fast} = {ratio:.2f}x, need > {factor}x"
    )


def bench_config():
    """Default scaled geometry for measured mode."""
    return configs.small_dlrm(rows=20000)


def tiny_config():
    """For DP-SGD(B/R), which materialise per-example dense gradients."""
    return configs.small_dlrm(rows=4000)


# ---------------------------------------------------------------------------
# Per-figure model-mode checks (the paper's text) and measured modes.
# A model function may return further model-mode tables.
# ---------------------------------------------------------------------------


def fig03_model(result, checks):
    b96mb, r96mb, f96mb = (
        result.reproduced[a][0] for a in ("dpsgd_b", "dpsgd_r", "dpsgd_f")
    )
    checks.require(b96mb > r96mb > f96mb, "Fig. 3: B > R > F at 96 MB")
    spread = result.reproduced["dpsgd_b"][-1] / result.reproduced["dpsgd_f"][-1]
    checks.require(spread < 1.05, f"Fig. 3: B/F spread at 96 GB is {spread:.3f}")


def fig03_measured(tier, checks):
    # The dense noisy update already dominates at this scale; 4x the
    # rows must cost well over 2x the model-update time.
    runs = measure_steps(
        tier,
        [
            ("sgd", "sgd", bench_config()),
            ("dpsgd_b", "dpsgd_b", tiny_config(), 64),
            ("dpsgd_r", "dpsgd_r", tiny_config(), 64),
            ("dpsgd_f", "dpsgd_f", tiny_config(), 64),
            ("dpsgd_f 5k rows", "dpsgd_f", configs.small_dlrm(rows=5000), 64),
            ("dpsgd_f 20k rows", "dpsgd_f", configs.small_dlrm(rows=20000), 64),
        ],
    )
    small, large = (
        runs[label].trainer.timer.model_update_total()
        for label in ("dpsgd_f 5k rows", "dpsgd_f 20k rows")
    )
    checks.timing(
        large > 2.0 * small,
        f"Fig. 3: 4x the rows cost only {large / small:.2f}x the model update",
    )
    return [steps_table("fig03_measured", "Figure 3 measured mode", runs)]


def fig05_model(result, checks):
    shares = result.reproduced["noise+update share"]
    checks.require(
        all(b >= a for a, b in zip(shares, shares[1:])) and shares[-1] > 0.8,
        f"Fig. 5: noise+update share must grow with table size to > 80%: {shares}",
    )


def fig05_measured(tier, checks, rows=40000, dim=64):
    """The three model-update kernels, timed separately on a dense table."""
    rng = np.random.default_rng(0)
    stream = NoiseStream(0)
    all_rows = np.arange(rows, dtype=np.int64)
    noise = rng.normal(size=(rows, dim))
    table = rng.normal(size=(rows, dim))
    sparse_rows = rng.choice(rows, size=2048, replace=False)
    sparse_values = rng.normal(size=(2048, dim))
    iteration = itertools.count(1)

    def generate():
        noisy = noise.copy()
        noisy[sparse_rows] += sparse_values

    def update():
        table[...] -= 0.05 * noise

    kernels = {
        "noise sampling (compute-bound)": lambda: stream.row_noise(
            0, all_rows, next(iteration), dim, std=0.01
        ),
        "noisy gradient generation": generate,
        "noisy gradient update (memory-bound)": update,
    }
    timings = [[k, best_of(rounds(tier), fn) * 1e3] for k, fn in kernels.items()]
    title = f"Figure 5 measured mode ({rows} rows x dim {dim})"
    return [measured_table("fig05_measured", ["kernel", "ms"], timings, title)]


def fig06_model(result, checks):
    memory_point, compute_point = result.reproduced["roofline"][:2]
    checks.require(
        compute_point > 10 * memory_point, "Fig. 6: compute point >> memory point"
    )
    sweep = zip(result.extras["sweep_n"][::8], result.extras["sweep_gflops"][::8])
    table = format_table(
        ["N", "modelled GFLOPS"],
        [[int(n), g] for n, g in sweep],
        title="Roofline sweep (every 8th point)",
    )
    return [Table("fig06_roofline_sweep", table)]


def fig06_measured(tier, checks):
    """The paper's microbenchmark in numpy: load a vector, apply N
    dependent multiply-adds per element, store.  Effective GFLOP/s must
    grow *sublinearly* with N — the roofline bends."""
    elements = 1_000_000 if tier == "smoke" else 4_000_000
    buffer = np.random.default_rng(0).random(elements)

    def micro_kernel(n_ops):
        out = buffer * 1.0000001 + 0.5
        for _ in range(n_ops - 1):
            out = out * 1.0000001 + 0.5
        return out

    gflops = {
        n: n * elements / best_of(rounds(tier), lambda n=n: micro_kernel(n)) / 1e9
        for n in (2, 16, 64, 101)
    }
    checks.timing(
        gflops[64] < 32 * gflops[2],
        f"Fig. 6: GFLOP/s grew linearly from N=2 to N=64: {gflops}",
    )
    header = ["N ops/element", "GFLOP/s (numpy)"]
    title = f"Figure 6 measured mode ({elements} elements)"
    return [measured_table("fig06_measured", header, list(gflops.items()), title)]


def fig10_model(result, checks):
    average = result.extras["avg_speedup"]
    checks.require(
        85 * 0.8 < average < 155 * 1.3,
        f"Fig. 10: average speedup {average:.0f}x outside the 85-155x window",
    )
    for i, batch in enumerate(result.labels):
        lazy, no_ans, eager = (
            result.reproduced[a][i] for a in ("lazydp", "lazydp_no_ans", "dpsgd_f")
        )
        checks.require(
            lazy < no_ans < eager, f"Fig. 10 @ {batch}: LazyDP < no-ANS < DP-SGD(F)"
        )


def fig10_measured(tier, checks):
    runs = measure_steps(
        tier,
        [(a, a, bench_config()) for a in ("sgd", "lazydp", "lazydp_no_ans", "dpsgd_f")],
    )
    slower(checks, runs, "dpsgd_f", "lazydp", 2.0, "Fig. 10: LazyDP beats DP-SGD(F)")
    checks.timing(
        runs["sgd"].seconds <= 1.5 * runs["lazydp"].seconds,
        "Fig. 10: SGD slower than 1.5x LazyDP",
    )
    title = "Figure 10 measured mode (scaled geometry)"
    return [steps_table("fig10_measured", title, runs, baseline="dpsgd_f")]


def fig11_model(result, checks):
    fraction = result.reproduced["lazydp"][0]
    checks.require(
        0.05 < fraction < 0.3, f"Fig. 11: overhead fraction {fraction:.2f} not ~15%"
    )
    table = format_table(
        ["stage", "modelled ms"],
        [[stage, seconds * 1e3] for stage, seconds in result.extras["stages"].items()],
        title="LazyDP modelled stage times (96 GB, batch 2048)",
    )
    return [Table("fig11_modelled_stages", table)]


def fig11_measured(tier, checks):
    config = configs.small_dlrm(rows=8000)
    lazy, eager = (
        measured_stage_breakdown(a, config=config, batch=128, iterations=4)
        for a in ("lazydp", "dpsgd_f")
    )
    # The terminal flush is a one-time end-of-training cost, not part of
    # the steady-state iteration profile Figure 11 shows.
    lazy.pop("terminal_flush", None)
    total = sum(lazy.values())
    overhead = sum(lazy.get(stage, 0.0) for stage in LAZYDP_OVERHEAD_STAGES)
    checks.require(overhead > 0.0, "Fig. 11: no LazyDP overhead stage was timed")
    # Figure 11's claim, measured: LazyDP's noise sampling and noisy
    # update are a fraction of eager DP-SGD's on the same workload.
    for stage in ("noise_sampling", "noisy_grad_update"):
        checks.timing(
            lazy[stage] < 0.5 * eager[stage],
            f"Fig. 11: lazy {stage} is not < half of DP-SGD(F)'s",
        )
    rows = [[s, seconds * 1e3, seconds / total] for s, seconds in sorted(lazy.items())]
    header = ["stage", "ms (numpy)", "fraction"]
    title = "LazyDP measured stage split (scaled geometry)"
    return [measured_table("fig11_measured", header, rows, title)]


def fig12_model(result, checks):
    saving = result.extras["avg_energy_saving"]
    checks.require(100 < saving < 250, f"Fig. 12: saving {saving:.0f}x not ~155x")
    for lazy, eager in zip(result.reproduced["lazydp"], result.reproduced["dpsgd_f"]):
        checks.require(lazy < eager / 50, "Fig. 12: LazyDP energy not << DP-SGD(F)")
    # Energy cannot be measured here (no power counters); the phase-power
    # model must still show DP-SGD's long AVX phase drawing more average
    # power than SGD's mix.
    hw, config = paper_system(), configs.mlperf_dlrm()
    watts = {
        a: average_power_watts(iteration_breakdown(a, config, 2048, hw=hw), hw)
        for a in ("sgd", "dpsgd_f")
    }
    checks.require(watts["dpsgd_f"] > watts["sgd"], f"Fig. 12: average power {watts}")


def fig13a_model(result, checks):
    eager, lazy = result.reproduced["dpsgd_f"], result.reproduced["lazydp"]
    checks.require(eager[-1] == float("inf"), "Fig. 13a: DP-SGD(F) must OOM at 192 GB")
    checks.require(eager[1] / eager[0] > 1.5, "Fig. 13a: DP-SGD(F) scales with size")
    checks.require(max(lazy[:3]) / min(lazy[:3]) < 1.1, "Fig. 13a: LazyDP stays flat")
    # Beyond the figure: flat LazyDP survives its 192 GB point; the
    # sharded memory model shows where the *next* capacity wall sits and
    # how many shards (hosts) restore headroom.
    rows = {}
    for gigabytes in (96, 192, 384, 768):
        config = configs.mlperf_dlrm(gigabytes * 10**9, name=f"mlperf-{gigabytes}GB")
        shards = min_shards_to_fit(config, 2048)
        breakdown = sharded_update_breakdown(config, 2048, shards or 1)
        rows[gigabytes] = [
            f"{gigabytes} GB",
            "yes" if fits_when_sharded(config, 2048, 1) else "OOM",
            shards,
            f"{per_shard_table_bytes(config, shards or 1) / 1e9:.0f} GB",
            f"{breakdown.critical_path_seconds * 1e3:.1f} ms",
        ]
    checks.require(rows[192][1] == "yes", "flat LazyDP must survive 192 GB")
    checks.require(rows[384][1] == "OOM", "flat LazyDP must OOM at 384 GB")
    checks.require(rows[384][2] >= 2, "sharding must restore headroom at 384 GB")
    checks.require(rows[768][2] >= rows[384][2], "min shards must grow with capacity")
    table = format_table(
        [
            "model",
            "fits one host",
            "min shards",
            "per-shard slice",
            "update critical path",
        ],
        list(rows.values()),
        title="Sharded LazyDP capacity projection (batch 2048)",
    )
    return [Table("fig13a_sharded_projection", table)]


def fig13a_measured(tier, checks):
    sizes = {"5k": configs.small_dlrm(rows=5000), "20k": configs.small_dlrm(rows=20000)}
    runs = measure_steps(
        tier,
        [
            (f"{algorithm} {label} rows", algorithm, config, 64)
            for algorithm in ("dpsgd_f", "lazydp")
            for label, config in sizes.items()
        ],
    )
    slower(
        checks, runs, "dpsgd_f 20k rows", "dpsgd_f 5k rows", 1.8, "Fig. 13a: DP-SGD(F)"
    )
    # LazyDP's per-step cost must not scale with the table (the flush is
    # a one-time end-of-training cost): 4x the rows, nowhere near 4x.
    ratio = runs["lazydp 20k rows"].seconds / runs["lazydp 5k rows"].seconds
    checks.timing(ratio < 2.5, f"Fig. 13a: LazyDP step scaled {ratio:.2f}x on 4x rows")
    return [steps_table("fig13a_measured", "Figure 13(a) measured mode", runs)]


def fig13b_model(result, checks):
    sgd, lazy, eager = (result.reproduced[a] for a in ("sgd", "lazydp", "dpsgd_f"))
    checks.require(sgd[-1] > 4 * sgd[0], "Fig. 13b: SGD scales with pooling")
    checks.require(lazy[-1] > 4 * lazy[0], "Fig. 13b: LazyDP scales with pooling")
    checks.require(eager[-1] < 1.05 * eager[0], "Fig. 13b: DP-SGD(F) barely moves")
    # Paper: the LazyDP/DP-SGD gap narrows but stays >= ~16x at pooling 30.
    checks.require(eager[-1] / lazy[-1] > 10, "Fig. 13b: gap at pooling 30 below 10x")


def fig13b_measured(tier, checks):
    def pooled(lookups):
        base = configs.small_dlrm(rows=12000)
        return replace(base, lookups_per_table=lookups, name=f"{base.name}-L{lookups}")

    runs = measure_steps(
        tier,
        [
            (f"{algorithm} pooling {lookups}", algorithm, pooled(lookups), 64)
            for algorithm in ("lazydp", "dpsgd_f")
            for lookups in (1, 8)
        ],
    )
    # Dense noisy update dominates: 8x the lookups << 8x the time.
    ratio = runs["dpsgd_f pooling 8"].seconds / runs["dpsgd_f pooling 1"].seconds
    checks.timing(ratio < 3.0, f"Fig. 13b: DP-SGD(F) scaled {ratio:.2f}x with pooling")
    return [steps_table("fig13b_measured", "Figure 13(b) measured mode", runs)]


def fig13c_model(result, checks):
    eager = dict(zip(result.labels, result.reproduced["dpsgd_f"]))
    # Paper ordering: RMC3 slowest (huge tables), RMC2 mildest (pooling
    # inflates its SGD baseline).
    checks.require(
        eager["rmc3"] > eager["rmc1"] > eager["rmc2"], f"Fig. 13c ordering: {eager}"
    )


def fig13c_measured(tier, checks):
    def scaled(config, rows=6000):
        return replace(
            config,
            table_rows=(rows,) * config.num_tables,
            name=f"{config.name}-scaled",
        )

    rmc1_large = scaled(configs.rmc1(), rows=12000)
    runs = measure_steps(
        tier,
        [
            ("rmc1 lazydp", "lazydp", scaled(configs.rmc1()), 64),
            ("rmc2 lazydp", "lazydp", scaled(configs.rmc2(), rows=3000), 32),
            ("rmc3 lazydp", "lazydp", scaled(configs.rmc3()), 64),
            ("rmc1-12k lazydp", "lazydp", rmc1_large, 64),
            ("rmc1-12k dpsgd_f", "dpsgd_f", rmc1_large, 64),
        ],
    )
    slower(checks, runs, "rmc1-12k dpsgd_f", "rmc1-12k lazydp", 2.0, "Fig. 13c")
    return [steps_table("fig13c_measured", "Figure 13(c) measured mode", runs)]


def fig13d_model(result, checks):
    lazy = dict(zip(result.labels, result.reproduced["lazydp"]))
    eager = result.reproduced["dpsgd_f"]
    checks.require(lazy["high"] <= lazy["random"], "Fig. 13d: LazyDP faster with skew")
    checks.require(max(eager) / min(eager) < 1.02, "Fig. 13d: DP-SGD(F) is skew-blind")


def fig13d_measured(tier, checks, rows=12000):
    config = configs.small_dlrm(rows=rows)

    def skew(level):
        return None if level == "random" else paper_skew_spec(level, rows)

    runs = measure_steps(
        tier,
        [
            (level, "lazydp", config, 256, skew(level))
            for level in ("random", "medium", "high")
        ],
    )
    # High skew concentrates accesses, shrinking the unique-row set
    # LazyDP must catch up each iteration (deterministic: seeded trace).
    unique = {}
    for level in ("random", "high"):
        dataset = SyntheticClickDataset(config, seed=9, skew=skew(level))
        batch = dataset.batch(range(1024))
        unique[level] = sum(
            batch.accessed_rows(t).size for t in range(config.num_tables)
        )
    checks.require(
        unique["high"] < 0.7 * unique["random"],
        f"Fig. 13d: high skew did not shrink the catch-up set: {unique}",
    )
    title = "Figure 13(d) measured mode (LazyDP step by access skew)"
    return [steps_table("fig13d_measured", title, runs)]


def fig14_model(result, checks):
    for ratio in result.extras["lazydp_over_eana"]:
        checks.require(1.0 < ratio < 1.6, f"Fig. 14: LazyDP/EANA {ratio:.2f} not ~1.3x")


def fig14_measured(tier, checks):
    runs = measure_steps(tier, [(a, a, bench_config()) for a in ("eana", "lazydp")])
    # numpy bookkeeping costs differ from the paper's C++, so allow a
    # wider band than 1.27-1.37 — but it must stay the same order.
    overhead = runs["lazydp"].seconds / runs["eana"].seconds
    checks.timing(overhead < 3.0, f"Fig. 14: LazyDP/EANA measured {overhead:.2f}x")
    title = "Figure 14 measured mode (scaled geometry)"
    return [steps_table("fig14_measured", title, runs, baseline="eana")]


def sec72_model(result, checks):
    queue, history, fraction = result.reproduced["overheads"]
    checks.require(abs(queue - 213e3) / 213e3 < 0.01, f"§7.2: input queue {queue} B")
    checks.require(abs(history - 751e6) / 751e6 < 0.01, f"§7.2: history {history} B")
    checks.require(fraction < 0.01, f"§7.2: history is {fraction:.2%} of the model")


def sec72_measured(tier, checks, accessed=53248):
    """Reading 53k entries of a 10M-row HistoryTable costs what it costs
    of a 1M-row one: the naive dense counter the paper rejects would not."""
    rows = np.random.default_rng(1).choice(1_000_000, size=accessed, replace=False)
    seconds = {
        size: best_of(5, lambda table=HistoryTable(size): table.delays(rows, 5))
        for size in (1_000_000, 10_000_000)
    }
    small, large = seconds.values()
    checks.timing(large < 5 * small, f"§7.2: 10x the table cost {large / small:.1f}x")
    header = ["HistoryTable rows", f"ms per {accessed}-row delay read"]
    rows = [[size, s * 1e3] for size, s in seconds.items()]
    return [measured_table("sec72_measured", header, rows, "Section 7.2 measured mode")]


# fmt: off
#: case name, ``ALL_FIGURES`` driver, committed report, paper figure /
#: section, what it shows, model-mode checks, measured mode (or None).
FIGURES = (
    ("fig03", "figure3", "fig03_training_breakdown", "Figure 3, §4",
     "SGD vs DP-SGD(B/R/F) training time across table sizes (96 MB → 96 GB)",
     fig03_model, fig03_measured),
    ("fig05", "figure5", "fig05_model_update_breakdown", "Figure 5, §4.2",
     "Latency breakdown of DP-SGD's model-update stage (noise sampling vs write)",
     fig05_model, fig05_measured),
    ("fig06", "figure6", "fig06_avx_roofline", "Figure 6, §4.2",
     "Effective throughput vs per-element op count (roofline)",
     fig06_model, fig06_measured),
    ("fig10", "figure10", "fig10_end_to_end", "Figure 10, §6.1",
     "End-to-end speedup of LazyDP (±ANS) over DP-SGD(F) — the headline 85-155x",
     fig10_model, fig10_measured),
    ("fig11", "figure11", "fig11_lazydp_breakdown", "Figure 11, §6.2",
     "LazyDP's own latency breakdown; the dedup/history-read/history-update "
     "overhead split",
     fig11_model, fig11_measured),
    ("fig12", "figure12", "fig12_energy", "Figure 12, §6.3",
     "Energy consumption of SGD / LazyDP / DP-SGD(F)",
     fig12_model, None),
    ("fig13a", "figure13a", "fig13a_table_size", "Figure 13(a), §6.4",
     "Sensitivity to embedding-table size (24-192 GB), incl. the OOM point and "
     "sharded-capacity projections",
     fig13a_model, fig13a_measured),
    ("fig13b", "figure13b", "fig13b_pooling", "Figure 13(b), §6.4",
     "Sensitivity to the pooling factor (1-30 lookups/table)",
     fig13b_model, fig13b_measured),
    ("fig13c", "figure13c", "fig13c_model_configs", "Figure 13(c), §6.4",
     "Alternative DLRM classes RMC1-RMC3",
     fig13c_model, fig13c_measured),
    ("fig13d", "figure13d", "fig13d_skew", "Figure 13(d), §6.4",
     "Sensitivity to embedding access skew",
     fig13d_model, fig13d_measured),
    ("fig14", "figure14", "fig14_eana", "Figure 14, §6.5",
     "LazyDP vs EANA (and EANA's privacy leak — see `python -m repro audit`)",
     fig14_model, fig14_measured),
    ("sec72", "section72", "sec72_overheads", "§7.2",
     "HistoryTable/metadata overheads (751 MB at 96 GB) and their runtime cost",
     sec72_model, sec72_measured),
)
# fmt: on


def _register_figure(name, driver, report, figure, shows, model, measured):
    @case(name, figure=figure, shows=shows)
    def run(tier: str) -> Result:
        checks = Checks()
        result = ALL_FIGURES[driver]()
        tables = [Table(report, result.table()), *(model(result, checks) or [])]
        if measured is not None:
            tables += measured(tier, checks)
        return Result(tables, {}, {}, checks)


for _row in FIGURES:
    _register_figure(*_row)


# ---------------------------------------------------------------------------
# Section 4.2 and the ablations: measured only, or model only.
# ---------------------------------------------------------------------------


@case(
    "sec42",
    figure="§4.2",
    shows="The hand-optimised model-update kernel: fused vectorised noisy "
    "update vs a per-row loop (paper: 8.2x over PyTorch built-ins)",
)
def sec42(tier: str, rows=3000, dim=64, lr=0.05) -> Result:
    def setup(seed):
        rng = np.random.default_rng(seed)
        return tuple(rng.normal(size=(rows, dim)) for _ in range(3))

    def naive(table, grad, noise):
        """Row-at-a-time update: what an untuned implementation does."""
        for row in range(rows):
            table[row] = table[row] - lr * (grad[row] + noise[row])
        return table

    def optimized(table, grad, noise):
        """Fused, vectorised update: one pass, no temporaries per row."""
        np.add(grad, noise, out=noise)
        table -= lr * noise
        return table

    checks = Checks()
    checks.require(
        np.allclose(naive(*setup(2)), optimized(*setup(2)), atol=1e-12),
        "§4.2: optimised kernel disagrees with the per-row reference",
    )
    data = setup(1)
    naive_s, optimized_s = (
        best_of(rounds(tier), lambda: kernel(*data)) for kernel in (naive, optimized)
    )
    speedup = naive_s / optimized_s
    checks.timing(speedup > 3.0, f"§4.2: optimised kernel only {speedup:.1f}x faster")
    table = measured_table(
        "sec42_kernel_optimization",
        ["kernel", "seconds", "speedup"],
        [
            ["naive (per-row)", naive_s, 1.0],
            ["optimised (fused, vectorised)", optimized_s, speedup],
            ["paper (tuned AVX vs PyTorch built-in)", None, 8.2],
        ],
        "Section 4.2: model-update kernel optimisation",
    )
    return Result([table], {}, {}, checks)


@case(
    "ablation_ans",
    figure="Figure 8, §5.2.2",
    shows="Draw-count ablation: aggregated noise sampling stays flat as the "
    "deferred delay grows, the exact per-iteration sum scales linearly",
)
def ablation_ans(tier: str, rows=4096, dim=64) -> Result:
    all_rows = np.arange(rows, dtype=np.int64)

    def catchup(enabled, delay, seed=1):
        engine = ANSEngine(NoiseStream(seed), enabled=enabled)
        delays = np.full(rows, delay, dtype=np.int64)
        return engine.catchup_noise(0, all_rows, delays, delay, dim, std=0.01)

    checks = Checks()
    timings = {
        delay: [
            best_of(rounds(tier), lambda: catchup(enabled, delay))
            for enabled in (True, False)
        ]
        for delay in (1, 8, 64)
    }
    # Exact-mode cost must grow with delay; ANS must not.
    checks.timing(timings[64][1] > 10 * timings[1][1], "exact sum flat across delays")
    checks.timing(timings[64][0] < 3 * timings[1][0], "ANS cost grew with delay")
    # ANS is not an approximation: the aggregated draw has exactly the
    # deferred sum's distribution (Theorem 5.1).  Moments at scale:
    aggregated, summed = catchup(True, 16, seed=3), catchup(False, 16, seed=3)
    standard_error = 0.01 * np.sqrt(16) / np.sqrt(rows * dim)
    checks.require(
        abs(aggregated.std() - summed.std()) / summed.std() < 0.05
        and abs(aggregated.mean()) < 6 * standard_error
        and abs(summed.mean()) < 6 * standard_error,
        "ANS draw's moments differ from the exact deferred sum's",
    )
    table = measured_table(
        "ablation_ans",
        ["deferred iterations", "ANS ms", "exact-sum ms", "exact/ANS"],
        [[d, a * 1e3, e * 1e3, e / a] for d, (a, e) in timings.items()],
        f"Ablation: aggregated noise sampling (catch-up of {rows} rows x {dim} dims)",
    )
    return Result([table], {}, {}, checks)


@case(
    "ablation_history",
    figure="§5.2.1",
    shows="HistoryTable (iteration IDs, cost ~ access footprint) vs the "
    "rejected naive per-row counter (a dense write per iteration)",
)
def ablation_history(tier: str, accessed=53248) -> Result:
    results = []
    for num_rows in (1_000_000, 4_000_000, 16_000_000):
        rows = np.random.default_rng(0).choice(num_rows, size=accessed, replace=False)
        smart, naive = HistoryTable(num_rows), NaiveCounterHistory(num_rows)
        iteration = itertools.count(1)

        def smart_step():
            now = next(iteration)
            smart.delays(rows, now)
            smart.mark_updated(rows, now)

        def naive_step():
            naive.advance_iteration()  # dense write over the table
            naive.delays(rows, naive._iteration)
            naive.mark_updated(rows, naive._iteration)

        # Warm-up faults in the lazily-allocated tables so the timed
        # region measures steady-state access, not first-touch paging.
        smart_step()
        naive_step()
        repeats = rounds(tier) + 1
        results.append(
            (num_rows, best_of(repeats, smart_step), best_of(repeats, naive_step))
        )
    checks = Checks()
    # Naive cost scales with the table; at the largest size it must be
    # several times the iteration-ID design's (which stays ~flat).
    checks.timing(results[-1][2] / results[0][2] > 2.5, "naive counter did not scale")
    checks.timing(results[-1][2] > 2.5 * results[-1][1], "naive counter not slower")
    table = measured_table(
        "ablation_history",
        ["table size", "iteration-ID ms", "naive-counter ms", "naive/smart"],
        [[f"{n / 1e6:g}M rows", s * 1e3, v * 1e3, v / s] for n, s, v in results],
        "Ablation: HistoryTable design (per-iteration cost)",
    )
    return Result([table], {}, {}, checks)


@case(
    "ablation_sensitivity",
    figure="— (robustness)",
    shows="Headline speedup under ±50% perturbations of each calibrated "
    "constant: the conclusion comes from the roofline, not the fit",
)
def ablation_sensitivity(tier: str) -> Result:
    rows = sensitivity_sweep(factors=(0.5, 1.5))
    baseline = rows[0][2]
    speedups = [speedup for _, _, speedup in rows]
    checks = Checks()
    checks.require(90 < baseline < 170, f"headline speedup {baseline:.0f}x not ~119x")
    checks.require(conclusions_hold(rows, minimum_speedup=30.0), "a perturbation < 30x")
    checks.require(
        baseline / 2.5 < min(speedups) and max(speedups) < baseline * 2.5,
        "a perturbation moved the speedup more than 2.5x",
    )
    table = format_table(
        ["calibrated constant", "x factor", "LazyDP speedup"],
        [list(row) for row in rows],
        title="Ablation: headline speedup under calibration perturbations "
        "(paper: 119x)",
    )
    return Result([Table("ablation_sensitivity", table)], {}, {}, checks)


@case(
    "scaling_projection",
    figure="— (beyond paper)",
    shows="TB-scale projections, the OOM walls on the paper's host and the "
    "break-even table size below which eager DP-SGD would win",
)
def scaling_projection(tier: str) -> Result:
    checks = Checks()
    by_size: dict = {}
    for point in project_scaling():
        by_size.setdefault(point.model_bytes, {})[point.algorithm] = point
    rows = [
        [
            f"{size / 1e9:g} GB",
            algorithms["dpsgd_f"].seconds_per_iteration,
            algorithms["lazydp"].seconds_per_iteration,
            algorithms["lazydp"].speedup_vs_dpsgd,
        ]
        for size, algorithms in sorted(by_size.items())
    ]
    finite = [row[3] for row in rows if row[3] is not None]
    checks.require(
        all(b > a for a, b in zip(finite, finite[1:])),
        "LazyDP's projected speedup must grow with model size",
    )
    walls = {a: oom_capacity_bytes(a) for a in ("dpsgd_f", "lazydp")}
    checks.require(
        walls["dpsgd_f"] < 192e9 and walls["lazydp"] > 230e9, f"OOM walls: {walls}"
    )
    crossover = break_even_model_bytes()
    checks.require(crossover < 96e9 / 10, f"break-even {crossover / 1e9:.1f} GB")
    tables = [
        Table(
            "scaling_projection",
            format_table(
                ["model size", "DP-SGD(F) s/iter", "LazyDP s/iter", "speedup"],
                rows,
                title="Beyond the paper: projected scaling on a 4 TB host",
            ),
        ),
        Table(
            "scaling_oom_walls",
            format_table(
                ["algorithm", "largest trainable model (GB)"],
                [[name, size / 1e9] for name, size in walls.items()],
                title="OOM walls on the paper's 256 GB host",
            ),
        ),
        Table(
            "scaling_break_even",
            format_table(
                ["quantity", "value"],
                [
                    ["break-even table size", f"{crossover / 1e9:.2f} GB"],
                    ["paper default", "96 GB"],
                    ["ratio", f"{96e9 / crossover:.0f}x"],
                ],
                title="Break-even: below this size, eager DP-SGD beats LazyDP",
            ),
        ),
    ]
    return Result(tables, {}, {}, checks)
