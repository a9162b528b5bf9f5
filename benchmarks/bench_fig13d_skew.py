"""Figure 13(d): sensitivity to embedding access skew.

Measured mode steps LazyDP on traces calibrated to the paper's low /
medium / high skew points (90% of accesses on 36% / 10% / 0.6% of rows);
model mode regenerates the paper-scale comparison.  The shape to
reproduce: DP-SGD(F) is skew-blind, LazyDP gets slightly *faster* with
skew (smaller unique-row footprint).
"""

from repro import configs
from repro.bench.experiments import figure13d
from repro.bench.experiments import make_trainer
from repro.data import DataLoader, SyntheticClickDataset, paper_skew_spec
from repro.nn import DLRM
from repro.train import DPConfig

from conftest import emit_report


def test_fig13d_report_model_scale(benchmark):
    result = benchmark.pedantic(figure13d, rounds=1, iterations=1)
    emit_report("fig13d_skew", result.table())
    lazy = dict(zip(result.labels, result.reproduced["lazydp"]))
    dpsgd = result.reproduced["dpsgd_f"]
    assert lazy["high"] <= lazy["random"]
    assert max(dpsgd) / min(dpsgd) < 1.02


def _skewed_step(level, rows=12000, batch=256):
    config = configs.small_dlrm(rows=rows)
    skew = None if level == "random" else paper_skew_spec(level, rows)
    model = DLRM(config, seed=3)
    dataset = SyntheticClickDataset(config, seed=4, skew=skew)
    loader = DataLoader(dataset, batch_size=batch, num_batches=4, seed=5)
    trainer = make_trainer("lazydp", model, DPConfig(), noise_seed=6)
    trainer.expected_batch_size = batch
    batches = [loader.batch_for(i) for i in range(4)]
    state = {"iteration": 0}

    def step():
        current = batches[state["iteration"] % 4]
        upcoming = batches[(state["iteration"] + 1) % 4]
        state["iteration"] += 1
        return trainer.train_step(state["iteration"], current, upcoming)

    return step


def test_fig13d_step_random(benchmark):
    benchmark(_skewed_step("random"))


def test_fig13d_step_medium_skew(benchmark):
    benchmark(_skewed_step("medium"))


def test_fig13d_step_high_skew(benchmark):
    benchmark(_skewed_step("high"))


def test_fig13d_skew_shrinks_catchup_set(benchmark):
    """High skew concentrates accesses, shrinking the unique-row set
    LazyDP must catch up each iteration."""
    rows, batch = 12000, 1024
    config = configs.small_dlrm(rows=rows)

    def unique_counts():
        counts = {}
        for level in ("random", "high"):
            skew = None if level == "random" else paper_skew_spec(level, rows)
            dataset = SyntheticClickDataset(config, seed=9, skew=skew)
            loaded = dataset.batch(range(batch))
            counts[level] = sum(
                loaded.accessed_rows(t).size for t in range(config.num_tables)
            )
        return counts

    counts = benchmark.pedantic(unique_counts, rounds=2, iterations=1)
    assert counts["high"] < 0.7 * counts["random"]
