"""The privacy-utility trade-off, measured end to end.

The paper's motivation leans on Denison et al. [13]: DP-SGD can train
useful ad models.  This script quantifies that axis with this repo's own
machinery: sweep the noise multiplier, train LazyDP models, and report
held-out AUC / log-loss next to the (epsilon, delta) each sigma buys —
plus the non-private SGD ceiling for reference.

It also demonstrates the point that makes LazyDP deployable at all:
utility is identical to eager DP-SGD's because the trained model is the
same (not just similar) — shown here by evaluating both.

Run:  python examples/utility_vs_privacy.py
"""

import numpy as np

from repro import configs
from repro.bench.experiments import make_trainer
from repro.bench.reporting import format_table
from repro.data import DataLoader, SyntheticClickDataset
from repro.nn import DLRM
from repro.train import DPConfig, evaluate_model

ROWS = 4096
BATCH = 256
ITERATIONS = 40
SIGMAS = (0.0, 0.3, 1.0, 3.0)


def train_and_score(algorithm, sigma, config, held_out):
    dp = DPConfig(
        noise_multiplier=sigma,
        max_grad_norm=2.0,
        learning_rate=0.1,
        delta=1e-5,
    )
    model = DLRM(config, seed=7)
    dataset = SyntheticClickDataset(config, seed=3, num_examples=1 << 14)
    loader = DataLoader(dataset, batch_size=BATCH, num_batches=ITERATIONS,
                        seed=5)
    trainer = make_trainer(algorithm, model, dp, noise_seed=99)
    result = trainer.fit(loader)
    metrics = evaluate_model(model, held_out)
    return metrics, result.epsilon


def main() -> None:
    config = configs.small_dlrm(rows=ROWS)
    eval_dataset = SyntheticClickDataset(config, seed=3,
                                         num_examples=1 << 14)
    # Held-out examples disjoint from anything the loader can sample.
    held_out = [eval_dataset.batch(np.arange(12000, 12000 + 2048))]

    rows = []
    sgd_metrics, _ = train_and_score("sgd", 0.0, config, held_out)
    rows.append(["sgd (non-private)", None, sgd_metrics["auc"],
                 sgd_metrics["log_loss"]])
    for sigma in SIGMAS:
        metrics, epsilon = train_and_score("lazydp", sigma, config, held_out)
        label = f"lazydp sigma={sigma:g}"
        if epsilon is not None and np.isinf(epsilon):
            epsilon = "inf (no privacy)"
        rows.append([label, epsilon, metrics["auc"], metrics["log_loss"]])

    print(format_table(
        ["model", "epsilon", "held-out AUC", "log loss"], rows,
        title=f"Privacy-utility trade-off ({ITERATIONS} iterations, "
              f"batch {BATCH}, delta 1e-5)",
    ))
    print()

    # LazyDP's utility IS DP-SGD's utility: same trained model.
    lazy_metrics, _ = train_and_score("lazydp_no_ans", 1.0, config, held_out)
    eager_metrics, _ = train_and_score("dpsgd_f", 1.0, config, held_out)
    print(f"AUC at sigma=1.0:  LazyDP {lazy_metrics['auc']:.6f}  vs  "
          f"DP-SGD(F) {eager_metrics['auc']:.6f}")
    assert abs(lazy_metrics["auc"] - eager_metrics["auc"]) < 1e-9
    print("identical, as the equivalence guarantee requires.")


if __name__ == "__main__":
    main()
