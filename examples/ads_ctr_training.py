"""Private ads CTR training: the workload the paper's introduction motivates.

Trains the same click-through-rate model on the same power-law
(Criteo-like) trace with four algorithms and compares:

* training throughput (the paper's subject),
* final loss (utility is preserved — all DP variants add the same noise),
* what an adversary inspecting the final embedding tables learns
  (the EANA leak vs. LazyDP's DP-SGD-equivalent protection).

Run:  python examples/ads_ctr_training.py
"""

import numpy as np

from repro import configs
from repro.data import DataLoader, SyntheticClickDataset, paper_skew_spec
from repro.nn import DLRM
from repro.obs import format_table
from repro.privacy import audit_untouched_rows
from repro.session import make_trainer
from repro.train import DPConfig

ROWS = 20000
BATCH = 256
ITERATIONS = 12


def train(algorithm: str, config, skew):
    model = DLRM(config, seed=7)
    dataset = SyntheticClickDataset(config, seed=3, skew=skew)
    loader = DataLoader(dataset, batch_size=BATCH, num_batches=ITERATIONS,
                        seed=5)
    dp = DPConfig(noise_multiplier=1.0, max_grad_norm=1.0, learning_rate=0.05)
    trainer = make_trainer(algorithm, model, dp, noise_seed=99)
    result = trainer.fit(loader)
    return model, result, loader


def run_audit(model, config, loader) -> str:
    """The paper's Section 2.5 attack against table 0."""
    reference = DLRM(config, seed=7)
    accessed = np.unique(np.concatenate([
        batch.accessed_rows(0) for batch in loader
    ]))
    result = audit_untouched_rows(
        reference.embeddings[0].table.data,
        model.embeddings[0].table.data,
        accessed,
    )
    if result.leaks:
        return ("LEAKS access set "
                f"({result.true_positives} rows exposed)")
    return "protected (every row perturbed)"


def main() -> None:
    config = configs.small_dlrm(rows=ROWS)
    # High-skew trace: 90% of accesses on 0.6% of rows, like production
    # RecSys traffic (paper Section 7.4).
    skew = paper_skew_spec("high", ROWS)

    rows = []
    baseline_time = None
    for algorithm in ("sgd", "eana", "lazydp", "dpsgd_f"):
        model, result, loader = train(algorithm, config, skew)
        per_iter = result.wall_time / result.iterations
        if baseline_time is None:
            baseline_time = per_iter
        audit = "n/a (not private)" if algorithm == "sgd" else (
            run_audit(model, config, loader)
        )
        rows.append([
            algorithm,
            per_iter * 1e3,
            per_iter / baseline_time,
            result.final_loss,
            result.epsilon if result.epsilon is not None else None,
            audit,
        ])

    print(format_table(
        ["algorithm", "ms/iter", "x SGD", "final loss", "epsilon",
         "final-model audit"],
        rows,
        title="Private CTR training on a high-skew trace "
              f"({ROWS} rows/table, batch {BATCH})",
    ))
    print()
    print("Reading the table: EANA is fast but its final model exposes")
    print("exactly which features appeared in training data; LazyDP matches")
    print("DP-SGD's protection at a fraction of DP-SGD(F)'s cost.")


if __name__ == "__main__":
    main()
