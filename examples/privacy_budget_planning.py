"""Plan a training run against a privacy budget with the RDP accountant.

Practitioners pick (epsilon, delta) first and derive the noise multiplier
and iteration count from it.  This script sweeps the accountant the way
Opacus' ``get_noise_multiplier`` does, shows the epsilon trajectory over
training, and demonstrates that LazyDP consumes exactly the same budget
as eager DP-SGD — lazy noise placement is invisible to the accountant.

Run:  python examples/privacy_budget_planning.py
"""

import numpy as np

from repro.obs import format_table
from repro.privacy import RDPAccountant, compute_rdp, rdp_to_epsilon

DATASET_SIZE = 4_000_000      # Criteo-Kaggle-scale click log
BATCH = 2048
EPOCHS = 1
DELTA = 1e-6


def epsilon_after(noise_multiplier: float, steps: int, q: float) -> float:
    rdp = compute_rdp(q, noise_multiplier, steps)
    return rdp_to_epsilon(rdp, DELTA)[0]


def noise_for_budget(target_epsilon: float, steps: int, q: float) -> float:
    """Smallest sigma meeting the budget, by bisection (like Opacus)."""
    low, high = 0.2, 64.0
    while high / low > 1.001:
        mid = (low * high) ** 0.5
        if epsilon_after(mid, steps, q) > target_epsilon:
            low = mid
        else:
            high = mid
    return high


def main() -> None:
    steps_per_epoch = DATASET_SIZE // BATCH
    steps = steps_per_epoch * EPOCHS
    q = BATCH / DATASET_SIZE

    print(f"dataset {DATASET_SIZE:,} examples, batch {BATCH}, "
          f"{steps:,} steps, sampling rate q = {q:.2e}, delta = {DELTA:g}")
    print()

    rows = []
    for target in (0.5, 1.0, 2.0, 4.0, 8.0):
        sigma = noise_for_budget(target, steps, q)
        achieved = epsilon_after(sigma, steps, q)
        rows.append([target, sigma, achieved])
    print(format_table(
        ["target epsilon", "required sigma", "achieved epsilon"], rows,
        title="Noise multiplier needed for a one-epoch budget",
    ))
    print()

    sigma = noise_for_budget(1.0, steps, q)
    checkpoints = np.linspace(steps // 10, steps, 10, dtype=int)
    rows = [
        [int(s), epsilon_after(sigma, int(s), q)] for s in checkpoints
    ]
    print(format_table(
        ["steps", "epsilon"], rows,
        title=f"Budget trajectory at sigma = {sigma:.2f}",
    ))
    print()

    # LazyDP's accounting is identical to DP-SGD's: same mechanism, same
    # count of applications — only the noise *placement* changes.
    eager = RDPAccountant()
    lazy = RDPAccountant()
    for _ in range(500):
        eager.step(sigma, q)
        lazy.step(sigma, q)   # LazyDP records the very same steps
    assert eager.get_epsilon(DELTA) == lazy.get_epsilon(DELTA)
    print(f"after 500 steps: eager eps = {eager.get_epsilon(DELTA):.4f}, "
          f"LazyDP eps = {lazy.get_epsilon(DELTA):.4f} (identical)")


if __name__ == "__main__":
    main()
