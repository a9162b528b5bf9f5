"""Stateless numerical primitives: activations and the CTR loss.

Everything returns float64 and is numerically stable in the tails; the DP
equivalence tests compare full training trajectories, so sloppy kernels
would show up as spurious divergence.
"""

from __future__ import annotations

import numpy as np


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def relu_grad(x: np.ndarray, upstream: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """Gradient of relu at pre-activation ``x`` (subgradient 0 at x == 0).

    ``x`` may be the activation instead: ``relu(pre)`` is positive
    exactly where ``pre`` is."""
    return np.multiply(upstream, x > 0.0, out=out)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def bce_with_logits(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-example binary cross-entropy from logits.

    Uses the log-sum-exp form ``max(x,0) - x*y + log(1+exp(-|x|))`` which is
    stable for large |x|.  Returns one loss per example — DP-SGD clips
    per-example gradients, so the loss must not be pre-reduced.
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    return (
        np.maximum(logits, 0.0)
        - logits * targets
        + np.log1p(np.exp(-np.abs(logits)))
    )


def bce_with_logits_grad(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """d loss_b / d logit_b = sigmoid(logit_b) - y_b (per example)."""
    return sigmoid(logits) - np.asarray(targets, dtype=np.float64)
