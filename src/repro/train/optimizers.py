"""Dense parameter-update rules: plain SGD and Polyak momentum.

The trainers update the MLP parameters through a ``DenseOptimizer``
(``TrainerBase(dense_optimizer=...)``, ``DenseSGD`` by default) and
the embedding tables through no optimizer object at all.

**LazyDP requires the embedding update to be linear in the noise.**  The
lazy schedule applies ``sum_i eta * n_i`` instead of each ``eta * n_i``
individually; the two coincide exactly when the update is plain SGD.  A
stateful rule like Adagrad scales each increment by a running statistic,
so deferring noise through it would change the trained model — which is
why the paper (Algorithm 1, line 24) fixes the embedding update to
``table[rows] -= lr * (grad + noise)``.  Here the fused apply
(``repro.kernels.fused``) is the only embedding update of the private
trainers: ``fused_noisy_update`` in LazyDP's step, ``apply_sparse_update``
in the release walk and the eager baselines.  The non-private
``SGDTrainer`` spells the same rule inline.  Dense parameters take their
noise every step and are free to use any rule.
"""

from __future__ import annotations

import numpy as np

from ..nn.parameter import Parameter


class DenseOptimizer:
    """Base class for dense (full-tensor) update rules."""

    def __init__(self, learning_rate: float):
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = float(learning_rate)

    def update(self, param: Parameter, grad: np.ndarray) -> None:
        raise NotImplementedError

    def state_bytes(self) -> int:
        """Optimizer-state footprint (for the memory model)."""
        return 0


class DenseSGD(DenseOptimizer):
    """theta <- theta - lr * g  (stateless, linear)."""

    def update(self, param: Parameter, grad: np.ndarray) -> None:
        param.data -= self.learning_rate * grad


class DenseMomentum(DenseOptimizer):
    """Polyak momentum: v <- mu v + g;  theta <- theta - lr v."""

    def __init__(self, learning_rate: float, momentum: float = 0.9):
        super().__init__(learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = float(momentum)
        self._velocity: dict = {}

    def update(self, param: Parameter, grad: np.ndarray) -> None:
        velocity = self._velocity.get(param.name)
        if velocity is None:
            velocity = np.zeros_like(param.data)
        velocity = self.momentum * velocity + grad
        self._velocity[param.name] = velocity
        param.data -= self.learning_rate * velocity

    def state_bytes(self) -> int:
        return int(sum(v.nbytes for v in self._velocity.values()))
