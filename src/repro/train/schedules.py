"""Learning-rate schedules, and how they interact with lazy noise.

The paper's Algorithm 1 assumes a constant learning rate.  Under a
schedule, eager DP-SGD applies ``- eta_k * n_k`` at every iteration
``k`` — so a *deferred* noise value must be scaled by the learning rate
of its **origin** iteration, not of the iteration where the catch-up
happens.  Getting this wrong breaks the paper's equivalence claim
silently: the trained model would drift from DP-SGD's even though the
privacy accounting (which only counts mechanism applications) looks
unchanged.

The correct generalisations of LazyDP's two ideas:

* **Lazy update (exact)** — the catch-up for a window of iterations
  ``[f..l]`` applies ``sum_k eta_k * n_k``, each draw scaled individually.
* **ANS** — since ``sum_k eta_k N(0, s^2) = N(0, s^2 * sum_k eta_k^2)``,
  one draw scaled by ``s * sqrt(sum eta_k^2)`` suffices; the prefix sums
  of ``eta^2`` make the per-row window sum O(1).

This module is the schedules only.  Every trainer takes one as
``schedule=`` (``TrainSession.build(..., schedule=)`` for LazyDP): the
eager trainers just read ``rate(iteration)`` each step, and LazyDP hands
it to its sample-stage mechanism (:class:`repro.lazydp.ans.ANSEngine`),
which does the origin weighting above inside the one lazy update — under
every execution plan, the flush, export and serving included.  Exact
equivalence (ANS off) against scheduled eager DP-SGD is tested in
``tests/test_schedules.py``, quantified over schedules.
"""

from __future__ import annotations

import numpy as np


class LRSchedule:
    """Base class: a learning rate per (1-based) iteration."""

    def rate(self, iteration: int) -> float:
        raise NotImplementedError

    # -- prefix machinery for lazy windows -------------------------------
    def __init__(self):
        self._prefix_sq = [0.0]  # prefix_sq[i] = sum_{k<=i} rate(k)^2

    def _extend_prefix(self, iteration: int) -> None:
        while len(self._prefix_sq) <= iteration:
            k = len(self._prefix_sq)
            self._prefix_sq.append(self._prefix_sq[-1] + self.rate(k) ** 2)

    def sum_squares_window(self, last_iteration: int, delays: np.ndarray) -> np.ndarray:
        """Per-row ``sum of rate(k)^2`` over ``[last-delay+1 .. last]``."""
        delays = np.asarray(delays, dtype=np.int64)
        if np.any(delays < 0):
            raise ValueError("delays must be non-negative")
        if np.any(delays > last_iteration):
            raise ValueError("delay reaches before iteration 1")
        self._extend_prefix(int(last_iteration))
        prefix = np.asarray(self._prefix_sq)
        return prefix[last_iteration] - prefix[last_iteration - delays]


class ConstantLR(LRSchedule):
    def __init__(self, learning_rate: float):
        super().__init__()
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = float(learning_rate)

    def rate(self, iteration: int) -> float:
        return self.learning_rate


class StepDecayLR(LRSchedule):
    """lr = base * factor^(floor((iteration-1) / step_size))."""

    def __init__(self, base: float, factor: float = 0.5, step_size: int = 10):
        super().__init__()
        if base <= 0 or not 0 < factor <= 1 or step_size < 1:
            raise ValueError("invalid step-decay parameters")
        self.base = float(base)
        self.factor = float(factor)
        self.step_size = int(step_size)

    def rate(self, iteration: int) -> float:
        if iteration < 1:
            raise ValueError("iterations are 1-based")
        return self.base * self.factor ** ((iteration - 1) // self.step_size)


class LinearWarmupLR(LRSchedule):
    """Linear ramp to ``base`` over ``warmup`` iterations, then constant."""

    def __init__(self, base: float, warmup: int = 5):
        super().__init__()
        if base <= 0 or warmup < 1:
            raise ValueError("invalid warmup parameters")
        self.base = float(base)
        self.warmup = int(warmup)

    def rate(self, iteration: int) -> float:
        if iteration < 1:
            raise ValueError("iterations are 1-based")
        return self.base * min(1.0, iteration / self.warmup)
