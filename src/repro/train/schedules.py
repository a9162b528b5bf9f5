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

``ScheduledDPSGDFTrainer`` / ``ScheduledLazyDPTrainer`` implement the
eager and lazy sides; their exact equivalence (ANS off) is tested in
``tests/test_schedules.py``, quantified over schedules.  Plain
``LazyDPTrainer`` deliberately has no schedule hook.
"""

from __future__ import annotations

import numpy as np

from ..kernels import apply_sparse_update
from ..lazydp.trainer import LazyDPTrainer
from ..train.common import DPConfig, merge_sparse_updates
from ..train.dpsgd import DPSGDFTrainer


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


class ScheduledDPSGDFTrainer(DPSGDFTrainer):
    """Eager DP-SGD(F) under a learning-rate schedule.

    Eager noise needs no special treatment: iteration ``k`` applies
    ``- eta_k * (grad + n_k)`` and the base-class hooks already consult
    ``_learning_rate(iteration)``.
    """

    name = "dpsgd_f_scheduled"

    def __init__(
        self, model, config: DPConfig, schedule: LRSchedule, noise_seed: int = 1234
    ):
        super().__init__(model, config, noise_seed)
        self.schedule = schedule


class ScheduledLazyDPTrainer(LazyDPTrainer):
    """LazyDP under a learning-rate schedule, with origin-scaled noise."""

    name = "lazydp_scheduled"

    def __init__(
        self,
        model,
        config: DPConfig,
        schedule: LRSchedule,
        noise_seed: int = 1234,
        use_ans: bool = True,
    ):
        super().__init__(model, config, noise_seed=noise_seed, use_ans=use_ans)
        self.schedule = schedule
        if not use_ans:
            self.name = "lazydp_scheduled_no_ans"

    # -- origin-scaled catch-up noise, already in theta-units --------------
    def _weighted_catchup(
        self,
        table_index: int,
        rows: np.ndarray,
        delays: np.ndarray,
        iteration: int,
        dim: int,
        noise_std: float,
    ) -> np.ndarray:
        engine = self.engine.ans
        if engine.enabled:
            raw = self.noise_stream.aggregated_row_noise(
                table_index,
                rows,
                np.ones_like(delays),
                iteration,
                dim,
                std=1.0,
            )
            window = self.schedule.sum_squares_window(iteration, delays)
            engine.samples_drawn += rows.size * dim
            return raw * (noise_std * np.sqrt(window))[:, None]
        total = np.zeros((rows.size, dim), dtype=np.float64)
        max_delay = int(delays.max()) if delays.size else 0
        order = np.argsort(-delays, kind="stable")
        ordered_rows = rows[order]
        ordered_delays = delays[order]
        for lag in range(1, max_delay + 1):
            active = int(np.searchsorted(-ordered_delays, -lag, side="right"))
            if active == 0:
                break
            origin = iteration - lag + 1
            chunk = self.noise_stream.row_noise(
                table_index,
                ordered_rows[:active],
                origin,
                dim,
                std=noise_std,
            )
            total[order[:active]] += self.schedule.rate(origin) * chunk
            engine.samples_drawn += active * dim
        return total

    # Origin-scaled noise is spelled per table, on the trainer thread.
    _apply_embedding_updates = DPSGDFTrainer._apply_embedding_updates

    def _apply_embedding_dense_noisy_update(
        self, table_index: int, bag, sparse_grad, iteration: int, noise_std: float
    ) -> None:
        self._last_noise_std = noise_std
        lr_now = self._learning_rate(iteration)

        if self._next_batch is not None:
            with self.timer.time("lazydp_dedup"):
                next_rows = self._next_batch.accessed_rows(table_index)
            with self.timer.time("lazydp_history_read"):
                history = self.engine.histories[table_index]
                delays = history.delays(next_rows, iteration)
            with self.timer.time("lazydp_history_update"):
                history.mark_updated(next_rows, iteration)
            with self.timer.time("noise_sampling"):
                noise_values = self._weighted_catchup(
                    table_index,
                    next_rows,
                    delays,
                    iteration,
                    bag.dim,
                    noise_std,
                )
        else:
            next_rows = np.empty(0, dtype=np.int64)
            noise_values = np.zeros((0, bag.dim), dtype=np.float64)

        with self.timer.time("noisy_grad_generation"):
            # Gradient scaled by the current rate; catch-up noise already
            # carries its origin rates — merge in theta-units.
            rows, values = merge_sparse_updates(
                sparse_grad.rows,
                lr_now * sparse_grad.values,
                next_rows,
                noise_values,
            )
        with self.timer.time("noisy_grad_update"):
            bag.table.data[rows] -= values

    def finalize(self, final_iteration: int) -> None:
        if final_iteration == 0:
            return
        noise_std = self._flush_noise_std()
        with self.timer.time("terminal_flush"):
            for table_index, bag in enumerate(self.model.embeddings):
                history = self.engine.histories[table_index]
                pending = history.pending_rows(final_iteration)
                chunk_size = self.engine.flush_chunk_rows
                for start in range(0, pending.size, chunk_size):
                    rows = pending[start : start + chunk_size]
                    delays = history.delays(rows, final_iteration)
                    noise = self._weighted_catchup(
                        table_index,
                        rows,
                        delays,
                        final_iteration,
                        bag.dim,
                        noise_std,
                    )
                    # Already in theta-units (rate 1); consecutive rows
                    # take the kernel's slice path.
                    apply_sparse_update(
                        bag.table.data, rows, noise, 1.0, values_writable=True
                    )
                    history.mark_updated(rows, final_iteration)
            self.engine.flushed_through = int(final_iteration)
