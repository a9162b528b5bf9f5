"""Aggregated Noise Sampling (paper Section 5.2.2, Theorem 5.1).

A row that deferred its noise for ``n`` iterations owes the sum of ``n``
i.i.d. ``N(0, s^2)`` draws.  Because that sum is itself ``N(0, n s^2)``,
ANS replaces ``n`` Box-Muller invocations with a single draw scaled by
``sqrt(n)`` — turning noise-sampling cost from O(total deferred updates)
into O(rows caught up), the second half of LazyDP's speedup (Figure 8).

With ANS disabled the engine reproduces Algorithm 1's fallback loop
(lines 31-35): it draws every deferred per-iteration value individually —
*the exact values* the eager baseline would have drawn, thanks to the
counter-keyed noise stream — and sums them.  This mode exists both as the
paper's ablation (LazyDP w/o ANS, Figure 10) and as the bridge that makes
lazy-vs-eager equivalence exactly testable.

Sampling is a pure keyed function of ``(rows, delays, iteration)``: it
can run anywhere, in any order relative to other draws, and yield the
same bits.  :meth:`repro.lazydp.optimizer.ShardState.plan_sample` pairs
it with the history read/advance that produces the delays.

Under a learning-rate schedule eager DP-SGD applies ``- rate(k) * n_k``
at every iteration ``k``, so a deferred draw must carry the rate of its
*origin* iteration, not of the iteration that catches it up.  The engine
then returns the deferred noise in units of the *current* rate,
``sum_k rate(k) / rate(i) * n_k``, so the one update everyone runs,
``table -= rate(i) * (grad + noise)``, is origin-scaled by construction.
ANS carries over because ``sum_k w_k N(0, s^2) = N(0, s^2 sum_k w_k^2)``:
one draw whose "delay" is the weighted window ``sum_k (rate(k) /
rate(i))^2``.  With no schedule every weight is 1 and the engine runs
exactly the unweighted instructions.

The engine is the sample stage's one mechanism object: a trainer builds
one prototype and every consumer — shard states, the release facade,
serving engines, worker processes — samples through its own
:meth:`ANSEngine.fork`.
"""

from __future__ import annotations

import copy

import numpy as np

from ..kernels import batched_catchup_sum
from ..rng import NoiseStream


class ANSEngine:
    """Draws catch-up noise for rows with heterogeneous delays.

    The draw counter is single-threaded state — per-shard engines each
    own their own, which is what keeps the parallel executors and the
    prefetch worker lock-free (the noise kernel's block scratch is
    per-thread, see :mod:`repro.rng.philox`).  ``schedule`` (an
    :class:`repro.train.schedules.LRSchedule`, or ``None`` for the
    constant rate) weights each deferred draw by its origin iteration's
    rate; its prefix-sum cache is single-threaded state too, which is
    why :meth:`fork` hands every consumer a private copy.
    """

    def __init__(
        self, noise_stream: NoiseStream, enabled: bool = True, schedule=None
    ):
        self.noise_stream = noise_stream
        self.enabled = bool(enabled)
        self.schedule = schedule
        # Instrumentation: how many scalar Gaussian draws were requested.
        self.samples_drawn = 0

    def fork(self) -> "ANSEngine":
        """The same mechanism — stream, mode, schedule — with a fresh
        draw counter and its own schedule prefix cache: what a consumer
        that samples on its own thread or in its own process holds.
        Forks draw identical bits for identical arguments."""
        schedule = copy.deepcopy(self.schedule)
        return ANSEngine(self.noise_stream, self.enabled, schedule)

    def catchup_noise(
        self,
        table_index: int,
        rows: np.ndarray,
        delays: np.ndarray,
        iteration: int,
        dim: int,
        std: float,
    ) -> np.ndarray:
        """Noise equal (in value or in law) to the deferred per-iteration
        sum, in units of ``iteration``'s learning rate.

        Parameters
        ----------
        table_index:
            Which embedding table the rows belong to.
        rows:
            Row indices being caught up (unique).
        delays:
            Per-row count of deferred noise updates; the catch-up covers
            iterations ``iteration - delays[k] + 1 .. iteration``.
        iteration:
            The iteration *through which* rows are being caught up.
        dim:
            Embedding dimension.
        std:
            Per-iteration noise std (sigma * C / B).
        """
        rows = np.asarray(rows, dtype=np.int64)
        delays = np.asarray(delays, dtype=np.int64)
        if rows.shape != delays.shape:
            raise ValueError("rows and delays must align")
        if rows.size == 0:
            return np.zeros((0, dim), dtype=np.float64)
        schedule = self.schedule
        # Checked once per draw: an ANS draw at a constant rate hands the
        # delays straight to the stream, whose entry point checks them.
        if (schedule is not None or not self.enabled) and np.any(delays < 0):
            raise ValueError("delays must be non-negative")

        if self.enabled:
            if schedule is not None:
                # One draw per row still: its "delay" is the window's
                # squared weights, sum_k (rate(k) / rate(iteration))^2.
                delays = (
                    schedule.sum_squares_window(iteration, delays)
                    / schedule.rate(iteration) ** 2
                )
            noise = self.noise_stream.aggregated_row_noise(
                table_index, rows, delays, iteration, dim, std=std
            )
            self.samples_drawn += rows.size * dim
            return noise
        if schedule is not None:
            return self._weighted_exact_sum(
                table_index, rows, delays, iteration, dim, std
            )
        return self._exact_sum(table_index, rows, delays, iteration, dim, std)

    def _exact_sum(
        self,
        table_index: int,
        rows: np.ndarray,
        delays: np.ndarray,
        iteration: int,
        dim: int,
        std: float,
    ) -> np.ndarray:
        """Sum each row's individually-keyed deferred draws (no ANS).

        Every ``(row, lag)`` value is generated in one flattened Philox
        invocation and segment-summed (``repro.kernels.sampler``) —
        O(1) kernel launches instead of the historical one-per-lag loop,
        for the same draws.  Total draw count is still ``sum(delays)``,
        the cost profile of LazyDP w/o ANS.
        """
        total = batched_catchup_sum(
            self.noise_stream,
            table_index,
            rows,
            delays,
            iteration,
            dim,
            std=std,
        )
        self.samples_drawn += int(delays.sum()) * dim
        return total

    def _weighted_exact_sum(
        self,
        table_index: int,
        rows: np.ndarray,
        delays: np.ndarray,
        iteration: int,
        dim: int,
        std: float,
    ) -> np.ndarray:
        """:meth:`_exact_sum` under a schedule: the draw of origin
        iteration ``k`` enters weighted ``rate(k) / rate(iteration)``.

        Walks the window in runs of equal rate, most recent first: a
        run's draws share one weight, so each run is one unweighted
        :meth:`_exact_sum` (through the run's last iteration, for the
        part of every row's window that falls inside it) times that
        weight.  A constant schedule is a single run of weight exactly
        1 — the unscheduled bits; a step decay costs one batched draw
        per step boundary crossed, not one per lag.
        """
        rate = self.schedule.rate
        current = rate(iteration)
        total = np.zeros((rows.size, dim), dtype=np.float64)
        first = iteration - delays + 1  # per row, the oldest origin owed
        oldest = int(first.min())
        end = iteration
        while end >= oldest:
            weight = rate(end)
            start = end
            while start > oldest and rate(start - 1) == weight:
                start -= 1
            inside = np.maximum(end - np.maximum(first, start) + 1, 0)
            total += (weight / current) * self._exact_sum(
                table_index, rows, inside, end, dim, std
            )
            end = start - 1
        return total
