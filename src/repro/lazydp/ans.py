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
"""

from __future__ import annotations

import numpy as np

from ..kernels import batched_catchup_sum
from ..rng import NoiseStream


class ANSEngine:
    """Draws catch-up noise for rows with heterogeneous delays.

    The draw counter is single-threaded state — per-shard engines each
    own their own, which is what keeps the parallel executors and the
    prefetch worker lock-free (the noise kernel's block scratch is
    per-thread, see :mod:`repro.rng.philox`).
    """

    def __init__(self, noise_stream: NoiseStream, enabled: bool = True):
        self.noise_stream = noise_stream
        self.enabled = bool(enabled)
        # Instrumentation: how many scalar Gaussian draws were requested.
        self.samples_drawn = 0

    def catchup_noise(
        self,
        table_index: int,
        rows: np.ndarray,
        delays: np.ndarray,
        iteration: int,
        dim: int,
        std: float,
    ) -> np.ndarray:
        """Noise equal (in value or in law) to the deferred per-iteration sum.

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
        if np.any(delays < 0):
            raise ValueError("delays must be non-negative")

        if self.enabled:
            self.samples_drawn += rows.size * dim
            return self.noise_stream.aggregated_row_noise(
                table_index, rows, delays, iteration, dim, std=std
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
