"""Renyi-DP accounting for the subsampled Gaussian mechanism.

Tracks the privacy budget of DP-SGD training the way Opacus does: each
iteration applies the Gaussian mechanism to a Poisson-subsampled batch with
rate ``q`` and noise multiplier ``sigma``; the Renyi divergence bound at a
grid of orders ``alpha`` accumulates additively over iterations, and is
finally converted to an ``(epsilon, delta)`` guarantee.

The integer-order RDP of the sampled Gaussian mechanism follows Mironov,
Talwar & Zhang, "Renyi Differential Privacy of the Sampled Gaussian
Mechanism" (2019), Section 3.3:

    A(alpha) = sum_{k=0}^{alpha} C(alpha, k) (1-q)^{alpha-k} q^k
               * exp( (k^2 - k) / (2 sigma^2) )
    RDP(alpha) = log(A(alpha)) / (alpha - 1)

computed in log space for stability.  LazyDP changes *when* noise lands in
the table, not how much noise the mechanism injects per iteration, so its
accounting is identical to DP-SGD's — asserting that is one of the
equivalence tests.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import binom, gammaln, log_ndtr, logsumexp

#: Default Renyi orders: fractional low orders (tight for small budgets,
#: as in Opacus), a dense integer range, plus sparse high orders (tight
#: for large budgets / small q).
DEFAULT_ORDERS = (
    (1.25, 1.5, 1.75, 2.25, 2.5, 2.75, 3.5, 4.5, 5.5, 6.5, 7.5)
    + tuple(range(2, 129))
    + (160, 192, 256, 384, 512)
)


def _log_binom(n: int, k: np.ndarray) -> np.ndarray:
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)


def _log_add(log_a: float, log_b: float) -> float:
    """log(e^a + e^b), stable."""
    if log_a == -math.inf:
        return log_b
    if log_b == -math.inf:
        return log_a
    high, low = max(log_a, log_b), min(log_a, log_b)
    return high + math.log1p(math.exp(low - high))


def _log_sub(log_a: float, log_b: float) -> float:
    """log(e^a - e^b) for a >= b, stable."""
    if log_b == -math.inf:
        return log_a
    if log_a == log_b:
        return -math.inf
    if log_b > log_a:
        raise ValueError("log_sub requires a >= b")
    return log_a + math.log1p(-math.exp(log_b - log_a))


def _log_erfc(x: float) -> float:
    """log(erfc(x)) via the normal log-CDF: erfc(x) = 2 Phi(-x sqrt(2))."""
    return math.log(2.0) + float(log_ndtr(-x * math.sqrt(2.0)))


def rdp_gaussian(noise_multiplier: float, alpha: float) -> float:
    """RDP of the (unsampled) Gaussian mechanism: alpha / (2 sigma^2)."""
    if noise_multiplier <= 0:
        return float("inf")
    return alpha / (2.0 * noise_multiplier ** 2)


def _rdp_sampled_gaussian_frac(q: float, noise_multiplier: float,
                               alpha: float) -> float:
    """Fractional-order RDP of the sampled Gaussian mechanism.

    Implements the convergent double series of Mironov, Talwar & Zhang
    (2019), Section 3.3 (the ``_compute_log_a_frac`` computation of
    tensorflow-privacy / Opacus): the generalised binomial expansion of
    A(alpha) with each term's Gaussian tail integral expressed through
    erfc, accumulated in log space with sign handling until the terms
    fall below 2^-43.
    """
    sigma = noise_multiplier
    log_a0, log_a1 = -math.inf, -math.inf
    z0 = sigma ** 2 * math.log(1.0 / q - 1.0) + 0.5
    i = 0
    while True:
        coef = float(binom(alpha, i))
        if coef == 0.0:
            break
        log_coef = math.log(abs(coef))
        j = alpha - i
        log_t0 = log_coef + i * math.log(q) + j * math.log1p(-q)
        log_t1 = log_coef + j * math.log(q) + i * math.log1p(-q)
        log_e0 = math.log(0.5) + _log_erfc((i - z0) / (math.sqrt(2) * sigma))
        log_e1 = math.log(0.5) + _log_erfc((z0 - j) / (math.sqrt(2) * sigma))
        log_s0 = log_t0 + (i * i - i) / (2.0 * sigma ** 2) + log_e0
        log_s1 = log_t1 + (j * j - j) / (2.0 * sigma ** 2) + log_e1
        if not (log_s0 < math.inf and log_s1 < math.inf):
            # A NaN or +inf term (sigma^2 so small, if not zero, that
            # (i^2 - i) / (2 sigma^2) overflows) has no finite sum, and
            # no NaN ever meets the stopping rule below.
            return math.inf
        if coef > 0:
            log_a0 = _log_add(log_a0, log_s0)
            log_a1 = _log_add(log_a1, log_s1)
        else:
            log_a0 = _log_sub(log_a0, log_s0)
            log_a1 = _log_sub(log_a1, log_s1)
        i += 1
        if max(log_s0, log_s1) < -30 and i > alpha:
            break
    log_a = _log_add(log_a0, log_a1)
    return float(max(log_a, 0.0) / (alpha - 1))


def rdp_sampled_gaussian(q: float, noise_multiplier: float,
                         alpha: float) -> float:
    """Per-step RDP at order ``alpha`` (> 1) under Poisson sampling.

    Integer orders use the exact binomial formula; fractional orders use
    the erfc series (both from Mironov et al. 2019).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("sampling rate q must be in [0, 1]")
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    if q == 0.0:
        return 0.0
    # sigma^2 underflowing to zero (subnormal sigma) means no effective
    # noise: the mechanism provides no Renyi guarantee.
    if noise_multiplier <= 0 or noise_multiplier ** 2 == 0.0:
        return float("inf")
    if q == 1.0:
        return rdp_gaussian(noise_multiplier, alpha)
    if float(alpha) != int(alpha):
        return _rdp_sampled_gaussian_frac(q, noise_multiplier, float(alpha))
    alpha = int(alpha)
    k = np.arange(alpha + 1, dtype=np.float64)
    # Subnormal sigma underflows 2*sigma^2 to zero; the resulting inf is
    # the mathematically correct RDP, so the divide warning is spurious.
    with np.errstate(divide="ignore", invalid="ignore"):
        log_terms = (
            _log_binom(alpha, k)
            + (alpha - k) * np.log1p(-q)
            + k * np.log(q)
            + (k * k - k) / (2.0 * noise_multiplier ** 2)
        )
    log_terms = np.where(np.isnan(log_terms), np.inf, log_terms)
    log_a = logsumexp(log_terms)
    return float(max(log_a, 0.0) / (alpha - 1))


def compute_rdp(q: float, noise_multiplier: float, steps: int,
                orders=DEFAULT_ORDERS) -> np.ndarray:
    """Cumulative RDP after ``steps`` iterations, one value per order."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    per_step = np.array(
        [rdp_sampled_gaussian(q, noise_multiplier, a) for a in orders],
        dtype=np.float64,
    )
    return per_step * steps


def rdp_to_epsilon(rdp: np.ndarray, delta: float,
                   orders=DEFAULT_ORDERS) -> tuple[float, float]:
    """Convert accumulated RDP to (epsilon, best_order) at a given delta.

    Uses the improved conversion of Balle et al. (2020) as implemented by
    Opacus:  eps = rdp - (log(delta) + log(alpha)) / (alpha - 1)
                  + log((alpha - 1) / alpha),
    minimised over orders.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    orders = np.asarray(orders, dtype=np.float64)
    rdp = np.asarray(rdp, dtype=np.float64)
    if orders.shape != rdp.shape:
        raise ValueError("orders and rdp must align")
    epsilons = (
        rdp
        - (np.log(delta) + np.log(orders)) / (orders - 1)
        + np.log((orders - 1) / orders)
    )
    epsilons = np.where(np.isnan(epsilons), np.inf, epsilons)
    best = int(np.argmin(epsilons))
    return float(max(epsilons[best], 0.0)), float(orders[best])


class RDPAccountant:
    """Stateful accountant mirroring ``opacus.accountants.RDPAccountant``."""

    def __init__(self, orders=DEFAULT_ORDERS):
        self.orders = tuple(orders)
        self._history: list = []  # (q, sigma, steps) runs, coalesced

    def step(self, noise_multiplier: float, sample_rate: float,
             count: int = 1) -> None:
        """Record ``count`` mechanism applications."""
        if count < 1:
            raise ValueError("count must be positive")
        if self._history:
            q, sigma, steps = self._history[-1]
            if q == sample_rate and sigma == noise_multiplier:
                self._history[-1] = (q, sigma, steps + count)
                return
        self._history.append((sample_rate, noise_multiplier, count))

    @property
    def steps(self) -> int:
        return int(sum(steps for _, _, steps in self._history))

    def total_rdp(self) -> np.ndarray:
        total = np.zeros(len(self.orders), dtype=np.float64)
        for q, sigma, steps in self._history:
            total += compute_rdp(q, sigma, steps, self.orders)
        return total

    def get_epsilon(self, delta: float) -> float:
        epsilon, _ = rdp_to_epsilon(self.total_rdp(), delta, self.orders)
        return epsilon

    def get_privacy_spent(self, delta: float) -> tuple[float, float]:
        """(epsilon, best_alpha) after all recorded steps."""
        return rdp_to_epsilon(self.total_rdp(), delta, self.orders)
