"""Tests for the RDP accountant (subsampled Gaussian mechanism)."""

import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.privacy import (
    DEFAULT_ORDERS,
    RDPAccountant,
    compute_rdp,
    rdp_gaussian,
    rdp_sampled_gaussian,
    rdp_to_epsilon,
)


class TestSampledGaussianRDP:
    def test_zero_sampling_rate_is_free(self):
        assert rdp_sampled_gaussian(0.0, 1.0, 8) == 0.0

    def test_full_batch_matches_gaussian(self):
        for alpha in (2, 8, 32):
            assert rdp_sampled_gaussian(1.0, 1.3, alpha) == pytest.approx(
                rdp_gaussian(1.3, alpha)
            )

    def test_zero_noise_is_infinite(self):
        assert rdp_sampled_gaussian(0.5, 0.0, 2) == float("inf")

    def test_monotone_in_q(self):
        values = [rdp_sampled_gaussian(q, 1.1, 8) for q in (0.01, 0.1, 0.5, 1.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_antitone_in_sigma(self):
        values = [rdp_sampled_gaussian(0.1, s, 8) for s in (0.8, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_subsampling_amplifies_privacy(self):
        q = 0.01
        subsampled = rdp_sampled_gaussian(q, 1.0, 4)
        full = rdp_gaussian(1.0, 4)
        assert subsampled < full * q  # much better than linear scaling

    def test_small_q_quadratic_behaviour(self):
        """For q -> 0 the leading term is O(q^2 alpha / sigma^2)."""
        sigma, alpha = 1.0, 4
        rdp_small = rdp_sampled_gaussian(1e-4, sigma, alpha)
        rdp_half = rdp_sampled_gaussian(5e-5, sigma, alpha)
        assert rdp_small / rdp_half == pytest.approx(4.0, rel=0.1)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            rdp_sampled_gaussian(0.1, 1.0, 1)
        with pytest.raises(ValueError):
            rdp_sampled_gaussian(0.1, 1.0, 0.5)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            rdp_sampled_gaussian(1.5, 1.0, 2)

    def test_nonnegative(self):
        for q in (0.001, 0.1, 0.9):
            for alpha in (1.5, 2, 16, 128):
                assert rdp_sampled_gaussian(q, 2.0, alpha) >= 0.0


class TestFractionalOrders:
    """The erfc-series computation for non-integer alpha."""

    @pytest.mark.parametrize("alpha", [2, 3, 5, 16])
    def test_continuity_at_integer_orders(self, alpha):
        """Fractional formula just off an integer ~= integer formula."""
        q, sigma = 0.01, 1.1
        exact = rdp_sampled_gaussian(q, sigma, alpha)
        near = rdp_sampled_gaussian(q, sigma, alpha + 1e-6)
        assert near == pytest.approx(exact, rel=1e-3)

    def test_fractional_matches_frac_formula_directly(self):
        from repro.privacy.accountant import _rdp_sampled_gaussian_frac
        assert rdp_sampled_gaussian(0.02, 1.3, 2.5) == pytest.approx(
            _rdp_sampled_gaussian_frac(0.02, 1.3, 2.5)
        )

    def test_rdp_nondecreasing_in_alpha(self):
        """epsilon(alpha) is nondecreasing in alpha for any mechanism."""
        q, sigma = 0.01, 1.1
        orders = [1.25, 1.5, 1.75, 2, 2.5, 3, 4.5, 8, 16]
        values = [rdp_sampled_gaussian(q, sigma, a) for a in orders]
        for low, high in zip(values, values[1:]):
            assert high >= low * (1 - 1e-9)

    def test_terminates_where_sigma_squared_is_subnormal(self):
        """sigma^2 at or just above the smallest normal double, but not
        zero: from i = 2 the terms of the series overflow to NaN, which
        its stopping rule never meets.  At every (sigma, q, alpha) point
        of that band at the fractional orders from 2.25 up the series
        must end, at inf or (sigma^2 still normal, low orders) at a
        bound past 1e300; the scan runs in a child process under a
        wall-clock bound, so a regression fails here instead of hanging
        the suite (the whole scan takes well under a second)."""
        scan = textwrap.dedent("""
            import math
            from repro.privacy import DEFAULT_ORDERS, rdp_sampled_gaussian
            orders = [a for a in DEFAULT_ORDERS if a >= 2.25 and a != int(a)]
            values = [
                rdp_sampled_gaussian(q, sigma, alpha)
                for sigma in (1e-160, 1e-158, 1e-156, 1e-155, 1.5e-154)
                for q in (1e-4, 0.01, 0.1, 0.5, 0.99)
                for alpha in orders
            ]
            print(len(values), sum(value == math.inf for value in values),
                  sum(value < 1e300 for value in values))
        """)
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", scan], capture_output=True, text=True,
            timeout=60, env=env, check=True,
        )
        assert done.stdout.split() == ["200", "185", "0"]

    def test_fractional_q1_matches_gaussian(self):
        assert rdp_sampled_gaussian(1.0, 2.0, 1.5) == pytest.approx(
            rdp_gaussian(2.0, 1.5)
        )

    def test_low_orders_tighten_small_budgets(self):
        """With many steps at moderate q, some optimum lands below the
        integer grid — fractional orders must not hurt and often help."""
        rdp = compute_rdp(0.05, 4.0, 5000)
        epsilon, best_order = rdp_to_epsilon(rdp, 1e-5)
        assert epsilon > 0
        integer_only = [o for o in DEFAULT_ORDERS if float(o) == int(o)]
        rdp_int = compute_rdp(0.05, 4.0, 5000, orders=integer_only)
        eps_int, _ = rdp_to_epsilon(rdp_int, 1e-5, orders=integer_only)
        assert epsilon <= eps_int + 1e-12


class TestComputeRDP:
    def test_linear_in_steps(self):
        one = compute_rdp(0.01, 1.1, 1)
        hundred = compute_rdp(0.01, 1.1, 100)
        np.testing.assert_allclose(hundred, 100 * one)

    def test_zero_steps(self):
        assert np.all(compute_rdp(0.01, 1.1, 0) == 0.0)

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            compute_rdp(0.01, 1.1, -1)


class TestEpsilonConversion:
    def test_epsilon_positive_and_finite(self):
        rdp = compute_rdp(0.01, 1.1, 1000)
        epsilon, order = rdp_to_epsilon(rdp, 1e-5)
        assert 0.0 < epsilon < 100.0
        assert order in DEFAULT_ORDERS

    def test_epsilon_grows_with_steps(self):
        eps = [
            rdp_to_epsilon(compute_rdp(0.01, 1.1, steps), 1e-5)[0]
            for steps in (10, 100, 1000, 10000)
        ]
        assert all(a < b for a, b in zip(eps, eps[1:]))

    def test_epsilon_shrinks_with_sigma(self):
        eps = [
            rdp_to_epsilon(compute_rdp(0.01, sigma, 1000), 1e-5)[0]
            for sigma in (0.8, 1.1, 2.0, 4.0)
        ]
        assert all(a > b for a, b in zip(eps, eps[1:]))

    def test_epsilon_grows_as_delta_shrinks(self):
        rdp = compute_rdp(0.01, 1.1, 1000)
        eps_loose = rdp_to_epsilon(rdp, 1e-3)[0]
        eps_tight = rdp_to_epsilon(rdp, 1e-9)[0]
        assert eps_tight > eps_loose

    def test_rejects_bad_delta(self):
        rdp = compute_rdp(0.01, 1.1, 10)
        with pytest.raises(ValueError):
            rdp_to_epsilon(rdp, 0.0)
        with pytest.raises(ValueError):
            rdp_to_epsilon(rdp, 1.0)

    def test_gaussian_mechanism_sanity(self):
        """One full-batch step with sigma=1 at delta=1e-5: eps ~ a few.

        The classical bound for the Gaussian mechanism gives
        eps ~ sqrt(2 ln(1.25/delta))/sigma ~ 4.8; RDP should land in the
        same ballpark (and not be wildly off in either direction).
        """
        rdp = compute_rdp(1.0, 1.0, 1)
        epsilon, _ = rdp_to_epsilon(rdp, 1e-5)
        assert 2.0 < epsilon < 8.0

    def test_matches_known_opacus_ballpark(self):
        """sigma=1.1, q=256/60000, 1 epoch-ish of MNIST steps.

        Opacus' tutorial setting reports eps ~ 1 after ~1 epoch at
        delta=1e-5; assert the same order of magnitude.
        """
        q = 256 / 60000
        steps = 60000 // 256
        rdp = compute_rdp(q, 1.1, steps)
        epsilon, _ = rdp_to_epsilon(rdp, 1e-5)
        assert 0.3 < epsilon < 2.0


def analytic_gaussian_delta(sigma, epsilon):
    """Exact delta of the sensitivity-1 Gaussian mechanism at epsilon
    (Balle & Wang, ICML 2018): Phi(1/(2s) - e s) - e^e Phi(-1/(2s) - e s).
    A test-local oracle; the library ships only the RDP accountant."""
    from scipy.stats import norm

    a = 1.0 / (2.0 * sigma)
    b = epsilon * sigma
    return float(norm.cdf(a - b) - np.exp(epsilon) * norm.cdf(-a - b))


def analytic_gaussian_epsilon(sigma, delta, tolerance=1e-12):
    """Smallest epsilon at which the mechanism is (epsilon, delta)-DP,
    by bisection on the decreasing delta profile."""
    if analytic_gaussian_delta(sigma, 0.0) <= delta:
        return 0.0
    low, high = 0.0, 1.0
    while analytic_gaussian_delta(sigma, high) > delta:
        high *= 2.0
    while high - low > tolerance * max(1.0, high):
        mid = 0.5 * (low + high)
        if analytic_gaussian_delta(sigma, mid) > delta:
            low = mid
        else:
            high = mid
    return high


class TestAgainstAnalyticGaussian:
    def test_rdp_upper_bounds_analytic_single_step(self):
        """RDP composition is a bound: for one full-batch Gaussian step
        the accountant's epsilon must dominate the exact value."""
        for sigma in (0.8, 1.0, 2.0, 4.0):
            exact = analytic_gaussian_epsilon(sigma, 1e-5)
            rdp = compute_rdp(q=1.0, noise_multiplier=sigma, steps=1)
            bound, _ = rdp_to_epsilon(rdp, 1e-5)
            assert bound >= exact * 0.999

    def test_rdp_bound_is_not_wildly_loose(self):
        """...but should stay within ~2x of exact for moderate sigma."""
        sigma = 2.0
        exact = analytic_gaussian_epsilon(sigma, 1e-5)
        rdp = compute_rdp(q=1.0, noise_multiplier=sigma, steps=1)
        bound, _ = rdp_to_epsilon(rdp, 1e-5)
        assert bound < 2.0 * exact

class TestAccountant:
    def test_steps_accumulate_and_coalesce(self):
        accountant = RDPAccountant()
        for _ in range(5):
            accountant.step(1.1, 0.01)
        assert accountant.steps == 5
        assert len(accountant._history) == 1

    def test_heterogeneous_runs(self):
        accountant = RDPAccountant()
        accountant.step(1.1, 0.01, count=10)
        accountant.step(2.0, 0.01, count=10)
        assert accountant.steps == 20
        assert len(accountant._history) == 2

    def test_matches_direct_computation(self):
        accountant = RDPAccountant()
        accountant.step(1.1, 0.02, count=500)
        direct = compute_rdp(0.02, 1.1, 500)
        np.testing.assert_allclose(accountant.total_rdp(), direct)
        assert accountant.get_epsilon(1e-5) == pytest.approx(
            rdp_to_epsilon(direct, 1e-5)[0]
        )

    def test_get_privacy_spent_returns_order(self):
        accountant = RDPAccountant()
        accountant.step(1.1, 0.01, count=100)
        epsilon, order = accountant.get_privacy_spent(1e-5)
        assert epsilon > 0
        assert order >= 2

    def test_rejects_bad_count(self):
        accountant = RDPAccountant()
        with pytest.raises(ValueError):
            accountant.step(1.1, 0.01, count=0)

    def test_sequential_composition_additivity(self):
        split = RDPAccountant()
        split.step(1.1, 0.01, count=300)
        split.step(1.1, 0.01, count=700)
        joint = RDPAccountant()
        joint.step(1.1, 0.01, count=1000)
        np.testing.assert_allclose(split.total_rdp(), joint.total_rdp())
