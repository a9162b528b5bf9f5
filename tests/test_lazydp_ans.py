"""Tests for the Aggregated Noise Sampling engine (Theorem 5.1)."""

import numpy as np
import pytest
from scipy import stats

from repro.lazydp import ANSEngine
from repro.rng import NoiseStream


@pytest.fixture
def stream():
    return NoiseStream(seed=77)


class TestExactMode:
    """ANS disabled: the engine must reproduce the eager noise exactly."""

    def test_equals_row_noise_sum(self, stream):
        engine = ANSEngine(stream, enabled=False)
        rows = np.array([4, 9])
        delays = np.array([3, 3])
        noise = engine.catchup_noise(0, rows, delays, iteration=5, dim=8,
                                     std=0.5)
        expected = stream.row_noise_sum(0, rows, 3, 5, dim=8, std=0.5)
        np.testing.assert_allclose(noise, expected)

    def test_heterogeneous_delays(self, stream):
        """Rows with different delays each get exactly their own range."""
        engine = ANSEngine(stream, enabled=False)
        rows = np.array([1, 2, 3])
        delays = np.array([1, 4, 2])
        noise = engine.catchup_noise(1, rows, delays, iteration=10, dim=4,
                                     std=1.0)
        for i, (row, delay) in enumerate(zip(rows, delays)):
            expected = stream.row_noise_sum(
                1, np.array([row]), 10 - delay + 1, 10, dim=4
            )[0]
            np.testing.assert_allclose(noise[i], expected)

    def test_zero_delay_rows_get_zero(self, stream):
        engine = ANSEngine(stream, enabled=False)
        noise = engine.catchup_noise(
            0, np.array([1, 2]), np.array([0, 2]), 5, 4, 1.0
        )
        assert np.all(noise[0] == 0.0)

    def test_draw_count_equals_total_delays(self, stream):
        """Without ANS, cost is proportional to the sum of delays."""
        engine = ANSEngine(stream, enabled=False)
        rows = np.array([0, 1, 2])
        delays = np.array([5, 1, 3])
        engine.catchup_noise(0, rows, delays, 6, dim=4, std=1.0)
        assert engine.samples_drawn == delays.sum() * 4

    def test_order_invariance(self, stream):
        """Row order must not change any row's catch-up value."""
        engine = ANSEngine(stream, enabled=False)
        rows = np.array([3, 8, 5])
        delays = np.array([2, 7, 4])
        forward = engine.catchup_noise(0, rows, delays, 9, 4, 1.0)
        backward = ANSEngine(stream, enabled=False).catchup_noise(
            0, rows[::-1].copy(), delays[::-1].copy(), 9, 4, 1.0
        )
        np.testing.assert_allclose(forward, backward[::-1])


class TestANSMode:
    def test_draw_count_is_one_per_row(self, stream):
        """With ANS, cost is proportional to caught-up rows only."""
        engine = ANSEngine(stream, enabled=True)
        rows = np.array([0, 1, 2])
        delays = np.array([50, 100, 3])
        engine.catchup_noise(0, rows, delays, 101, dim=4, std=1.0)
        assert engine.samples_drawn == 3 * 4

    def test_variance_matches_theorem(self, stream):
        """Var(single ANS draw) == delay * sigma^2 (Theorem 5.1)."""
        engine = ANSEngine(stream, enabled=True)
        rows = np.arange(3000)
        for delay in (2, 9):
            noise = engine.catchup_noise(
                0, rows, np.full(3000, delay), iteration=1, dim=8, std=1.0
            )
            assert noise.ravel().std() == pytest.approx(
                np.sqrt(delay), rel=0.02
            )

    def test_distribution_matches_exact_sum(self, stream):
        """ANS and the exact sum are different draws of the SAME law."""
        rows = np.arange(4000)
        delays = np.full(4000, 5)
        exact = ANSEngine(stream, enabled=False).catchup_noise(
            0, rows, delays, 5, dim=4, std=1.0
        )
        aggregated = ANSEngine(stream, enabled=True).catchup_noise(
            0, rows, delays, 5, dim=4, std=1.0
        )
        _, p_value = stats.ks_2samp(exact.ravel(), aggregated.ravel())
        assert p_value > 0.001

    def test_empty_rows(self, stream):
        engine = ANSEngine(stream)
        noise = engine.catchup_noise(
            0, np.array([], dtype=np.int64), np.array([], dtype=np.int64),
            1, 8, 1.0,
        )
        assert noise.shape == (0, 8)

    def test_rejects_negative_delays(self, stream):
        with pytest.raises(ValueError):
            ANSEngine(stream).catchup_noise(
                0, np.array([1]), np.array([-2]), 1, 4, 1.0
            )

    def test_rejects_misaligned(self, stream):
        with pytest.raises(ValueError):
            ANSEngine(stream).catchup_noise(
                0, np.array([1, 2]), np.array([1]), 1, 4, 1.0
            )


class TestUnderASchedule:
    """With an LR schedule the engine returns the deferred noise in units
    of the catch-up iteration's rate, each draw weighted by its origin's."""

    def schedule(self):
        from repro.train.schedules import StepDecayLR

        return StepDecayLR(0.2, factor=0.5, step_size=3)

    def test_exact_mode_weights_each_origin(self, stream):
        schedule = self.schedule()
        engine = ANSEngine(stream, enabled=False, schedule=schedule)
        rows = np.array([4, 9, 17, 2])
        delays = np.array([1, 8, 5, 0])
        noise = engine.catchup_noise(0, rows, delays, 8, dim=4, std=0.5)
        for k, (row, delay) in enumerate(zip(rows, delays)):
            expected = np.zeros(4)
            for origin in range(8 - delay + 1, 9):
                expected += (
                    schedule.rate(origin) / schedule.rate(8)
                    * stream.row_noise(0, np.array([row]), origin, 4, std=0.5)[0]
                )
            np.testing.assert_allclose(noise[k], expected, atol=1e-12)
        assert engine.samples_drawn == delays.sum() * 4

    def test_ans_scales_the_unit_draw_by_the_weighted_window(self, stream):
        schedule = self.schedule()
        engine = ANSEngine(stream, enabled=True, schedule=schedule)
        rows = np.array([4, 9, 17])
        delays = np.array([1, 8, 0])
        noise = engine.catchup_noise(0, rows, delays, 8, dim=4, std=0.5)
        unit = stream.aggregated_row_noise(0, rows, np.ones(3), 8, 4, std=1.0)
        window = schedule.sum_squares_window(8, delays)
        scale = 0.5 * np.sqrt(window) / schedule.rate(8)
        np.testing.assert_allclose(noise, unit * scale[:, None], rtol=1e-12)
        assert np.all(noise[2] == 0.0)

    def test_constant_schedule_is_the_unscheduled_draw(self, stream):
        from repro.train.schedules import ConstantLR

        rows = np.array([3, 8, 5])
        delays = np.array([2, 7, 4])
        plain = ANSEngine(stream, enabled=False).catchup_noise(
            0, rows, delays, 9, dim=8, std=0.1
        )
        constant = ANSEngine(
            stream, enabled=False, schedule=ConstantLR(0.05)
        ).catchup_noise(0, rows, delays, 9, dim=8, std=0.1)
        np.testing.assert_array_equal(constant, plain)
