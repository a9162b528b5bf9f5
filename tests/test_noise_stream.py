"""Tests for the coordinate-keyed NoiseStream.

The stream's defining property — values are pure functions of their
coordinates — is what turns the paper's equivalence argument into exact
assertions, so these tests are strict about independence across every axis.
"""

import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.rng import NoiseStream, philox_invocations
from repro.rng.philox import BLOCK


@pytest.fixture
def stream():
    return NoiseStream(seed=1234)


class TestRowNoise:
    def test_shape(self, stream):
        noise = stream.row_noise(0, np.arange(5), iteration=1, dim=7)
        assert noise.shape == (5, 7)

    def test_deterministic(self, stream):
        rows = np.array([3, 17, 42])
        a = stream.row_noise(1, rows, iteration=4, dim=8)
        b = stream.row_noise(1, rows, iteration=4, dim=8)
        assert np.array_equal(a, b)

    def test_independent_of_batch_composition(self, stream):
        """Row 17's noise must not depend on which rows accompany it."""
        alone = stream.row_noise(0, np.array([17]), iteration=2, dim=8)
        grouped = stream.row_noise(0, np.array([3, 17, 99]), iteration=2, dim=8)
        assert np.array_equal(alone[0], grouped[1])

    def test_varies_with_iteration(self, stream):
        rows = np.array([5])
        a = stream.row_noise(0, rows, iteration=1, dim=8)
        b = stream.row_noise(0, rows, iteration=2, dim=8)
        assert not np.array_equal(a, b)

    def test_varies_with_table(self, stream):
        rows = np.array([5])
        a = stream.row_noise(0, rows, iteration=1, dim=8)
        b = stream.row_noise(1, rows, iteration=1, dim=8)
        assert not np.array_equal(a, b)

    def test_varies_with_row(self, stream):
        noise = stream.row_noise(0, np.array([1, 2]), iteration=1, dim=8)
        assert not np.array_equal(noise[0], noise[1])

    def test_varies_with_seed(self):
        rows = np.array([5])
        a = NoiseStream(1).row_noise(0, rows, 1, 8)
        b = NoiseStream(2).row_noise(0, rows, 1, 8)
        assert not np.array_equal(a, b)

    def test_std_scaling(self, stream):
        unit = stream.row_noise(0, np.array([9]), 3, 16, std=1.0)
        scaled = stream.row_noise(0, np.array([9]), 3, 16, std=2.5)
        np.testing.assert_allclose(scaled, 2.5 * unit)

    def test_dim_prefix_property(self, stream):
        """Asking for fewer lanes returns a prefix of the wider request."""
        wide = stream.row_noise(0, np.array([4]), 1, 16)
        narrow = stream.row_noise(0, np.array([4]), 1, 8)
        assert np.array_equal(wide[:, :8], narrow)

    def test_non_multiple_of_four_dim(self, stream):
        noise = stream.row_noise(0, np.arange(3), 1, dim=5)
        assert noise.shape == (3, 5)

    def test_empty_rows(self, stream):
        noise = stream.row_noise(0, np.array([], dtype=np.int64), 1, 8)
        assert noise.shape == (0, 8)

    def test_rejects_bad_dim(self, stream):
        with pytest.raises(ValueError):
            stream.row_noise(0, np.arange(2), 1, dim=0)

    def test_rejects_2d_rows(self, stream):
        with pytest.raises(ValueError):
            stream.row_noise(0, np.zeros((2, 2), dtype=np.int64), 1, 8)

    def test_large_row_indices(self, stream):
        """Rows beyond 2^32 exercise the high counter word."""
        rows = np.array([2**33, 2**33 + 1], dtype=np.uint64)
        noise = stream.row_noise(0, rows, 1, 4)
        assert not np.array_equal(noise[0], noise[1])

    def test_gaussian_statistics(self, stream):
        noise = stream.row_noise(0, np.arange(2000), 1, 64)
        flat = noise.ravel()
        assert abs(flat.mean()) < 0.01
        assert abs(flat.std() - 1.0) < 0.01
        _, p_value = stats.kstest(flat[:20000], "norm")
        assert p_value > 0.001


class TestCounterRange:
    """Counter words are 32 bits wide: a coordinate that does not fit
    used to wrap onto another coordinate's noise — two coordinates
    sharing one value, which the exactly-once ledger exists to rule
    out.  Both implementations refuse it in the shared prologue."""

    ROWS = np.array([3, 17, 42])

    @pytest.mark.parametrize("iteration", [2**32, 1 + 2**32, -1])
    def test_rejects_iteration_outside_the_counter_word(
        self, stream, compiled_kernels, iteration
    ):
        with pytest.raises(ValueError, match="iteration"):
            stream.row_noise(0, self.ROWS, iteration, 8)
        with pytest.raises(ValueError, match="iteration"):
            stream.aggregated_row_noise(0, self.ROWS, np.ones(3), iteration, 8)
        with pytest.raises(ValueError, match="iteration"):
            stream.dense_noise(0, iteration, (4, 4))

    @pytest.mark.parametrize("bad", [2**32, -1])
    def test_rejects_one_bad_per_row_iteration(self, stream, compiled_kernels, bad):
        with pytest.raises(ValueError, match="iteration"):
            stream.row_iteration_noise(0, self.ROWS, np.array([1, bad, 2]), 8)

    def test_rejects_negative_rows(self, stream, compiled_kernels):
        with pytest.raises(ValueError, match="rows"):
            stream.row_noise(0, np.array([3, -1, 42]), 1, 8)
        with pytest.raises(ValueError, match="rows"):
            stream.row_iteration_noise(0, np.array([-1]), np.array([1]), 8)

    def test_the_whole_range_is_accepted(self, stream, compiled_kernels):
        """The last iteration and the last unsigned row are coordinates
        of their own, not aliases."""
        rows = np.array([0, 2**64 - 1], dtype=np.uint64)
        last = stream.row_noise(0, rows, 2**32 - 1, 8)
        first = stream.row_noise(0, rows, 0, 8)
        assert not np.array_equal(last, first)
        assert not np.array_equal(last[0], last[1])


class TestRowNoiseSum:
    def test_equals_manual_sum(self, stream):
        rows = np.array([1, 5, 9])
        total = stream.row_noise_sum(2, rows, 3, 6, dim=8, std=0.7)
        manual = sum(
            stream.row_noise(2, rows, it, 8, std=0.7) for it in range(3, 7)
        )
        np.testing.assert_allclose(total, manual)

    def test_empty_range_is_zero(self, stream):
        total = stream.row_noise_sum(0, np.array([1]), 5, 4, dim=8)
        assert np.all(total == 0.0)

    def test_single_iteration_range(self, stream):
        rows = np.array([2])
        total = stream.row_noise_sum(0, rows, 4, 4, dim=8)
        single = stream.row_noise(0, rows, 4, 8)
        np.testing.assert_allclose(total, single)


class TestAggregatedRowNoise:
    def test_zero_delay_gives_zero(self, stream):
        noise = stream.aggregated_row_noise(
            0, np.array([1, 2]), np.array([0, 3]), iteration=5, dim=8
        )
        assert np.all(noise[0] == 0.0)
        assert not np.all(noise[1] == 0.0)

    def test_variance_scales_with_delay(self, stream):
        """Theorem 5.1: aggregated draw has variance delay * std^2."""
        rows = np.arange(4000)
        for delay in (1, 4, 16):
            noise = stream.aggregated_row_noise(
                0, rows, np.full(rows.shape, delay), iteration=1, dim=16,
                std=1.0,
            )
            observed = noise.ravel().std()
            assert observed == pytest.approx(np.sqrt(delay), rel=0.02)

    def test_independent_of_row_noise_domain(self, stream):
        """ANS draws must never collide with per-iteration draws."""
        rows = np.array([7])
        ans = stream.aggregated_row_noise(
            0, rows, np.array([1]), iteration=3, dim=8
        )
        per_iter = stream.row_noise(0, rows, 3, 8)
        assert not np.allclose(ans, per_iter)

    def test_rejects_negative_delays(self, stream):
        with pytest.raises(ValueError):
            stream.aggregated_row_noise(
                0, np.array([1]), np.array([-1]), 1, 8
            )

    def test_rejects_misaligned_delays(self, stream):
        with pytest.raises(ValueError):
            stream.aggregated_row_noise(
                0, np.array([1, 2]), np.array([1]), 1, 8
            )

    @settings(max_examples=20)
    @given(st.integers(min_value=1, max_value=50))
    def test_deterministic_for_any_delay(self, delay):
        stream = NoiseStream(7)
        rows = np.array([11])
        delays = np.array([delay])
        a = stream.aggregated_row_noise(1, rows, delays, 9, 4)
        b = stream.aggregated_row_noise(1, rows, delays, 9, 4)
        assert np.array_equal(a, b)


class TestDenseAndInit:
    def test_dense_noise_shape(self, stream):
        noise = stream.dense_noise(3, iteration=2, shape=(4, 5), std=0.1)
        assert noise.shape == (4, 5)

    def test_dense_noise_varies_with_param(self, stream):
        a = stream.dense_noise(1, 1, (8,))
        b = stream.dense_noise(2, 1, (8,))
        assert not np.array_equal(a, b)

    def test_dense_noise_varies_with_iteration(self, stream):
        a = stream.dense_noise(1, 1, (8,))
        b = stream.dense_noise(1, 2, (8,))
        assert not np.array_equal(a, b)

    def test_init_values_deterministic(self, stream):
        a = stream.init_values(0, (3, 3), std=0.5)
        b = NoiseStream(1234).init_values(0, (3, 3), std=0.5)
        np.testing.assert_array_equal(a, b)

    def test_init_values_std(self, stream):
        values = stream.init_values(5, (300, 300), std=0.02)
        assert values.std() == pytest.approx(0.02, rel=0.02)


# -- the blocked kernel: bits, allocations, threads ---------------------------

GOLDEN_DIMS = (1, 3, 4, 7, 32, 33)

#: sha256 of every draw below, recorded at the commit before the blocked
#: kernel replaced the allocating one: "bit-identical" as a test.  (The
#: bytes are float64 out of numpy's ``log`` / ``cos`` / ``sin``; a numpy
#: build with different transcendentals would move every digest at once.)
GOLDEN = {
    "row_noise": "5fc0d44cf53ce65bf76e02d2566742005e6ecab33cabadcd31770566cd6f35b1",
    "row_iteration_noise": "0ee74f1bce95ff893505b85b17c42b7020f07a2938b254fe46845ff592252356",
    "aggregated_row_noise": "550c179987ec1aaf1b52d7b5ca00de35cd6a5340068b7ccc51db8f0109a1a35d",
    "row_noise_sum": "f463c613871dbeec5150c8a4b910d902510e67e80ecce99f0ce05b70e5898dd5",
    "dense_noise": "613b7e8bf8108b9e14f99c0ef248c580a5e9b685236c7517d4f7b3792ed86d2c",
    "init_values": "b53c8e04b46a03b5ad566a24c0acb0ac6d21ba2df8000cbcb07151c1aab4aa80",
    "init_values_table": "8e6c8d37102772f0ce35ed0083cab3f2d6883c1eb0bdf9502a3ab27f38432018",
}


def _golden_rows(count):
    """Row ids on both sides of 2^32, then a long strided tail so every
    dim walks more than one kernel block."""
    edge = [0, 1, 17, 2**32 - 1, 2**32, 2**32 + 5, 2**40 + 3]
    tail = 2**33 + 7919 * np.arange(count - len(edge), dtype=np.int64)
    return np.concatenate([np.array(edge, dtype=np.int64), tail])


#: method -> draw at one dim (``rows`` is :func:`_golden_rows`).
_GOLDEN_CALLS = {
    "row_noise": lambda s, rows, dim: s.row_noise(3, rows, 9, dim, std=0.7),
    "row_iteration_noise": lambda s, rows, dim: s.row_iteration_noise(
        3, rows, 1 + np.arange(rows.size) % 11, dim, std=0.7
    ),
    "aggregated_row_noise": lambda s, rows, dim: s.aggregated_row_noise(
        3, rows, np.arange(rows.size) % 5, 9, dim, std=0.7
    ),
    "row_noise_sum": lambda s, rows, dim: s.row_noise_sum(
        3, rows[:2000], 4, 9, dim, std=0.7
    ),
    "dense_noise": lambda s, rows, dim: s.dense_noise(
        2, 9, (dim, 1000 + dim), std=0.7
    ),
    "init_values": lambda s, rows, dim: s.init_values(2, (1000 + dim, dim), std=0.7),
}


def _golden_draws(method):
    stream = NoiseStream(2024)
    if method == "init_values_table":
        # One "row" of 2 M lane-blocks: blocking by rows alone would
        # not bound it.
        return [stream.init_values(5, (250000, 32), std=0.176)]
    rows = _golden_rows(20000)
    return [_GOLDEN_CALLS[method](stream, rows, dim) for dim in GOLDEN_DIMS]


def _digest(arrays):
    sha = hashlib.sha256()
    for array in arrays:
        assert array.dtype == np.float64 and array.flags.c_contiguous
        sha.update(repr(array.shape).encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


class TestBlockedKernel:
    """On the implementation the loader selected: the compiled kernel —
    its AVX-512 bodies where the CPU has them — wherever there is a C
    compiler (``tests/test_native_kernel.py`` asserts that it loaded),
    else the ufunc chain."""

    @pytest.mark.parametrize("method", sorted(GOLDEN))
    def test_golden_bits(self, method):
        assert _digest(_golden_draws(method)) == GOLDEN[method]

    def test_one_launch_per_call_not_per_block(self, stream):
        rows = np.arange(3 * BLOCK + 7)
        before = philox_invocations()
        stream.row_noise(0, rows, 1, 8)
        stream.init_values(1, (5 * BLOCK + 3, 4))
        assert philox_invocations() - before == 2

    def test_large_draw_allocates_little_beyond_its_output(self, stream):
        """A flush-sized draw peaks below 1.25x its 64 MB output: every
        intermediate lives in the fixed per-thread block scratch."""
        rows = np.arange(250_000)
        delays = 1 + rows % 7
        stream.aggregated_row_noise(0, rows[:4096], delays[:4096], 9, 32)  # warm
        tracemalloc.start()
        try:
            noise = stream.aggregated_row_noise(0, rows, delays, 9, 32, std=0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * noise.nbytes

    def test_concurrent_draws_equal_serial_bits(self, stream):
        """Threads drawing different tables through one stream (shard
        tasks, the prefetch and apply workers) never share scratch:
        more threads than cores, switching often, equal the serial
        bits."""
        rows = np.arange(3 * BLOCK + 7)
        tables = (0, 1, 2)

        def draw(table):
            return [stream.row_noise(table, rows, it, 8) for it in range(1, 5)]

        serial = [draw(table) for table in tables]
        results = [None] * len(tables)
        barrier = threading.Barrier(len(tables))

        def worker(table):
            barrier.wait(timeout=30)
            results[table] = draw(table)

        threads = [threading.Thread(target=worker, args=(t,)) for t in tables]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, expected in zip(results, serial):
            assert len(got) == len(expected)
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))


@pytest.mark.usefixtures("ufunc_chain")
class TestBlockedKernelOnUfuncChain(TestBlockedKernel):
    """The same digests, launch count, allocation bound and thread
    safety from the reference ufunc chain."""


@pytest.mark.usefixtures("scalar_c")
class TestBlockedKernelOnScalarC(TestBlockedKernel):
    """... and from the compiled kernel's scalar C bodies, whatever the
    CPU supports."""
