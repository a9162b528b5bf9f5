"""Tests for the Philox4x32-10 counter-based generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import (
    derive_key,
    make_counters,
    philox4x32,
    philox_invocations,
    splitmix64,
    uniform_from_uint32,
)
from repro.rng.philox import BLOCK
from repro.testing import philox4x32_reference


def _counters(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**32, size=(n, 4), dtype=np.uint32)


class TestPhiloxCore:
    def test_output_shape_and_dtype(self):
        out = philox4x32(_counters(10), derive_key(0))
        assert out.shape == (10, 4)
        assert out.dtype == np.uint32

    def test_deterministic(self):
        counters = _counters(100)
        key = derive_key(42)
        assert np.array_equal(philox4x32(counters, key),
                              philox4x32(counters, key))

    def test_different_keys_differ(self):
        counters = _counters(100)
        out_a = philox4x32(counters, derive_key(1))
        out_b = philox4x32(counters, derive_key(2))
        assert not np.array_equal(out_a, out_b)

    def test_different_counters_differ(self):
        key = derive_key(7)
        a = make_counters(np.uint32(0), np.uint32(0), np.uint32(0), np.uint32(0))
        b = make_counters(np.uint32(1), np.uint32(0), np.uint32(0), np.uint32(0))
        assert not np.array_equal(philox4x32(a, key), philox4x32(b, key))

    def test_single_bit_counter_change_flips_many_bits(self):
        """Avalanche: flipping one counter bit should change ~half of output."""
        key = derive_key(3)
        base = make_counters(np.uint32(123), np.uint32(4), np.uint32(5),
                             np.uint32(6))
        flipped = base.copy()
        flipped[0, 0] ^= np.uint32(1)
        out_a = philox4x32(base, key)[0]
        out_b = philox4x32(flipped, key)[0]
        differing_bits = sum(
            bin(int(a) ^ int(b)).count("1") for a, b in zip(out_a, out_b)
        )
        assert 40 <= differing_bits <= 88  # ~64 expected of 128

    def test_order_independence(self):
        """Values depend only on the counter, not batch composition."""
        key = derive_key(5)
        counters = _counters(50)
        full = philox4x32(counters, key)
        subset = philox4x32(counters[10:20], key)
        assert np.array_equal(full[10:20], subset)

    def test_rejects_bad_counter_shape(self):
        with pytest.raises(ValueError):
            philox4x32(np.zeros((4, 3), dtype=np.uint32), derive_key(0))

    def test_rejects_bad_key_shape(self):
        with pytest.raises(ValueError):
            philox4x32(_counters(1), np.zeros(3, dtype=np.uint32))

    def test_empty_batch(self):
        out = philox4x32(np.zeros((0, 4), dtype=np.uint32), derive_key(0))
        assert out.shape == (0, 4)


def _hex_words(text):
    return np.array([int(word, 16) for word in text.split()], dtype=np.uint32)


class TestKnownAnswers:
    """The Random123 ``kat_vectors`` for Philox4x32-10."""

    @pytest.mark.parametrize("counter, key, expected", [
        ("00000000 00000000 00000000 00000000", "00000000 00000000",
         "6627e8d5 e169c58d bc57ac4c 9b00dbd8"),
        ("ffffffff ffffffff ffffffff ffffffff", "ffffffff ffffffff",
         "408f276d 41c83b0e a20bc7c6 6d5451fd"),
        ("243f6a88 85a308d3 13198a2e 03707344", "a4093822 299f31d0",
         "d16cfe09 94fdcceb 5001e420 24126ea1"),
    ])
    def test_random123_vector(self, counter, key, expected):
        words = philox4x32(_hex_words(counter)[None, :], _hex_words(key))
        assert np.array_equal(words[0], _hex_words(expected))


@pytest.mark.usefixtures("ufunc_chain")
class TestKnownAnswersOnUfuncChain(TestKnownAnswers):
    """:class:`TestKnownAnswers` runs the implementation the loader
    selected (``_gauss.c``'s round function where it built); this is
    the numpy one."""


class TestBlockedKernel:
    """The blocked cipher against the kept scalar reference
    (``repro.testing.philox4x32_reference``), at every size class of the
    block walk."""

    @pytest.mark.parametrize(
        "n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]
    )
    def test_matches_scalar_reference(self, n):
        key = derive_key(11, domain=2, stream=3)
        counters = _counters(n, seed=n)
        words = philox4x32(counters, key)
        assert words.shape == (n, 4) and words.dtype == np.uint32
        # The reference's scalar expressions broadcast over whole
        # columns, so every word of every block is compared.
        expected = philox4x32_reference(
            *(counters[:, word].astype(np.uint64) for word in range(4)),
            *(np.uint64(word) for word in key),
        )
        for word in range(4):
            assert np.array_equal(words[:, word], expected[word])

    def test_one_launch_per_call_not_per_block(self):
        before = philox_invocations()
        philox4x32(_counters(3 * BLOCK + 7), derive_key(0))
        assert philox_invocations() - before == 1


@pytest.mark.usefixtures("ufunc_chain")
class TestBlockedKernelOnUfuncChain(TestBlockedKernel):
    pass


class TestPhiloxStatistics:
    def test_uniformity_chi_squared(self):
        """Output bytes should be uniform: chi-squared over 256 bins."""
        words = philox4x32(
            make_counters(
                np.arange(65536, dtype=np.uint32), np.uint32(0),
                np.uint32(0), np.uint32(0),
            ),
            derive_key(11),
        )
        raw_bytes = words.view(np.uint8).ravel()
        counts = np.bincount(raw_bytes, minlength=256)
        expected = raw_bytes.size / 256
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 255 dof: mean 255, std ~22.6; 5-sigma bound.
        assert chi2 < 255 + 5 * 22.6

    def test_mean_of_uniforms(self):
        words = philox4x32(
            make_counters(np.arange(40000, dtype=np.uint32), np.uint32(1),
                          np.uint32(2), np.uint32(3)),
            derive_key(13),
        )
        uniforms = uniform_from_uint32(words)
        assert abs(uniforms.mean() - 0.5) < 0.005
        assert abs(uniforms.var() - 1.0 / 12.0) < 0.005

    def test_lagged_correlation_is_small(self):
        words = philox4x32(
            make_counters(np.arange(30000, dtype=np.uint32), np.uint32(0),
                          np.uint32(9), np.uint32(0)),
            derive_key(17),
        )
        u = uniform_from_uint32(words).ravel()
        lagged = np.corrcoef(u[:-1], u[1:])[0, 1]
        assert abs(lagged) < 0.02


class TestUniformConversion:
    def test_range_is_open_interval(self):
        extremes = np.array([0, 2**32 - 1], dtype=np.uint32)
        u = uniform_from_uint32(extremes)
        assert np.all(u > 0.0)
        assert np.all(u < 1.0)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_monotone_in_word(self, word):
        u = uniform_from_uint32(np.array([word], dtype=np.uint32))[0]
        assert 0.0 < u < 1.0


class TestSplitmixAndKeys:
    def test_splitmix_deterministic_scalar(self):
        assert splitmix64(12345) == splitmix64(12345)

    def test_splitmix_distinct_neighbors(self):
        values = {int(splitmix64(i)) for i in range(1000)}
        assert len(values) == 1000

    def test_splitmix_vectorised_matches_scalar(self):
        xs = np.arange(100, dtype=np.uint64)
        vector = splitmix64(xs)
        for i in range(100):
            assert vector[i] == splitmix64(int(xs[i]))

    def test_derive_key_shape(self):
        key = derive_key(0, domain=1, stream=2)
        assert key.shape == (2,)
        assert key.dtype == np.uint32

    def test_derive_key_separates_domains(self):
        assert not np.array_equal(derive_key(1, domain=1), derive_key(1, domain=2))

    def test_derive_key_separates_streams(self):
        assert not np.array_equal(
            derive_key(1, domain=1, stream=0), derive_key(1, domain=1, stream=1)
        )

    def test_derive_key_separates_seeds(self):
        assert not np.array_equal(derive_key(1), derive_key(2))

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=2**62),
           st.integers(min_value=0, max_value=100),
           st.integers(min_value=0, max_value=100))
    def test_derive_key_deterministic(self, seed, domain, stream):
        assert np.array_equal(
            derive_key(seed, domain, stream), derive_key(seed, domain, stream)
        )


class TestMakeCounters:
    def test_broadcast_scalars(self):
        counters = make_counters(
            np.arange(5, dtype=np.uint32), np.uint32(7), np.uint32(8),
            np.uint32(9),
        )
        assert counters.shape == (5, 4)
        assert np.array_equal(counters[:, 0], np.arange(5, dtype=np.uint32))
        assert np.all(counters[:, 1] == 7)

    def test_full_arrays(self):
        a = np.arange(4, dtype=np.uint32)
        counters = make_counters(a, a + 1, a + 2, a + 3)
        assert np.array_equal(counters[2], [2, 3, 4, 5])
