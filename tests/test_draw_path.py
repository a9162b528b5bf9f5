"""The one-tile draw and the key cache under every lookup and step.

A native draw hands its rows', iterations' and scales' addresses
straight to ``_gauss.c``, taken once per draw; a draw that fits one tile
(every lookup's catch-up, every per-step table draw, every dense-noise
draw) is one call on the caller, a larger one spreads its tiles over the
lanes; with no library loaded the ufunc chain runs.  All must release
the same bits, compared as ``uint64``.  Without a compiler every case
here still runs, on the ufunc chain.
"""

import numpy as np
import pytest

from repro.rng import NoiseStream, _native, derive_key
from repro.rng.noise import _native_columns, _native_tile
from repro.rng.philox import BLOCK, philox_invocations, splitmix64


def _draw(key, rows, iteration, scale, dim):
    out = np.empty((rows.size, dim))
    NoiseStream._keyed_gaussians(key, rows, iteration, scale, out)
    return out.view(np.uint64)


@pytest.mark.parametrize("dim", [32, 7])
@pytest.mark.parametrize("n", [1, 2, 2048])
@pytest.mark.parametrize("per_row_iteration", [False, True])
@pytest.mark.parametrize("per_row_scale", [False, True])
def test_one_tile_draw_equals_tiled_and_ufunc(n, dim, per_row_iteration, per_row_scale):
    """``n`` rows alone are one tile (2048 rows of width 32 fill it);
    the same rows at the head of a draw of ``n + tile`` rows are walked
    as tiles; and the one-tile draw again on the ufunc chain."""
    tile = BLOCK // ((dim + 3) // 4)
    assert n <= tile
    key = derive_key(17, 2, 3)
    total = n + tile
    rows = (np.arange(total, dtype=np.int64) * 7919 + 2**32 - 5)[::-1].copy()
    iterations = (1 + np.arange(total) % 13).astype(np.int64)
    scales = 0.25 + np.arange(total) % 5
    iteration = iterations if per_row_iteration else 9
    scale = scales if per_row_scale else 0.7

    def head(values):
        return values[:n] if isinstance(values, np.ndarray) else values

    one = _draw(key, rows[:n], head(iteration), head(scale), dim)
    tiled = _draw(key, rows, iteration, scale, dim)[:n]
    with _native.using(None):
        ufunc = _draw(key, rows[:n], head(iteration), head(scale), dim)
    assert np.array_equal(one, tiled)
    assert np.array_equal(one, ufunc)


@pytest.mark.parametrize("loaded", [True, False])
def test_one_value_columns_broadcast_and_others_must_align(loaded):
    """A length-1 iteration or scale column against several rows is a
    broadcast, with the scalar's bits; any other length is refused."""
    key = derive_key(3, 1, 0)
    rows = np.arange(5, dtype=np.int64)
    with _native.using(_native.LIB if loaded else None):
        scalar = _draw(key, rows, 4, 1.5, 32)
        broadcast = _draw(key, rows, np.array([4]), np.array([1.5]), 32)
        with pytest.raises(ValueError):
            _draw(key, rows, np.array([4, 5]), 1.5, 32)
    assert np.array_equal(broadcast, scalar)


@pytest.mark.parametrize("rows", [np.arange(3), np.arange(3, dtype=np.uint32)])
def test_one_tile_draw_keeps_its_guards(rows):
    """One launch recorded per draw; an iteration outside ``[0, 2**32)``
    and a negative row are refused before anything is drawn."""
    key = derive_key(5, 1, 1)
    before = philox_invocations()
    _draw(key, rows, 1, 1.0, 8)
    assert philox_invocations() == before + 1
    for bad in (-1, 2**32, np.array([0, 2**32, 1])):
        with pytest.raises(ValueError, match="iteration"):
            _draw(key, rows, bad, 1.0, 8)
    with pytest.raises(ValueError, match="non-negative"):
        _draw(key, np.array([0, -2, 1]), 1, 1.0, 8)


def test_one_tile_draw_refuses_a_radius_outside_the_unit_interval():
    """``_gauss.c`` counts radius uniforms outside (0, 1]; any count is
    a refusal, raised before the Box-Muller tail runs."""

    class Library:
        finished = False

        def gauss_uniforms(self, *args):
            return 1

        def gauss_finish(self, *args):
            self.finished = True

    library = Library()
    out = np.zeros((2, 4))
    columns, _ = _native_columns(np.arange(2), 3, 1.0, out)
    with pytest.raises(ValueError, match="u1"):
        _native_tile(library, derive_key(1), columns, 4, 0, 2, 0, 1)
    assert not library.finished


def test_public_draws_equal_the_ufunc_chain():
    """The three one-tile entry points a step and a lookup run."""
    stream = NoiseStream(11)
    rows = np.array([3, 90, 4096, 2**33 + 1], dtype=np.int64)
    delays = np.array([1, 0, 7, 300], dtype=np.int64)

    def draws():
        return [
            stream.aggregated_row_noise(2, rows, delays, 40, 32, std=0.3),
            stream.row_noise(1, rows, 40, 16, std=1.1),
            stream.dense_noise(4, 40, (13, 64), std=0.2),
        ]

    compiled = draws()
    with _native.using(None):
        reference = draws()
    for got, want in zip(compiled, reference):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # A row with nothing owed draws exactly zero.
    assert not compiled[0][1].any()


@pytest.mark.parametrize("seed, domain, stream", [(0, 0, 0), (7, 2, 5), (2**64 - 1, 5, 3), (-3, 1, 9)])
def test_cached_key_is_read_only_and_equals_a_fresh_derivation(seed, domain, stream):
    key = derive_key(seed, domain, stream)
    assert key is derive_key(seed, domain, stream)
    assert not key.flags.writeable
    with pytest.raises(ValueError):
        key[0] = 1
    fresh = derive_key.__wrapped__(seed, domain, stream)
    assert fresh is not key and np.array_equal(fresh, key)
    mixed = int(splitmix64(
        splitmix64(np.uint64(seed & (2**64 - 1)) ^ np.uint64(domain)) + np.uint64(stream)
    ))
    assert key.tolist() == [mixed & 0xFFFFFFFF, mixed >> 32]
