"""The compiled inner loops (``_gauss.c``: the keyed-Gaussian kernel;
``_sparse.c``: the sparse apply, the embedding scatter-add, the
embedding gather-pool and the interaction's dots and gradient):
bit-equality with the numpy expressions on both sides of every guard,
the ``sincos`` proof on a sample of the angle lattice, and the build /
cache / fallback behaviour of the loader (``repro.rng._native``)."""

import contextlib
import ctypes
import importlib.util
import math
import os
import pathlib
import shutil
import stat
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cli import main
from repro.kernels import apply_sparse_update, fused_noisy_update
from repro.nn import EmbeddingBag, FeatureInteraction, Parameter, PerExamplePairs
from repro.rng import NoiseStream, _native, derive_key, native_status
from repro.rng.noise import _native_columns, _native_tile
from repro.rng.philox import BLOCK
from repro.session import TrainSession

HAS_CC = shutil.which("cc") is not None
needs_cc = pytest.mark.skipif(not HAS_CC, reason="no `cc` on PATH")


def _loaded():
    """Skip with the loader's reason where no library loaded — what the
    ``native_lib`` fixture does, for hypothesis tests (which cannot take
    a function-scoped fixture)."""
    if _native.LIB is None:
        pytest.skip(_native.REASON)


@needs_cc
def test_native_kernel_loads_where_there_is_a_compiler():
    """A silently failing build must not pass as "no compiler"."""
    name, detail = native_status()
    assert name == "native", detail
    assert pathlib.Path(detail).is_file()


def test_which_implementation_ran_is_reported(
    compiled_kernels, capsys, tiny_model, dp_config
):
    assert native_status()[0] == compiled_kernels
    isa = _native.vector_isa()
    assert (isa is None) == (compiled_kernels == "numpy")
    assert main(["backends"]) == 0
    shown = f"{compiled_kernels} ({isa}) " if isa else f"{compiled_kernels} ("
    assert f"compiled kernels: {shown}" in capsys.readouterr().out
    with TrainSession.build(tiny_model, dp_config) as session:
        stats = session.trainer.kernel_stats()
        assert stats["compiled_kernels"] == compiled_kernels
        assert stats["vector_isa"] == isa


def test_every_source_is_packaged():
    """An installed copy without one of the C files would fall back to
    numpy silently and for ever: ``package-data`` lists them all."""
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    root = pathlib.Path(repro.__file__).parent
    pyproject = root.parents[1] / "pyproject.toml"
    listed = tomllib.loads(pyproject.read_text())["tool"]["setuptools"]["package-data"]
    for source in _native.SOURCES:
        package = ".".join(source.parent.relative_to(root.parent).parts)
        assert source.is_file()
        assert source.name in listed.get(package, ()), (package, source.name)


# -- native == ufunc, bit for bit ---------------------------------------------

def _draw(key, rows, iteration, scale, dim):
    out = np.empty((rows.size, dim), dtype=np.float64)
    NoiseStream._keyed_gaussians(key, rows, iteration, scale, out)
    return out.view(np.uint64)


def _every_path(*args):
    """The draw through the loaded library as loaded (the AVX-512 bodies
    where the CPU has them), on its scalar C bodies, and through the
    ufunc chain."""
    _loaded()
    draws = [_draw(*args)]
    with _native.scalar_c():
        draws.append(_draw(*args))
    with _native.using(None):
        draws.append(_draw(*args))
    return draws


def _equal(draws):
    return all(np.array_equal(draw, draws[-1]) for draw in draws)


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 70),
    size_class=st.integers(0, 5),
    first_row=st.sampled_from([0, 2**32 - 3, 2**40]),
    per_row_iteration=st.booleans(),
    per_row_scale=st.booleans(),
    signed_rows=st.booleans(),
    seed=st.integers(0, 2**20),
)
def test_native_equals_ufunc_chain(
    dim, size_class, first_row, per_row_iteration, per_row_scale, signed_rows, seed
):
    tile = BLOCK // ((dim + 3) // 4)  # rows per tile at this width
    count = (0, 1, tile - 1, tile, tile + 1, 3 * tile + 7)[size_class]
    # Stride 1 from just below 2^32 straddles the boundary of the two
    # row words; the stride-7919 tail spreads the high word.
    rows = first_row + np.arange(count, dtype=np.int64) * (1 if count < 8 else 7919)
    rows[: min(count, 6)] = first_row + np.arange(min(count, 6))
    if not signed_rows:
        rows = rows.astype(np.uint64)
    iteration = 1 + np.arange(count) % 11 if per_row_iteration else 2**32 - 1
    scale = 0.5 + (np.arange(count) % 5) if per_row_scale else 0.7
    draws = _every_path(derive_key(seed, 1, 3), rows, iteration, scale, dim)
    assert draws[0].shape == (count, dim)
    assert _equal(draws)


@pytest.mark.parametrize("width", [4 * BLOCK + 1, 9 * BLOCK + 3])
def test_native_equals_ufunc_chain_on_a_row_wider_than_a_block(width):
    """A dense tensor / a table's init: one row, tiled along its lanes."""
    assert _equal(
        _every_path(derive_key(5, 4, 2), np.zeros(1, dtype=np.uint64), 0, 0.176, width)
    )


#: Widths whose ceil(dim / 4) lane blocks per row fall below, at and
#: above the eight counters an AVX-512 vector holds, on and off
#: multiples of eight, and clip the last block at every offset.
BLOCK_COUNT_DIMS = [*range(1, 10), 15, 16, 17, 31, 32, 33, 36, 64, 100]


@pytest.mark.parametrize("dim", BLOCK_COUNT_DIMS)
@pytest.mark.parametrize("per_row", [False, True])
def test_every_body_agrees_at_every_block_count(dim, per_row):
    """The AVX-512 bodies build a vector's counters in registers one
    row's run of lanes at a time and store each run's values with
    masked interleaving stores, a vector holding up to eight rows' runs
    at these widths: against the scalar C and the ufunc chain, as ``uint64``,
    on rows straddling 2^32, with per-row iterations and scales (an
    8-byte stride) or one of each (stride 0), written into a column
    slice of a wider array whose other columns stay untouched."""
    _loaded()
    rows = np.arange(2**32 - 21, 2**32 + 20, dtype=np.uint64)
    iteration = 1 + np.arange(rows.size) % 7 if per_row else 2**31 + 5
    scale = 0.5 + np.arange(rows.size) % 3 if per_row else 1.3
    key = derive_key(21, 2, 7)
    draws = []
    for path in (contextlib.nullcontext, _native.scalar_c, lambda: _native.using(None)):
        wide = np.full((rows.size, dim + 3), -1.0)
        with path():
            NoiseStream._keyed_gaussians(key, rows, iteration, scale, wide[:, :dim])
        assert np.all(wide[:, dim:] == -1.0)
        draws.append(wide[:, :dim].copy().view(np.uint64))
    assert _equal(draws)


@pytest.mark.parametrize("row", [2**32 - 1, 2**32])
@pytest.mark.parametrize("width", [2 * 4 * BLOCK + 13, 3 * 4 * BLOCK])
def test_every_body_agrees_on_a_wide_row_sliced_into_tiles(row, width):
    """An init or dense-noise draw: one row cut into tiles of BLOCK lane
    blocks, so every tile after the first starts at ``b0 > 0``; the row
    on either side of 2^32, its iteration and scale one-value arrays
    (walked with stride 0)."""
    draws = _every_path(
        derive_key(6, 3, 1), np.array([row], dtype=np.uint64),
        np.array([77]), np.array([0.31]), width,
    )
    assert _equal(draws)


def _tile_halves(lib, rows, iterations, scales, b0, n_blocks, dim, strided):
    """One tile through both halves of ``_gauss.c`` called directly —
    also the shapes no draw makes (several rows at ``b0 > 0``): the
    uniform lanes and what ``gauss_finish`` stored, as ``uint64``.
    ``strided`` walks the iterations and scales per row, else their
    first value with stride 0; the output rows are ``dim + 5`` wide."""
    n = rows.size
    radius, angle = np.full((2, 2 * n * n_blocks), np.nan)
    k0, k1 = derive_key(8, 1, 2).tolist()
    step = 8 if strided else 0
    outside = lib.gauss_uniforms(
        rows.ctypes.data, 8, iterations.ctypes.data, step, n, b0, n_blocks,
        k0, k1, radius.ctypes.data, angle.ctypes.data,
    )
    assert outside == 0
    uniforms = np.concatenate([radius, angle]).view(np.uint64).copy()
    np.log(radius, out=radius)
    out = np.full((n, dim + 5), -1.0)
    lib.gauss_finish(
        radius.ctypes.data, angle.ctypes.data, scales.ctypes.data, step, n, b0,
        n_blocks, out.ctypes.data, out.strides[0], dim,
    )
    assert np.all(out[:, : 4 * b0] == -1.0) and np.all(out[:, dim:] == -1.0)
    return uniforms, out.view(np.uint64)


@pytest.mark.parametrize("b0", [0, 3, 9])
@pytest.mark.parametrize("n_blocks", [1, 4, 7, 8, 9, 17])
@pytest.mark.parametrize("clip", [0, 1, 3])
@pytest.mark.parametrize("strided", [False, True])
def test_tile_halves_agree_on_both_bodies(native_lib, b0, n_blocks, clip, strided):
    """``gauss_uniforms`` and ``gauss_finish`` on the AVX-512 bodies and
    on the scalar C, for several rows at a first block ``b0`` (block ids
    ``b0 + j``) with a row's last vector partly filled and its last block
    clipped by ``clip`` values."""
    rows = np.array([5, 2**32 - 1, 2**32, 2**40 + 3], dtype=np.uint64)
    iterations = np.array([2**32 - 1, 0, 9, 123456], dtype=np.uint64)
    scales = np.array([0.3, 1.0, 2.5, 7.0])
    dim = 4 * (b0 + n_blocks) - clip
    case = (rows, iterations, scales, b0, n_blocks, dim, strided)
    vector = _tile_halves(native_lib, *case)
    with _native.scalar_c():
        scalar = _tile_halves(native_lib, *case)
    for got, want in zip(vector, scalar):
        assert np.array_equal(got, want)


def test_native_writes_rows_of_a_strided_output(native_lib):
    """The row stride is passed, not assumed: a column slice of a wider
    array receives the same bits and its neighbours are not touched —
    on the bodies as loaded and on the scalar C."""
    rows = np.arange(300)
    key = derive_key(9, 1, 0)
    with _native.using(None):
        reference = _draw(key, rows, 3, 1.0, 7)
    for path in (contextlib.nullcontext, _native.scalar_c):
        wide = np.full((300, 11), -1.0)
        with path():
            NoiseStream._keyed_gaussians(key, rows, 3, 1.0, wide[:, :7])
        assert np.array_equal(wide[:, :7].view(np.uint64), reference)
        assert np.all(wide[:, 7:] == -1.0)


def test_gauss_finish_counts_the_angles_it_hands_to_sincos(native_lib):
    """A value is handed back when it lies within WINDOW + EVAL_ERROR ulp
    of a rounding midpoint, a 2 (WINDOW + EVAL_ERROR) chance, so an angle
    (a sin and a cos) goes to libm about 4 (WINDOW + EVAL_ERROR) of the
    time — 7.2 %, a little less for the angles whose sin and cos both
    are near one; the scalar C hands over none (it calls sincos for
    every angle)."""
    window, eval_error = (
        ctypes.c_double.in_dll(native_lib, name).value
        for name in ("sincos_window", "sincos_eval_error")
    )
    expected = 4 * (window + eval_error)
    rows = np.arange(2048, dtype=np.uint64)
    out = np.empty((2048, 32))

    def tile():
        columns, _ = _native_columns(rows, 1, 1.0, out)
        return _native_tile(native_lib, derive_key(3, 1, 0), columns, 32,
                            0, 2048, 0, 8)

    angles = 2 * 2048 * 8
    if _native.vector_isa() == "avx512":
        assert 0.9 * expected < tile() / angles < expected
    with _native.scalar_c():
        assert tile() == 0


def _lattice(lib, first, count, step=1):
    """``sincos_lattice_mismatches`` over ``count`` words from ``first``:
    ``(mismatches, angles handed to libm's sincos)``."""
    tally, widest = np.zeros(2, dtype=np.uint64), np.zeros(1)
    mismatches = lib.sincos_lattice_mismatches(
        first, count, step, tally.ctypes.data, widest.ctypes.data, None, 0
    )
    return mismatches, int(tally[0])


def _word(theta):
    """The lattice word whose angle is nearest ``theta``."""
    return round(theta / (2 * math.pi) * 2**32 - 0.5)


#: Lattice words at which glibc 2.36's ``sin`` or ``cos`` is not
#: correctly rounded (printed by ``tools/check_sincos_lattice.py``):
#: each lies within the window of a rounding midpoint, so the vector
#: sincos must hand it back to libm, whatever libm's version.
MISROUNDED_BY_GLIBC = (
    0x001CBF07, 0x0600018D, 0x0C0000AD, 0x1200004D, 0x18000157, 0x1E000022,
    0x24001681, 0x2A00124D, 0x300000A4, 0x36000053, 0x3C0003BC, 0x42001F1A,
    0x4800006E, 0x4E000EE3, 0x54000588, 0x5A000154, 0x60000079, 0x660000B4,
    0x6C0000CF, 0x72000A1F, 0x7800004C, 0x7E0004C4, 0x840002AA, 0x8A000014,
    0x900000C9, 0x9600031F, 0x9C000048, 0xA2000069, 0xA8000143, 0xAE00015C,
    0xB40001CD, 0xBA0000AA, 0xC007B6A0, 0xC6000292, 0xCC0000C4, 0xD2000050,
    0xD8000006, 0xDE0000D0, 0xE400182A, 0xEA00009F,
)


def test_sincos_matches_sin_and_cos_on_the_angle_lattice(native_lib):
    """``tools/check_sincos_lattice.py`` walks all 2^32 angles a tile can
    produce; here, on the bodies as loaded and on the scalar C, a
    stratified 2^22 of them, a window around every octant boundary
    (theta = k pi / 4 at word k * 2^29), where libm's reduction
    switches, and around every switch point of the vector one (k pi / 2
    + (j +- 1/2) / 64), and the words where libm misrounds, which must
    come back with libm's bits."""
    windows = [octant * 2**29 for octant in range(9)]
    windows += [
        _word(k * math.pi / 2 + odd / 128)
        for k in range(5)
        for odd in range(-103, 104, 2)
    ]
    for path in (contextlib.nullcontext, _native.scalar_c):
        with path():
            vector = _native.vector_isa() == "avx512"
            assert _lattice(native_lib, 511, 2**22, 1024)[0] == 0
            for centre in windows:
                first = min(max(centre - 512, 0), 2**32 - 1024)
                assert _lattice(native_lib, first, 1024)[0] == 0
            for word in MISROUNDED_BY_GLIBC:
                assert _lattice(native_lib, word, 1) == (0, int(vector))


def test_sincos_table_is_generated():
    """The vector sincos's constants are ``tools/gen_sincos_table.py``'s
    output, byte for byte."""
    tool = pathlib.Path(repro.__file__).parents[2] / "tools" / "gen_sincos_table.py"
    spec = importlib.util.spec_from_file_location("gen_sincos_table", tool)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    (source,) = [path for path in _native.SOURCES if path.name == "_gauss.c"]
    assert generator.committed(source.read_text()) == generator.render()


# -- _sparse.c == the numpy expressions, bit for bit ---------------------------

with np.errstate(invalid="ignore"):
    #: The NaN this host's arithmetic generates, so every NaN a case can
    #: hold or produce has one bit pattern.  (Where two NaNs of
    #: *different* payloads meet, the survivor is the instruction's first
    #: operand — an order no compiler promises for a commutative add or
    #: multiply, numpy's loops included; nothing pins it.)
    HOST_NAN = np.float64(np.inf) - np.float64(np.inf)
SPECIALS = np.array(
    [0.0, -0.0, np.inf, -np.inf, HOST_NAN, 5e-324, -1.1e-308, 1.5, -3.0]
)


def _values(rng, shape, special):
    values = rng.standard_normal(shape)
    if special:
        odd = rng.random(shape) < 0.2
        values[odd] = rng.choice(SPECIALS, size=int(odd.sum()))
    return values


def _row_sets(rng, nrows, kind):
    """Sorted unique (grad, noise) local rows of one overlap ``kind``."""
    def pick(pool, low=1):
        if pool.size == 0:
            return pool
        count = int(rng.integers(min(low, pool.size), pool.size + 1))
        return np.sort(rng.choice(pool, size=count, replace=False))

    every, none = np.arange(nrows, dtype=np.int64), np.empty(0, dtype=np.int64)
    if kind == "both_empty":
        return none, none
    if kind == "grad_empty":
        return none, pick(every)
    if kind == "noise_empty":
        return pick(every), none
    grad = pick(every)
    if kind == "identical":
        return grad, grad.copy()
    if kind == "disjoint":
        return grad, pick(np.setdiff1d(every, grad), low=0)
    return grad, pick(every)  # "partial": whatever overlap chance gives


def _bits(array):
    return array.view(np.uint64)


@settings(max_examples=150, deadline=None)
@given(
    nrows=st.integers(1, 48),
    dim=st.sampled_from([1, 3, 4, 32, 33]),
    row_base=st.sampled_from([0, 7, 2**33]),
    kind=st.sampled_from(
        ["disjoint", "partial", "identical", "grad_empty", "noise_empty", "both_empty"]
    ),
    special=st.booleans(),
    seed=st.integers(0, 2**20),
)
def test_fused_noisy_update_native_equals_numpy(
    nrows, dim, row_base, kind, special, seed
):
    _loaded()
    rng = np.random.default_rng(seed)
    grad_rows, noise_rows = (row_base + local for local in _row_sets(rng, nrows, kind))
    grad = _values(rng, (grad_rows.size, dim), special)
    noise = _values(rng, (noise_rows.size, dim), special)
    table = _values(rng, (nrows, dim), special)
    operands = (0.37, grad_rows, grad, noise_rows, noise)
    inputs = [array.copy() for array in operands[1:]]

    compiled = table.copy()
    with np.errstate(all="ignore"):
        written = fused_noisy_update(compiled, *operands, row_base=row_base)
        with _native.using(None):
            reference = table.copy()
            expected = fused_noisy_update(reference, *operands, row_base=row_base)
    assert written == expected == np.union1d(grad_rows, noise_rows).size
    assert np.array_equal(_bits(compiled), _bits(reference))
    for array, before in zip(operands[1:], inputs):  # operands are read-only
        assert np.array_equal(array, before, equal_nan=True)


@settings(max_examples=150, deadline=None)
@given(
    nrows=st.integers(2, 48),
    dim=st.sampled_from([1, 3, 4, 32, 33]),
    row_base=st.sampled_from([0, 7, 2**33]),
    redirect=st.booleans(),
    consecutive=st.booleans(),
    special=st.booleans(),
    seed=st.integers(0, 2**20),
)
def test_apply_sparse_update_native_equals_numpy(
    nrows, dim, row_base, redirect, consecutive, special, seed
):
    """The gather path (the compiled one) and the slice path (numpy's on
    both sides), in place and into ``out=``."""
    _loaded()
    rng = np.random.default_rng(seed)
    if consecutive:
        start = int(rng.integers(0, nrows - 1))
        local = np.arange(start, int(rng.integers(start + 1, nrows + 1)))
    else:
        local, _ = _row_sets(rng, nrows, "noise_empty")
    rows = row_base + local.astype(np.int64)
    values = _values(rng, (rows.size, dim), special)
    table = _values(rng, (nrows, dim), special)
    memo = _values(rng, (nrows, dim), special)

    def run():
        source, out = table.copy(), memo.copy() if redirect else None
        with np.errstate(all="ignore"):
            apply_sparse_update(
                source, rows, values.copy(), 0.61,
                row_base=row_base, out=out, values_writable=True,
            )
        return _bits(source), None if out is None else _bits(out)

    compiled = run()
    with _native.using(None):
        reference = run()
    assert np.array_equal(compiled[0], reference[0])
    if redirect:
        assert np.array_equal(compiled[0], _bits(table))  # the source is only read
        assert np.array_equal(compiled[1], reference[1])


@settings(max_examples=150, deadline=None)
@given(
    batch=st.integers(1, 12),
    dim=st.sampled_from([1, 3, 4, 32, 33]),
    num_rows=st.integers(1, 9),
    pooling=st.integers(0, 6),
    strided=st.booleans(),
    special=st.booleans(),
    seed=st.integers(0, 2**20),
)
def test_weighted_row_grad_native_equals_add_at(
    batch, dim, num_rows, pooling, strided, special, seed
):
    """Pooled pairs — ``mults`` > 1, rows repeated across examples, a
    strided ``deltas`` view as the interaction layer hands over, no pairs
    at all — against the numpy path and against ``np.add.at`` spelt out."""
    _loaded()
    rng = np.random.default_rng(seed)
    # Per example, its distinct rows and how often it looked each up.
    lookups = rng.integers(0, num_rows, size=(batch, pooling))
    example_ids, rows, mults = [], [], []
    for example, looked_up in enumerate(lookups):
        unique, counts = np.unique(looked_up, return_counts=True)
        example_ids += [example] * unique.size
        rows += unique.tolist()
        mults += counts.tolist()
    wide = _values(rng, (batch, dim + 5), special)
    pairs = PerExamplePairs(
        example_ids=np.array(example_ids, dtype=np.int64),
        rows=np.array(rows, dtype=np.int64),
        mults=np.array(mults, dtype=np.float64),
        deltas=wide[:, 2 : 2 + dim] if strided else wide[:, :dim].copy(),
        batch_size=batch,
    )
    weights = rng.random(batch) / batch

    with np.errstate(all="ignore"):
        compiled = pairs.weighted_row_grad(weights)
        with _native.using(None):
            reference = pairs.weighted_row_grad(weights)
        unique_rows, inverse = np.unique(pairs.rows, return_inverse=True)
        spelt_out = np.zeros((unique_rows.size, dim))
        scale = weights[pairs.example_ids] * pairs.mults
        np.add.at(spelt_out, inverse, pairs.deltas[pairs.example_ids] * scale[:, None])
    assert np.array_equal(compiled.rows, reference.rows)
    assert compiled.values.shape == reference.values.shape == spelt_out.shape
    assert np.array_equal(_bits(compiled.values), _bits(reference.values))
    assert np.array_equal(_bits(compiled.values), _bits(spelt_out))


def _pool_case(rng, batch, pooling, dim, special, num_rows=40):
    """A table with a ``-0.0`` row 0 and duplicate-heavy (Zipf-like)
    lookups, read as the ``[:, t, :]`` slice of a ``(batch, 3, pooling)``
    array — the strided view the model hands each bag."""
    table = _values(rng, (num_rows, dim), special)
    table[0] = -0.0
    hot = np.minimum(rng.zipf(1.3, size=(batch, 3, pooling)) - 1, num_rows - 1)
    hot[: batch // 2, 1, :] = 0  # whole bags of -0.0 rows
    return table, hot.astype(np.int64)[:, 1, :]


def _pooled(table, indices, out=None):
    bag = EmbeddingBag(Parameter("t", table, 0, is_embedding=True))
    return bag.forward(indices, out=out)


@pytest.mark.parametrize("pooling", [1, 2, 9, 16, 200])
@pytest.mark.parametrize("dim", [1, 2, 3, 32, 33])
def test_gather_pool_equals_the_axis_1_sum(pooling, dim):
    """The bag's forward — the compiled gather-pool where a library
    loaded, the numpy expression where none did (both legs run this) —
    against ``table[idx].sum(axis=1)`` as ``uint64``.  Pooling 200 would
    show any pairwise blocking; dim 1 is numpy's own (pairwise) sum."""
    rng = np.random.default_rng(pooling * 100 + dim)
    table, indices = _pool_case(rng, 13, pooling, dim, special=True)
    with np.errstate(all="ignore"):
        expected = table[indices].sum(axis=1)
        pooled = _pooled(table, indices)
        with _native.using(None):
            reference = _pooled(table, indices)
    assert not indices.flags.c_contiguous
    assert np.array_equal(_bits(pooled), _bits(expected))
    assert np.array_equal(_bits(reference), _bits(expected))
    assert not np.signbit(pooled[0]).any()  # a bag of -0.0 rows pools to +0.0


@pytest.mark.parametrize("shape", [(0, 5), (4, 0), (0, 0)])
def test_gather_pool_of_an_empty_batch_or_empty_bags(shape):
    table = np.random.default_rng(1).standard_normal((10, 6))
    indices = np.zeros(shape, dtype=np.int64)
    pooled = _pooled(table, indices)
    assert pooled.shape == (shape[0], 6)
    assert np.array_equal(_bits(pooled), _bits(table[indices].sum(axis=1)))


@settings(max_examples=100, deadline=None)
@given(
    batch=st.integers(0, 12),
    pooling=st.integers(0, 20),
    dim=st.sampled_from([2, 4, 7, 32]),
    special=st.booleans(),
    seed=st.integers(0, 2**20),
)
def test_gather_pool_into_a_strided_stack(batch, pooling, dim, special, seed):
    """Pooled into one slot of a ``(batch, F, dim)`` stack, as the model
    does: the slot gets the axis-1 sum's bits and its neighbours keep
    theirs — an empty batch and empty bags included."""
    rng = np.random.default_rng(seed)
    table, indices = _pool_case(rng, batch, pooling, dim, special)
    stack = rng.standard_normal((batch, 3, dim))
    before = stack.copy()
    with np.errstate(all="ignore"):
        expected = table[indices].sum(axis=1)
        slot = stack[:, 1, :]
        returned = _pooled(table, indices, out=slot)
    assert returned is slot
    assert np.array_equal(_bits(stack[:, 1, :]), _bits(expected))
    assert np.array_equal(stack[:, ::2], before[:, ::2])


@pytest.mark.parametrize("bad", [-1, 40, 2**40])
@pytest.mark.parametrize("numpy_side", [False, True])
def test_gather_pool_refuses_an_index_outside_the_table(bad, numpy_side):
    """An index outside the table is found before the first store: the
    forward raises ``IndexError``, the target untouched, the bag's
    cached batch unchanged."""
    rng = np.random.default_rng(5)
    table, indices = _pool_case(rng, 6, 4, 8, special=False)
    indices = indices.copy()
    indices[5, 3] = bad
    bag = EmbeddingBag(Parameter("t", table, 0, is_embedding=True))
    out = np.full((6, 8), 7.0)
    with _native.using(None) if numpy_side else contextlib.nullcontext():
        with pytest.raises(IndexError):
            bag.forward(indices, out=out)
    assert np.all(out == 7.0)
    assert bag._indices is None


def _interacted(stack, delta):
    """One forward and backward of the layer on whatever implementation
    is current: (out, d_dense, the embeddings' gradients stacked)."""
    layer = FeatureInteraction(stack.shape[1])
    out = layer.forward_stacked(stack)
    d_dense, d_embeddings = layer.backward(delta)
    return out, d_dense, np.stack(d_embeddings, axis=1)


@settings(max_examples=120, deadline=None)
@given(
    batch=st.integers(0, 6),
    features=st.sampled_from([2, 3, 9, 27]),
    dim=st.sampled_from([1, 3, 4, 5, 8, 32, 33]),
    special=st.booleans(),
    zero_row=st.booleans(),
    seed=st.integers(0, 2**20),
)
def test_interaction_equals_its_numpy_twin(batch, features, dim, special, zero_row, seed):
    """The layer's forward and backward — the compiled passes where a
    library loaded, the numpy twins where none did (both legs run this)
    — against the twins and against the order spelt out, as ``uint64``:
    special values, a ``-0.0`` feature row, ragged ``dim``, and the pair
    gradients read through the strided ``[:, dim:]`` view of a delta
    that is itself a column slice of a wider array."""
    rng = np.random.default_rng(seed)
    stack = _values(rng, (batch, features, dim), special)
    if zero_row and batch:
        stack[rng.integers(batch), rng.integers(features)] = -0.0
    pairs = features * (features - 1) // 2
    wide = _values(rng, (batch, dim + pairs + 3), special)
    delta = wide[:, 2 : 2 + dim + pairs]
    with np.errstate(all="ignore"):
        compiled = _interacted(stack, delta)
        with _native.using(None):
            twin = _interacted(stack, delta)
        dots, d_stack = _native.interaction_order(stack, delta[:, dim:])
    for got, expected in zip(compiled, twin, strict=True):
        assert np.array_equal(_bits(got), _bits(expected))
    out, d_dense, d_embeddings = twin
    assert np.array_equal(_bits(out[:, :dim]), _bits(stack[:, 0]))
    assert np.array_equal(_bits(out[:, dim:]), _bits(dots))
    assert np.array_equal(_bits(d_embeddings), _bits(d_stack[:, 1:]))
    with np.errstate(all="ignore"):
        dense = d_stack[:, 0] + delta[:, :dim]
    assert np.array_equal(_bits(d_dense), _bits(dense))


def test_interaction_of_off_layout_operands_runs_the_twin():
    """A stack that is a strided view (not what the compiled passes
    index) and a float32 stack take the numpy twins: the float64 view
    gets the bits its contiguous copy gets."""
    rng = np.random.default_rng(3)
    wide = rng.standard_normal((5, 4, 10))
    view = wide[:, :, 1:9]
    delta = rng.standard_normal((5, 8 + 6))
    assert not view.flags.c_contiguous
    for got, expected in zip(
        _interacted(view, delta), _interacted(view.copy(), delta), strict=True
    ):
        assert np.array_equal(_bits(got), _bits(expected))
    narrow = view.astype(np.float32)
    out = FeatureInteraction(4).forward_stacked(narrow)
    assert out.dtype == np.float32
    np.testing.assert_allclose(out, _interacted(view, delta)[0], rtol=1e-5)


@pytest.mark.parametrize("lookups", [1, 3])
def test_a_model_step_is_the_same_on_either_path(lookups):
    """One DLRM step at the benchmark's F = 9, dim 32 — forward,
    backward and every gradient view the trainers read — as ``uint64``,
    on the compiled passes and on the numpy ones: what the layers hand
    downstream (layouts included: einsum's sums depend on them) must
    not move a released bit."""
    from repro.configs import small_dlrm
    from repro.data import Batch
    from repro.nn import DLRM

    config = small_dlrm(rows=97)
    config = type(config)(**{**vars(config), "lookups_per_table": lookups})
    rng = np.random.default_rng(lookups)
    batch = Batch(
        rng.standard_normal((48, config.dense_features)),
        rng.integers(0, 97, size=(48, config.num_tables, lookups)),
        rng.integers(0, 2, size=48),
    )
    weights = rng.random(48)

    def step():
        model = DLRM(config, seed=0)
        logits = model.forward(batch)
        model.backward(model.loss_grad_per_example(batch))
        views = {"logits": logits, "norms": model.ghost_norm_sq()}
        for name, grad in model.weighted_grads(weights).items():
            views[name] = getattr(grad, "values", grad)
        return views

    compiled = step()
    with _native.using(None):
        reference = step()
    assert compiled.keys() == reference.keys()
    for name in compiled:
        assert np.array_equal(_bits(compiled[name]), _bits(reference[name])), name


def test_pair_kernels_refuse_before_the_first_store(native_lib):
    """``interaction_dots`` / ``interaction_grad`` with no feature or a
    negative batch refuse and leave their destination untouched."""
    stack = np.ones((2, 3, 4))
    pair_grads = np.ones((2, 3))
    for batch, features in [(2, 0), (-1, 3)]:
        out = np.full((2, 4 + 3), 7.0)
        d_stack = np.full((2, 3, 4), 7.0)
        assert native_lib.interaction_dots(
            out.ctypes.data, stack.ctypes.data, batch, features, 4
        ) < 0
        assert native_lib.interaction_grad(
            d_stack.ctypes.data, stack.ctypes.data, pair_grads.ctypes.data,
            pair_grads.strides[0], batch, features, 4,
        ) < 0
        assert np.all(out == 7.0) and np.all(d_stack == 7.0)


# -- build, cache, fallback ---------------------------------------------------

@pytest.fixture
def cold_home(tmp_path, monkeypatch):
    """An empty per-user cache, and the session's library back afterwards."""
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setattr(_native, "LIB", _native.LIB)
    monkeypatch.setattr(_native, "REASON", _native.REASON)
    return tmp_path


def _edited_source(tmp_path, monkeypatch, name, old, new):
    """Build from a copy of the source file ``name`` with ``old`` ->
    ``new``, beside the other sources unedited."""
    (original,) = [path for path in _native.SOURCES if path.name == name]
    text = original.read_text()
    assert old in text
    edited = tmp_path / name
    edited.write_text(text.replace(old, new))
    monkeypatch.setattr(
        _native,
        "SOURCES",
        tuple(edited if path == original else path for path in _native.SOURCES),
    )


@needs_cc
def test_concurrent_cold_imports_leave_one_whole_artefact(cold_home):
    env = dict(
        os.environ,
        HOME=str(cold_home),
        PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]),
    )
    script = "from repro.rng import native_status; print(*native_status())"
    children = [
        subprocess.Popen(
            [sys.executable, "-c", script], env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for _ in range(4)
    ]
    outputs = [child.communicate(timeout=120) for child in children]
    assert all(child.returncode == 0 for child in children), outputs
    (artefact,) = _native.cache_dir().iterdir()  # no second file, no leftovers
    assert {out.strip() for out, _ in outputs} == {f"native {artefact}"}


@needs_cc
def test_cache_directory_is_private_and_foreign_artefacts_are_refused(
    cold_home, monkeypatch
):
    _native.load()
    assert native_status()[0] == "native"
    assert stat.S_IMODE(_native.cache_dir().stat().st_mode) == 0o700
    uid = os.getuid()
    monkeypatch.setattr(os, "getuid", lambda: uid + 1)
    _native.load()
    name, reason = native_status()
    assert name == "numpy" and "not owned by the current user" in reason


@needs_cc
def test_changed_source_builds_beside_the_old_artefact(cold_home, monkeypatch):
    """The artefact's name hashes every source: an edit to either file
    is a new library, and the old ones are left for whoever has them
    open."""
    _native.load()
    artefacts = set(_native.cache_dir().iterdir())
    assert len(artefacts) == 1
    for source, line in [
        ("_gauss.c", "#include <math.h>"), ("_sparse.c", "#include <stdint.h>")
    ]:
        _edited_source(cold_home, monkeypatch, source, line, line + "\n")
        _native.load()
        name, path = native_status()
        assert name == "native" and pathlib.Path(path) not in artefacts
        artefacts.add(pathlib.Path(path))
        assert set(_native.cache_dir().iterdir()) == artefacts


def test_unusable_cache_directory_falls_back(cold_home):
    (cold_home / ".cache").write_text("a file where the directory should go")
    _native.load()
    name, reason = native_status()
    assert name == "numpy" and reason.startswith("cache directory unusable")


def test_missing_compiler_falls_back(cold_home, monkeypatch):
    def no_cc(command, **kwargs):
        raise FileNotFoundError(command[0])

    monkeypatch.setattr(subprocess, "run", no_cc)
    _native.load()
    name, reason = native_status()
    assert name == "numpy" and reason.startswith("no C compiler")
    assert list(_native.cache_dir().iterdir()) == []
    # ... and the stream still draws, through the ufunc chain.
    assert NoiseStream(1).row_noise(0, np.arange(3), 1, 5).shape == (3, 5)


@needs_cc
def test_failed_build_falls_back(cold_home, monkeypatch):
    _edited_source(
        cold_home, monkeypatch, "_gauss.c", "#include <math.h>", "#error broken"
    )
    _native.load()
    name, reason = native_status()
    assert name == "numpy" and reason.startswith("build failed")
    assert list(_native.cache_dir().iterdir()) == []


@needs_cc
def test_failing_self_test_falls_back(cold_home, monkeypatch):
    """A build of either file whose arithmetic differs in the last bit
    compiles and loads, and is not used — for any of the kernels."""
    for source, old, new in [
        # One bit of one constant.
        ("_gauss.c", "0x1.921fb54442d18p+2", "0x1.921fb54442d19p+2"),
        # Shared rows rounded once more: lr * g + lr * n.
        ("_sparse.c", "a0 - lr * s0;", "a0 - (lr * g[k] + lr * n[k]);"),
        # Pairs walked backwards: np.add.at's sum, in another order.
        (
            "_sparse.c",
            "for (int64_t p = 0; p < n_pairs; p++) {",
            "for (int64_t p = n_pairs - 1; p >= 0; p--) {",
        ),
        # A bag's lookups added backwards: the axis-1 sum, reordered.
        (
            "_sparse.c",
            "for (int64_t p = 0; p < pooling; p++) {",
            "for (int64_t p = pooling - 1; p >= 0; p--) {",
        ),
        # A dot's lanes combined left to right.
        ("_sparse.c", "return (l0 + l1) + (l2 + l3);", "return ((l0 + l1) + l2) + l3;"),
        # A feature's partners walked backwards.
        (
            "_sparse.c",
            "for (int64_t q = 0; q < partners; q++) {",
            "for (int64_t q = partners - 1; q >= 0; q--) {",
        ),
    ]:
        with monkeypatch.context() as patch:
            _edited_source(cold_home, patch, source, old, new)
            _native.load()
        name, reason = native_status()
        assert name == "numpy" and "self-test" in reason, (source, old)


@needs_cc
def test_disagreeing_vector_body_falls_back_to_the_scalar_c(cold_home, monkeypatch):
    """One bit of the vector sincos's pi / 2 moves its results and not
    the scalar C's: the loader switches the AVX-512 bodies off, re-tests
    the scalar C on the same tile, and keeps the library on it."""
    _edited_source(
        cold_home, monkeypatch, "_gauss.c",
        "#define PIO2_1 0x1.921fb54400000p+0", "#define PIO2_1 0x1.921fb54500000p+0",
    )
    _native.load()
    assert native_status()[0] == "native"
    assert _native.vector_isa() == "scalar"
