"""Build, cache, load and vet the compiled inner loops (:data:`SOURCES`).

:data:`LIB` is what :meth:`NoiseStream._keyed_gaussians
<repro.rng.noise.NoiseStream._keyed_gaussians>`,
:func:`~repro.rng.philox.philox4x32` (``_gauss.c``) and
:func:`~repro.kernels.fused.fused_noisy_update`,
:func:`~repro.kernels.fused.apply_sparse_update`,
:meth:`PerExamplePairs.weighted_row_grad
<repro.nn.parameter.PerExamplePairs.weighted_row_grad>`,
:meth:`EmbeddingBag.forward <repro.nn.layers.EmbeddingBag.forward>`,
:class:`~repro.nn.layers.FeatureInteraction` and
:meth:`SyntheticClickDataset.sparse_indices
<repro.data.synthetic.SyntheticClickDataset.sparse_indices>` (``_sparse.c``)
consult: the loaded library, or ``None`` — then the numpy expressions
run, which are the reference the tests compare against and the only
implementation on a host without a C compiler.  Which of the two runs
is decided by what :func:`load` observes (a compiler, a usable cache, a
passing self-test), never by a setting; both release the same bits.

The shared object — one for all the sources — lives in a per-user cache
directory, named by the sha256 of sources + flags, so the compiler runs
once per user and source version — at import of :mod:`repro.rng`, never
inside a timed call — and every later process only ``dlopen``\\ s it.

Inside the library, ``_gauss.c`` picks its AVX-512 or its scalar C
bodies from what the CPU supports (:func:`vector_isa`); both release
the ufunc chain's bits, and the self-test vets whichever was picked,
falling back to the scalar C before it refuses the library.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import pathlib
import subprocess
import tempfile

import numpy as np

_PACKAGE = pathlib.Path(__file__).parents[1]
#: Every C file, compiled into the one library.
SOURCES = (_PACKAGE / "rng" / "_gauss.c", _PACKAGE / "kernels" / "_sparse.c")
#: No ``-ffast-math``, no ``-march=native``, no contraction: every
#: floating-point operation rounds exactly as the numpy expression's does.
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

#: The loaded library, or ``None``: the numpy expressions run.
LIB = None
#: Why :data:`LIB` is ``None``.
REASON = "not loaded"


class _Unavailable(Exception):
    """Why there is no native library; the message is the reason."""


def cache_dir() -> pathlib.Path:
    return pathlib.Path.home() / ".cache" / "repro-lazydp"


def native_status() -> tuple:
    """``("native", path of the loaded library)`` or ``("numpy", why
    the numpy expressions run instead)``."""
    if LIB is not None:
        return ("native", LIB._name)
    return ("numpy", REASON)


def _isa_switch(lib: ctypes.CDLL) -> ctypes.c_int:
    """``_gauss.c``'s ``gauss_vector_isa``: 1 runs the AVX-512 bodies,
    0 the scalar C."""
    return ctypes.c_int.in_dll(lib, "gauss_vector_isa")


def vector_isa():
    """Which bodies of ``_gauss.c`` run: ``"avx512"`` or ``"scalar"``;
    ``None`` where the numpy expressions run."""
    if LIB is None:
        return None
    return "avx512" if _isa_switch(LIB).value else "scalar"


def f64_matrix(array: np.ndarray) -> bool:
    """A float64 C-contiguous matrix: what ``_sparse.c`` indexes as
    ``base[row * dim + lane]``."""
    return (
        isinstance(array, np.ndarray)
        and array.dtype == np.float64
        and array.ndim == 2
        and array.flags.c_contiguous
    )


def vector(array: np.ndarray, dtype) -> bool:
    """A contiguous 1-D array of ``dtype``: what the C files walk by index."""
    return (
        isinstance(array, np.ndarray)
        and array.dtype == dtype
        and array.ndim == 1
        and array.flags.c_contiguous
    )


_BYTE = ctypes.c_char


def address(array: np.ndarray) -> int:
    """``array.ctypes.data``, through the buffer protocol where the
    array is writable and C-contiguous — a fraction of the cost of
    building the ``ctypes`` helper, which a few-row call into the
    library would otherwise pay once per operand."""
    try:
        return ctypes.addressof(_BYTE.from_buffer(array))
    except (TypeError, ValueError, BufferError):
        return array.ctypes.data


@contextlib.contextmanager
def using(lib):
    """Run the block on ``lib`` (``None``: on the numpy paths) whatever
    was loaded — how the self-test, the tests and the bench case put
    the two implementations side by side.  Not for concurrent draws."""
    global LIB
    previous, LIB = LIB, lib
    try:
        yield
    finally:
        LIB = previous


@contextlib.contextmanager
def scalar_c():
    """Run the block on the loaded library's scalar C bodies, its
    AVX-512 ones switched off — how the tests and the bench case put the
    two side by side on a host that has both.  Needs :data:`LIB`; not
    for concurrent draws."""
    switch = _isa_switch(LIB)
    previous, switch.value = switch.value, 0
    try:
        yield
    finally:
        switch.value = previous


def _build() -> pathlib.Path:
    """The cached shared object for these sources + flags, compiled if
    absent.  Built in a private temporary directory and moved into
    place with ``os.replace``, so concurrent first imports each see
    either no artefact or a whole one."""
    digest = hashlib.sha256(" ".join(FLAGS).encode())
    try:
        for source in SOURCES:
            digest.update(source.read_bytes())
    except OSError as exc:
        raise _Unavailable(f"kernel source unreadable: {exc}") from exc
    try:
        directory = cache_dir()
        artefact = directory / f"kernels-{digest.hexdigest()[:20]}.so"
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        if not artefact.exists():
            with tempfile.TemporaryDirectory(dir=directory) as scratch:
                built = pathlib.Path(scratch) / artefact.name
                _compile(built)
                os.replace(built, artefact)
        owner = artefact.stat().st_uid
    except (OSError, RuntimeError) as exc:  # RuntimeError: no home directory
        raise _Unavailable(f"cache directory unusable: {exc}") from exc
    if owner != os.getuid():
        raise _Unavailable(f"{artefact} is not owned by the current user")
    return artefact


def _compile(target: pathlib.Path) -> None:
    command = ["cc", *FLAGS, *map(str, SOURCES), "-o", str(target), "-lm"]
    try:
        subprocess.run(command, check=True, capture_output=True, text=True)
    except FileNotFoundError as exc:
        raise _Unavailable("no C compiler: `cc` is not on PATH") from exc
    except subprocess.CalledProcessError as exc:
        raise _Unavailable(f"build failed: {exc.stderr.strip()[-300:]}") from exc


def _open(artefact: pathlib.Path) -> ctypes.CDLL:
    try:
        lib = ctypes.CDLL(str(artefact))
    except OSError as exc:
        raise _Unavailable(f"load failed: {exc}") from exc
    pointer, i64 = ctypes.c_void_p, ctypes.c_int64
    u32, u64 = ctypes.c_uint32, ctypes.c_uint64
    lib.philox4x32_blocks.argtypes = [pointer, i64, u32, u32, ctypes.c_int32, pointer]
    lib.philox4x32_blocks.restype = None
    lib.gauss_uniforms.argtypes = [
        pointer, i64, pointer, i64, i64, i64, i64, u32, u32, pointer, pointer
    ]
    lib.gauss_uniforms.restype = i64
    lib.gauss_finish.argtypes = [
        pointer, pointer, pointer, i64, i64, i64, i64, pointer, i64, i64
    ]
    lib.gauss_finish.restype = i64
    lib.sincos_lattice_mismatches.argtypes = [u64, u64, u64, pointer, pointer, pointer, u64]
    lib.sincos_lattice_mismatches.restype = u64
    lib.sparse_rows_update.argtypes = [
        pointer, pointer, i64, i64, i64, ctypes.c_double,
        pointer, pointer, i64, pointer, pointer, i64,
    ]
    lib.sparse_rows_update.restype = i64
    lib.weighted_scatter_add.argtypes = [
        pointer, i64, i64, pointer, pointer, pointer, i64, pointer, i64, pointer, i64
    ]
    lib.weighted_scatter_add.restype = i64
    lib.gather_pool.argtypes = [
        pointer, i64, pointer, i64, i64, pointer, i64, i64, i64, i64
    ]
    lib.gather_pool.restype = i64
    lib.interaction_dots.argtypes = [pointer, pointer, i64, i64, i64]
    lib.interaction_dots.restype = i64
    lib.interaction_grad.argtypes = [pointer, pointer, pointer, i64, i64, i64, i64]
    lib.interaction_grad.restype = i64
    lib.cdf_search.argtypes = [pointer, pointer, i64, pointer, i64, pointer, i64]
    lib.cdf_search.restype = i64
    return lib


def _self_test(lib: ctypes.CDLL) -> bool:
    """One fixed case per entry point through ``lib`` and through
    numpy, compared as ``uint64``.  A Gaussian tile that disagrees on
    the AVX-512 bodies switches them off, and the scalar C gets the
    same tile before the library is refused."""
    if not _sparse_agrees(lib):
        return False
    if _gauss_agrees(lib):
        return True
    switch = _isa_switch(lib)
    if not switch.value:
        return False
    switch.value = 0
    return _gauss_agrees(lib)


def _gauss_agrees(lib: ctypes.CDLL) -> bool:
    """One fixed 16 K-counter tile — rows on both sides of 2^32,
    per-row iterations and scales, a ragged last lane block; ~4 K of
    its 32 K angles are near a rounding midpoint and go to ``sincos``
    on the AVX-512 body — through ``lib`` and through the ufunc
    chain."""
    from .noise import NoiseStream
    from .philox import derive_key

    rows = np.arange(2**32 - 1024, 2**32 + 1024, dtype=np.uint64)
    iterations = np.arange(rows.size, dtype=np.int64) % 13
    scales = 0.25 + (np.arange(rows.size) % 7).astype(np.float64)

    def draw() -> np.ndarray:
        out = np.empty((rows.size, 31), dtype=np.float64)
        NoiseStream._keyed_gaussians(
            derive_key(1234, 1, 5), rows, iterations, scales, out
        )
        return out.view(np.uint64)

    with using(lib):
        compiled = draw()
    with using(None):
        reference = draw()
    return np.array_equal(compiled, reference)


def _sparse_agrees(lib: ctypes.CDLL) -> bool:
    """``_sparse.c``: an in-place update of a slab window (gradient-only,
    noise-only and shared rows), a pooled scatter-add over a strided
    ``deltas`` with repeated rows, a gather-pool of strided indices
    with repeated and ``-0.0`` rows, the interaction's two passes
    (:func:`_interaction_agrees`) and the guided CDF search
    (:func:`_cdf_search_agrees`), against the numpy expressions they
    stand in for — spelt out here, because :mod:`repro.kernels` imports
    this module."""
    base, nrows, dim, lr = 1000, 64, 5, 0.3

    def ramp(n: int, offset: float) -> np.ndarray:
        return np.arange(n * dim, dtype=np.float64).reshape(n, dim) / 7.0 - offset

    grad_rows = base + np.arange(1, nrows, 3, dtype=np.int64)
    noise_rows = base + np.arange(0, nrows, 2, dtype=np.int64)
    grad, noise = ramp(grad_rows.size, 3.1), ramp(noise_rows.size, 11.7)
    slab = ramp(nrows, 20.3)
    merged = np.zeros_like(slab)
    merged[grad_rows - base] += grad
    merged[noise_rows - base] += noise
    reference = slab - lr * merged
    written = lib.sparse_rows_update(
        slab.ctypes.data, slab.ctypes.data, nrows, dim, base, lr,
        grad_rows.ctypes.data, grad.ctypes.data, grad_rows.size,
        noise_rows.ctypes.data, noise.ctypes.data, noise_rows.size,
    )
    if written != np.union1d(grad_rows, noise_rows).size:
        return False
    if not np.array_equal(slab.view(np.uint64), reference.view(np.uint64)):
        return False

    batch, unique = 9, 7
    examples = np.arange(40, dtype=np.int64) % batch
    inverse = np.arange(40, dtype=np.int64) * 5 % unique
    mults = 1.0 + np.arange(40) % 3
    weights = 0.1 + np.arange(batch) / 9.0
    deltas = ramp(batch, 2.9)[:, :3]  # rows `dim` doubles apart
    reference = np.zeros((unique, 3))
    np.add.at(
        reference, inverse, deltas[examples] * (weights[examples] * mults)[:, None]
    )
    values = np.zeros((unique, 3))
    done = lib.weighted_scatter_add(
        values.ctypes.data, unique, 3, inverse.ctypes.data, examples.ctypes.data,
        mults.ctypes.data, examples.size, deltas.ctypes.data, deltas.strides[0],
        weights.ctypes.data, batch,
    )
    if done != examples.size or not np.array_equal(
        values.view(np.uint64), reference.view(np.uint64)
    ):
        return False

    # Bags of 11 lookups (rows repeated; a bag of -0.0 rows) read from a
    # strided (batch, table, lookups) slice, pooled into a strided stack.
    table = ramp(30, 4.4)
    table[3] = -0.0
    sparse = (np.arange(6 * 3 * 11, dtype=np.int64) * 7 % 30).reshape(6, 3, 11)
    sparse[2, 1] = 3
    indices = sparse[:, 1, :]
    reference = table[indices].sum(axis=1)
    stack = np.full((6, 2, dim), np.nan)
    done = lib.gather_pool(
        stack.ctypes.data, stack.strides[0], table.ctypes.data, 30, dim,
        indices.ctypes.data, indices.strides[0], indices.strides[1], 6, 11,
    )
    if not (
        done == indices.size
        and np.array_equal(stack[:, 0].view(np.uint64), reference.view(np.uint64))
        and np.isnan(stack[:, 1]).all()
    ):
        return False
    return (
        _interaction_agrees(lib, 9, 32)
        and _interaction_agrees(lib, 3, 5)
        and _cdf_search_agrees(lib)
    )


def interaction_order(stack: np.ndarray, d_pairs: np.ndarray) -> tuple:
    """The interaction's two summation orders spelt out plainly, for a
    ``(batch, F, dim)`` float64 stack and ``(batch, pairs)`` pair
    gradients: ``(dots, d_stack)``.  A dot sums its products in four
    lanes ``d mod 4``, each from ``-0.0`` (the exact additive identity)
    in ascending ``d``, then ``(l0 + l1) + (l2 + l3)``; ``d_stack[:,
    f]`` sums ``dp(f, g) * stack[:, g]`` over ``g != f`` ascending."""
    features = stack.shape[1]
    rows, cols = np.triu_indices(features, k=1)
    lanes = np.full((4, stack.shape[0], rows.size), -0.0)
    for d in range(stack.shape[2]):
        lanes[d % 4] += stack[:, rows, d] * stack[:, cols, d]
    dots = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
    pair = np.zeros((features, features), dtype=np.int64)
    pair[rows, cols] = pair[cols, rows] = np.arange(rows.size)
    d_stack = np.full(stack.shape, -0.0)
    for f in range(features):
        for g in range(features):
            if g != f:
                d_stack[:, f] += d_pairs[:, pair[f, g], None] * stack[:, g]
    return dots, d_stack


def _interaction_agrees(lib: ctypes.CDLL, features: int, dim: int) -> bool:
    """``interaction_dots`` and ``interaction_grad`` on a ``(3,
    features, dim)`` stack with a ``-0.0`` feature row, the pair
    gradients read through the strided ``[:, dim:]`` view of a wider
    delta, against :func:`interaction_order`."""
    batch, pairs = 3, features * (features - 1) // 2
    stack = (
        np.arange(batch * features * dim, dtype=np.float64) % 23 / 7.0 - 1.3
    ).reshape(batch, features, dim)
    stack[1, features - 1] = -0.0
    delta = np.cos(np.arange(batch * (dim + pairs + 2), dtype=np.float64))
    d_pairs = delta.reshape(batch, -1)[:, dim + 2 :]
    dots, reference = interaction_order(stack, d_pairs)

    out = np.full((batch, dim + pairs), np.nan)
    done = lib.interaction_dots(out.ctypes.data, stack.ctypes.data, batch, features, dim)
    if done != batch * pairs or not (
        np.array_equal(out[:, :dim].view(np.uint64), stack[:, 0].view(np.uint64))
        and np.array_equal(out[:, dim:].view(np.uint64), dots.view(np.uint64))
    ):
        return False
    d_stack = np.full(stack.shape, np.nan)
    done = lib.interaction_grad(
        d_stack.ctypes.data, stack.ctypes.data, d_pairs.ctypes.data,
        d_pairs.strides[0], batch, features, dim,
    )
    return done == batch * features and np.array_equal(
        d_stack.view(np.uint64), reference.view(np.uint64)
    )


def _cdf_search_agrees(lib: ctypes.CDLL) -> bool:
    """``cdf_search`` against ``np.searchsorted(side="left")`` on a
    64-row CDF whose last eleven entries have rounded to 1.0 and on a 1-row
    CDF, for keys at every CDF entry and bucket edge ``k / K``, their
    ``nextafter`` neighbours, 0 and the largest double below 1; each
    guide built here by searching, not as the loader's callers build
    it."""
    below_one = np.nextafter(1.0, 0.0)
    tail = np.cumsum(0.5 ** np.arange(64.0))
    for cdf in (tail / tail[-1], np.ones(1)):
        size = 1 << (cdf.size - 1).bit_length()
        edges = np.arange(size) / size
        guide = np.searchsorted(cdf, edges, side="left").astype(np.int64)
        keys = np.concatenate([cdf, edges, [0.0, below_one]])
        keys = np.concatenate([keys, np.nextafter(keys, 0.0), np.nextafter(keys, 1.0)])
        keys = keys[keys < 1.0]
        ranks = np.full(keys.size, -1, dtype=np.int64)
        done = lib.cdf_search(
            ranks.ctypes.data, keys.ctypes.data, keys.size, cdf.ctypes.data,
            cdf.size, guide.ctypes.data, size,
        )
        if done != keys.size or not np.array_equal(
            ranks, np.searchsorted(cdf, keys, side="left")
        ):
            return False
    return True


def load() -> None:
    """Set :data:`LIB` (and :data:`REASON`) from what this host can do."""
    global LIB, REASON
    LIB = None
    try:
        artefact = _build()
        lib = _open(artefact)
    except _Unavailable as exc:
        REASON = str(exc)
        return
    if not _self_test(lib):
        REASON = f"{artefact} disagrees with numpy (self-test)"
        return
    LIB, REASON = lib, ""
