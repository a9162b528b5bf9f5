"""Build, cache, load and vet the compiled inner loop (``_gauss.c``).

:data:`LIB` is what :meth:`NoiseStream._keyed_gaussians
<repro.rng.noise.NoiseStream._keyed_gaussians>` and
:func:`~repro.rng.philox.philox4x32` consult: the loaded library, or
``None`` — then the numpy ufunc chain runs, which is the reference the
tests compare against and the only implementation on a host without a C
compiler.  Which of the two runs is decided by what :func:`load`
observes (a compiler, a usable cache, a passing self-test), never by a
setting; both release the same bits.

The shared object lives in a per-user cache directory, named by the
sha256 of source + flags, so the compiler runs once per user and
source version — at import of :mod:`repro.rng`, never inside a timed
call — and every later process only ``dlopen``\\ s it.
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

SOURCE = pathlib.Path(__file__).with_name("_gauss.c")
#: No ``-ffast-math``, no ``-march=native``, no contraction: every
#: floating-point operation rounds exactly as the ufunc chain's does.
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

#: The loaded library, or ``None``: the ufunc chain runs.
LIB = None
#: Why :data:`LIB` is ``None``.
REASON = "not loaded"


class _Unavailable(Exception):
    """Why there is no native library; the message is the reason."""


def cache_dir() -> pathlib.Path:
    return pathlib.Path.home() / ".cache" / "repro-lazydp"


def native_status() -> tuple:
    """``("native", path of the loaded library)`` or ``("ufunc", why
    the numpy ufunc chain runs instead)``."""
    if LIB is not None:
        return ("native", LIB._name)
    return ("ufunc", REASON)


@contextlib.contextmanager
def using(lib):
    """Run the block on ``lib`` (``None``: on the ufunc chain) whatever
    was loaded — how the self-test, the tests and the bench case put
    the two implementations side by side.  Not for concurrent draws."""
    global LIB
    previous, LIB = LIB, lib
    try:
        yield
    finally:
        LIB = previous


def _build() -> pathlib.Path:
    """The cached shared object for this source + flags, compiled if
    absent.  Built in a private temporary directory and moved into
    place with ``os.replace``, so concurrent first imports each see
    either no artefact or a whole one."""
    try:
        source = SOURCE.read_bytes()
    except OSError as exc:
        raise _Unavailable(f"kernel source unreadable: {exc}") from exc
    digest = hashlib.sha256(source + " ".join(FLAGS).encode()).hexdigest()
    try:
        directory = cache_dir()
        artefact = directory / f"gauss-{digest[:20]}.so"
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
    command = ["cc", *FLAGS, str(SOURCE), "-o", str(target), "-lm"]
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
    lib.gauss_finish.restype = None
    lib.sincos_lattice_mismatches.argtypes = [u64, u64, u64]
    lib.sincos_lattice_mismatches.restype = u64
    return lib


def _self_test(lib: ctypes.CDLL) -> bool:
    """One fixed 16 K-counter tile — rows on both sides of 2^32,
    per-row iterations and scales, a ragged last lane block — through
    ``lib`` and through the ufunc chain, compared as ``uint64``."""
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
        REASON = f"{artefact} disagrees with the ufunc chain (self-test)"
        return
    LIB, REASON = lib, ""
