"""The compiled inner loop of the keyed-Gaussian kernel (``_gauss.c``):
bit-equality with the ufunc chain, the ``sincos`` proof on a sample of
the angle lattice, and the build / cache / fallback behaviour of the
loader (``repro.rng._native``)."""

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
from repro.rng import NoiseStream, _native, derive_key, native_status
from repro.rng.philox import BLOCK
from repro.session import TrainSession

HAS_CC = shutil.which("cc") is not None
needs_cc = pytest.mark.skipif(not HAS_CC, reason="no `cc` on PATH")


@pytest.fixture
def native():
    if _native.LIB is None:
        pytest.skip(_native.REASON)
    return _native.LIB


@needs_cc
def test_native_kernel_loads_where_there_is_a_compiler():
    """A silently failing build must not pass as "no compiler"."""
    name, detail = native_status()
    assert name == "native", detail
    assert pathlib.Path(detail).is_file()


def test_which_implementation_ran_is_reported(
    gaussian_kernel, capsys, tiny_model, dp_config
):
    assert native_status()[0] == gaussian_kernel
    assert main(["backends"]) == 0
    assert f"gaussian kernel: {gaussian_kernel} (" in capsys.readouterr().out
    with TrainSession.build(tiny_model, dp_config) as session:
        assert session.trainer.kernel_stats()["gaussian_kernel"] == gaussian_kernel


# -- native == ufunc, bit for bit ---------------------------------------------

def _draw(key, rows, iteration, scale, dim):
    out = np.empty((rows.size, dim), dtype=np.float64)
    NoiseStream._keyed_gaussians(key, rows, iteration, scale, out)
    return out.view(np.uint64)


def _both(*args):
    """The draw through the loaded library, then through the ufunc chain."""
    if _native.LIB is None:
        pytest.skip(_native.REASON)
    compiled = _draw(*args)
    with _native.using(None):
        return compiled, _draw(*args)


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
    compiled, reference = _both(derive_key(seed, 1, 3), rows, iteration, scale, dim)
    assert compiled.shape == (count, dim)
    assert np.array_equal(compiled, reference)


@pytest.mark.parametrize("width", [4 * BLOCK + 1, 9 * BLOCK + 3])
def test_native_equals_ufunc_chain_on_a_row_wider_than_a_block(width):
    """A dense tensor / a table's init: one row, tiled along its lanes."""
    compiled, reference = _both(
        derive_key(5, 4, 2), np.zeros(1, dtype=np.uint64), 0, 0.176, width
    )
    assert np.array_equal(compiled, reference)


def test_native_writes_rows_of_a_strided_output(native):
    """The row stride is passed, not assumed: a column slice of a wider
    array receives the same bits and its neighbours are not touched."""
    rows = np.arange(300)
    key = derive_key(9, 1, 0)
    wide = np.full((300, 11), -1.0)
    NoiseStream._keyed_gaussians(key, rows, 3, 1.0, wide[:, :7])
    assert np.array_equal(wide[:, :7].view(np.uint64), _draw(key, rows, 3, 1.0, 7))
    assert np.all(wide[:, 7:] == -1.0)


def test_sincos_matches_sin_and_cos_on_the_angle_lattice(native):
    """``tools/check_sincos_lattice.py`` walks all 2^32 angles a tile can
    produce; here a stratified 2^22 of them plus a window around every
    octant boundary (theta = k pi / 4 at word k * 2^29), where the range
    reduction switches polynomial."""
    assert native.sincos_lattice_mismatches(511, 2**22, 1024) == 0
    for octant in range(9):
        first = max(octant * 2**29 - 512, 0)
        count = min(octant * 2**29 + 512, 2**32) - first
        assert native.sincos_lattice_mismatches(first, count, 1) == 0


# -- build, cache, fallback ---------------------------------------------------

@pytest.fixture
def cold_home(tmp_path, monkeypatch):
    """An empty per-user cache, and the session's library back afterwards."""
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setattr(_native, "LIB", _native.LIB)
    monkeypatch.setattr(_native, "REASON", _native.REASON)
    return tmp_path


def _edited_source(tmp_path, monkeypatch, old, new):
    text = _native.SOURCE.read_text()
    assert old in text
    edited = tmp_path / "_gauss.c"
    edited.write_text(text.replace(old, new))
    monkeypatch.setattr(_native, "SOURCE", edited)


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
    assert name == "ufunc" and "not owned by the current user" in reason


@needs_cc
def test_changed_source_builds_beside_the_old_artefact(cold_home, monkeypatch):
    _native.load()
    (old,) = _native.cache_dir().iterdir()
    _edited_source(cold_home, monkeypatch, "#include <math.h>", "#include <math.h>\n")
    _native.load()
    name, path = native_status()
    assert name == "native" and pathlib.Path(path) != old
    assert set(_native.cache_dir().iterdir()) == {old, pathlib.Path(path)}


def test_unusable_cache_directory_falls_back(cold_home):
    (cold_home / ".cache").write_text("a file where the directory should go")
    _native.load()
    name, reason = native_status()
    assert name == "ufunc" and reason.startswith("cache directory unusable")


def test_missing_compiler_falls_back(cold_home, monkeypatch):
    def no_cc(command, **kwargs):
        raise FileNotFoundError(command[0])

    monkeypatch.setattr(subprocess, "run", no_cc)
    _native.load()
    name, reason = native_status()
    assert name == "ufunc" and reason.startswith("no C compiler")
    assert list(_native.cache_dir().iterdir()) == []
    # ... and the stream still draws, through the ufunc chain.
    assert NoiseStream(1).row_noise(0, np.arange(3), 1, 5).shape == (3, 5)


@needs_cc
def test_failed_build_falls_back(cold_home, monkeypatch):
    _edited_source(cold_home, monkeypatch, "#include <math.h>", "#error broken")
    _native.load()
    name, reason = native_status()
    assert name == "ufunc" and reason.startswith("build failed")
    assert list(_native.cache_dir().iterdir()) == []


@needs_cc
def test_failing_self_test_falls_back(cold_home, monkeypatch):
    """A build whose arithmetic differs in one bit of one constant
    compiles and loads, and is not used."""
    _edited_source(
        cold_home, monkeypatch, "0x1.921fb54442d18p+2", "0x1.921fb54442d19p+2"
    )
    _native.load()
    name, reason = native_status()
    assert name == "ufunc" and "self-test" in reason
