"""Shared fixtures for the test suite.

Reusable helpers (``max_param_diff``, ``train_algorithm``, ...) live in
:mod:`repro.testing` so they are importable without relying on pytest's
conftest path insertion; the names are re-exported here for any
straggling ``from conftest import ...`` usage.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import configs
from repro.data import SyntheticClickDataset
from repro.nn import DLRM
from repro.rng import _native
from repro.testing import (  # noqa: F401  (re-exported for legacy imports)
    make_loader,
    max_param_diff,
    numeric_gradient,
    train_algorithm,
)
from repro.train import DPConfig


@pytest.fixture
def tiny_config():
    return configs.tiny_dlrm(num_tables=3, rows=64, dim=8, lookups=2)


@pytest.fixture
def tiny_model(tiny_config):
    return DLRM(tiny_config, seed=7)


@pytest.fixture
def dp_config():
    return DPConfig(noise_multiplier=1.1, max_grad_norm=1.0,
                    learning_rate=0.05, delta=1e-5)


@pytest.fixture
def tiny_batch(tiny_config):
    dataset = SyntheticClickDataset(tiny_config, seed=3)
    return dataset.batch(np.arange(16))


@pytest.fixture
def ufunc_chain():
    """Run every kernel with a compiled inner loop (the keyed Gaussians,
    ``philox4x32``, the sparse apply, the embedding scatter-add) as its
    numpy expression — the reference, and what a host without a C
    compiler runs — whatever the loader found (swaps the loader's
    handle)."""
    with _native.using(None):
        yield


@pytest.fixture
def native_lib():
    """The loaded library, for tests that call it (or the wrappers
    around it) directly; skips with the loader's reason without one."""
    if _native.LIB is None:
        pytest.skip(_native.REASON)
    return _native.LIB


@pytest.fixture
def scalar_c(native_lib):
    """Run ``_gauss.c``'s scalar C bodies whatever the CPU supports
    (``gauss_vector_isa`` cleared through ctypes for the test); skips
    with the loader's reason without a library."""
    with _native.scalar_c():
        yield


# The numpy side keeps the test id it had when `_gauss.c` was the only
# compiled file ("ufunc"); the value is what `native_status()` reports.
@pytest.fixture(params=["native", "scalar", pytest.param("numpy", id="ufunc")])
def compiled_kernels(request):
    """Run the test once per implementation: the library as loaded
    (``native``: the AVX-512 bodies where the CPU has them), the same
    library on its scalar C bodies (``scalar``), the numpy expressions
    (``ufunc``); the compiled cases skip with the loader's reason where
    nothing loaded.  The value is ``native_status()[0]`` for the
    duration of the test."""
    if request.param == "numpy":
        request.getfixturevalue("ufunc_chain")
        return "numpy"
    request.getfixturevalue("scalar_c" if request.param == "scalar" else "native_lib")
    return "native"
