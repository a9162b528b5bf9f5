"""Importable test helpers shared by the test suite and benchmarks.

Historically these lived in ``tests/conftest.py``, but ``from conftest
import ...`` is fragile: pytest inserts every conftest-bearing directory
onto ``sys.path``, so whichever ``conftest.py`` is found first wins
(``benchmarks/conftest.py`` shadowed the test helpers at the repo root).
Keeping the helpers inside the installed package makes them importable
from anywhere — tests, benchmarks, examples, notebooks — with no path
games.
"""

from __future__ import annotations

import numpy as np

from . import configs  # noqa: F401  (re-exported convenience)
from .data import DataLoader, SyntheticClickDataset
from .nn import DLRM
from .train import DPConfig


def make_loader(config, batch_size=16, num_batches=8, seed=5,
                sampling="fixed", skew=None, data_seed=3,
                num_examples=1 << 12):
    """A deterministic loader over a synthetic trace for ``config``."""
    dataset = SyntheticClickDataset(
        config, seed=data_seed, skew=skew, num_examples=num_examples
    )
    return DataLoader(dataset, batch_size=batch_size,
                      num_batches=num_batches, sampling=sampling, seed=seed)


def train_algorithm(algorithm, config, *, batch_size=16, num_batches=8,
                    model_seed=7, noise_seed=99, dp=None, sampling="fixed",
                    skew=None, **build_kwargs):
    """Train one algorithm from a fixed initial state; return (model, result, trainer).

    Every call with the same seeds sees the same model init, the same
    trace, and the same noise stream — the setup all equivalence tests
    build on.  ``algorithm`` accepts one of the seven algorithm names,
    a :class:`repro.session.ExecutionPlan`, or a ``--plan``-style spec
    string (anything containing ``=``); plans build through
    ``TrainSession.build`` (``build_kwargs`` reach it, e.g.
    ``schedule=``).  ``skew`` skews the trace.
    """
    from .session import ExecutionPlan, TrainSession, make_trainer

    dp = dp or DPConfig(noise_multiplier=1.1, max_grad_norm=1.0,
                        learning_rate=0.05)
    model = DLRM(config, seed=model_seed)
    loader = make_loader(config, batch_size=batch_size,
                         num_batches=num_batches, sampling=sampling,
                         skew=skew)
    if isinstance(algorithm, str) and "=" in algorithm:
        algorithm = ExecutionPlan.from_spec(algorithm)
    if isinstance(algorithm, ExecutionPlan):
        trainer = TrainSession.build(
            model, dp, algorithm, noise_seed=noise_seed, **build_kwargs
        ).trainer
    else:
        trainer = make_trainer(algorithm, model, dp, noise_seed=noise_seed)
    result = trainer.fit(loader)
    return model, result, trainer


def max_param_diff(model_a, model_b):
    """Largest absolute difference across all parameters of two models."""
    params_a = model_a.parameters()
    params_b = model_b.parameters()
    assert params_a.keys() == params_b.keys()
    worst = 0.0
    for name in params_a:
        diff = np.max(np.abs(params_a[name].data - params_b[name].data))
        worst = max(worst, float(diff))
    return worst


def numeric_gradient(func, x, eps=1e-6):
    """Central-difference gradient of a scalar function of array ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat_x = x.ravel()
    flat_grad = grad.ravel()
    for i in range(flat_x.size):
        original = flat_x[i]
        flat_x[i] = original + eps
        upper = func(x)
        flat_x[i] = original - eps
        lower = func(x)
        flat_x[i] = original
        flat_grad[i] = (upper - lower) / (2.0 * eps)
    return grad


def philox4x32_reference(c0, c1, c2, c3, k0, k1):
    """Ten Philox4x32 rounds in plain uint64 arithmetic: the reference
    the blocked cipher (``repro.rng.philox.philox4x32``) is tested
    against.

    Each argument is ``np.uint64`` (scalar or array; arrays broadcast,
    so whole counter columns go through at once) holding a 32-bit
    value.  ``mulhilo`` is one 64-bit product: the high word is a
    shift, the low word a mask (Salmon et al., Table 2 constants).
    Returns the four output words as uint64 (each < 2**32).
    """
    m0, m1 = np.uint64(0xD2511F53), np.uint64(0xCD9E8D57)
    w0, w1 = np.uint64(0x9E3779B9), np.uint64(0xBB67AE85)
    mask, shift = np.uint64(0xFFFFFFFF), np.uint64(32)
    for _ in range(10):
        p0, p1 = c0 * m0, c2 * m1
        c0, c1, c2, c3 = (
            ((p1 >> shift) ^ c1 ^ k0) & mask,
            p1 & mask,
            ((p0 >> shift) ^ c3 ^ k1) & mask,
            p0 & mask,
        )
        k0, k1 = (k0 + w0) & mask, (k1 + w1) & mask
    return c0, c1, c2, c3
