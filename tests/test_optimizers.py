"""Tests for the dense update rules."""

import numpy as np
import pytest

from repro.nn import Parameter
from repro.train.optimizers import DenseMomentum, DenseSGD


def make_param(shape=(6, 4), seed=0):
    rng = np.random.default_rng(seed)
    return Parameter("p", rng.normal(size=shape), 0)


class TestDenseSGD:
    def test_update(self):
        param = make_param()
        before = param.data.copy()
        grad = np.ones_like(param.data)
        DenseSGD(0.1).update(param, grad)
        np.testing.assert_allclose(param.data, before - 0.1)

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            DenseSGD(0.0)

    def test_no_state(self):
        assert DenseSGD(0.1).state_bytes() == 0


class TestDenseMomentum:
    def test_first_step_matches_sgd(self):
        param_sgd = make_param(seed=1)
        param_mom = make_param(seed=1)
        grad = np.random.default_rng(2).normal(size=param_sgd.data.shape)
        DenseSGD(0.1).update(param_sgd, grad)
        DenseMomentum(0.1, momentum=0.9).update(param_mom, grad)
        np.testing.assert_allclose(param_sgd.data, param_mom.data)

    def test_momentum_accumulates(self):
        param = make_param(seed=3)
        optimizer = DenseMomentum(0.1, momentum=0.5)
        grad = np.ones_like(param.data)
        before = param.data.copy()
        optimizer.update(param, grad)
        optimizer.update(param, grad)
        # Second step applies v = 0.5*1 + 1 = 1.5 -> total 2.5 * lr.
        np.testing.assert_allclose(param.data, before - 0.1 * 2.5)

    def test_state_tracked(self):
        param = make_param()
        optimizer = DenseMomentum(0.1)
        optimizer.update(param, np.ones_like(param.data))
        assert optimizer.state_bytes() == param.data.nbytes

    def test_rejects_bad_momentum(self):
        with pytest.raises(ValueError):
            DenseMomentum(0.1, momentum=1.0)

