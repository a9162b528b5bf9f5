"""Tests for the Linear layer and MLP: gradients and DP gradient views."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Linear, MLP, Parameter, relu
from repro.nn.init import ParameterFactory
from repro.rng import NoiseStream

from repro.testing import numeric_gradient


def make_linear(out_features=3, in_features=4, seed=0):
    rng = np.random.default_rng(seed)
    weight = Parameter("w", rng.normal(size=(out_features, in_features)), 0)
    bias = Parameter("b", rng.normal(size=out_features), 1)
    return Linear(weight, bias)


def make_mlp(dims=(4, 6, 3), seed=0):
    factory = ParameterFactory(NoiseStream(seed))
    linears = []
    for i in range(len(dims) - 1):
        weight = factory.linear_weight(f"l{i}.w", dims[i + 1], dims[i])
        bias = factory.linear_bias(f"l{i}.b", dims[i + 1])
        linears.append(Linear(weight, bias))
    return MLP(linears)


class TestLinearForward:
    def test_matches_manual(self):
        layer = make_linear()
        x = np.random.default_rng(1).normal(size=(5, 4))
        np.testing.assert_allclose(
            layer.forward(x), x @ layer.weight.data.T + layer.bias.data
        )

    def test_shape(self):
        layer = make_linear(out_features=7, in_features=2)
        assert layer.forward(np.zeros((3, 2))).shape == (3, 7)

    def test_rejects_1d_weight(self):
        with pytest.raises(ValueError):
            Linear(Parameter("w", np.zeros(3), 0), Parameter("b", np.zeros(3), 1))


class TestLinearBackward:
    def test_input_grad_numeric(self):
        layer = make_linear()
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 4))
        upstream = rng.normal(size=(3, 3))

        def loss_of_input(x_val):
            return float((layer.forward(x_val) * upstream).sum())

        layer.forward(x)
        analytic = layer.backward(upstream)
        numeric = numeric_gradient(loss_of_input, x.copy())
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_weight_grad_numeric(self):
        layer = make_linear()
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 4))
        upstream = rng.normal(size=(3, 3))

        def loss_of_weight(w_val):
            layer.weight.data = w_val
            return float((layer.forward(x) * upstream).sum())

        original = layer.weight.data.copy()
        numeric = numeric_gradient(loss_of_weight, original.copy())
        layer.weight.data = original
        layer.forward(x)
        layer.backward(upstream)
        analytic = layer.batch_grads()["w"]
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_bias_grad_numeric(self):
        layer = make_linear()
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 4))
        upstream = rng.normal(size=(3, 3))

        def loss_of_bias(b_val):
            layer.bias.data = b_val
            return float((layer.forward(x) * upstream).sum())

        original = layer.bias.data.copy()
        numeric = numeric_gradient(loss_of_bias, original.copy())
        layer.bias.data = original
        layer.forward(x)
        layer.backward(upstream)
        np.testing.assert_allclose(
            layer.batch_grads()["b"], numeric, atol=1e-6
        )

    def test_views_require_cache(self):
        layer = make_linear()
        with pytest.raises(RuntimeError):
            layer.batch_grads()


class TestLinearDPViews:
    def _run(self, batch=6, seed=5):
        layer = make_linear(seed=seed)
        rng = np.random.default_rng(seed + 1)
        x = rng.normal(size=(batch, 4))
        upstream = rng.normal(size=(batch, 3))
        layer.forward(x)
        layer.backward(upstream)
        return layer

    def test_per_example_sums_to_batch(self):
        layer = self._run()
        per_example = layer.per_example_grads()
        batch = layer.batch_grads()
        np.testing.assert_allclose(per_example["w"].sum(axis=0), batch["w"])
        np.testing.assert_allclose(per_example["b"].sum(axis=0), batch["b"])

    def test_ghost_norm_matches_materialised(self):
        layer = self._run()
        per_example = layer.per_example_grads()
        expected = (
            (per_example["w"].reshape(6, -1) ** 2).sum(axis=1)
            + (per_example["b"] ** 2).sum(axis=1)
        )
        np.testing.assert_allclose(layer.ghost_norm_sq(), expected)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=1000))
    def test_ghost_norm_property(self, batch, out_f, in_f, seed):
        rng = np.random.default_rng(seed)
        layer = Linear(
            Parameter("w", rng.normal(size=(out_f, in_f)), 0),
            Parameter("b", rng.normal(size=out_f), 1),
        )
        x = rng.normal(size=(batch, in_f))
        upstream = rng.normal(size=(batch, out_f))
        layer.forward(x)
        layer.backward(upstream)
        per_example = layer.per_example_grads()
        expected = (
            (per_example["w"].reshape(batch, -1) ** 2).sum(axis=1)
            + (per_example["b"] ** 2).sum(axis=1)
        )
        np.testing.assert_allclose(layer.ghost_norm_sq(), expected, rtol=1e-9)

    def test_weighted_grads_match_manual(self):
        layer = self._run()
        weights = np.linspace(0.1, 1.0, 6)
        weighted = layer.weighted_grads(weights)
        per_example = layer.per_example_grads()
        np.testing.assert_allclose(
            weighted["w"],
            np.einsum("boi,b->oi", per_example["w"], weights),
        )
        np.testing.assert_allclose(
            weighted["b"],
            np.einsum("bo,b->o", per_example["b"], weights),
        )

    def test_uniform_weights_recover_batch_grad(self):
        layer = self._run()
        weighted = layer.weighted_grads(np.ones(6))
        batch = layer.batch_grads()
        np.testing.assert_allclose(weighted["w"], batch["w"])


class TestMLP:
    def test_forward_matches_manual(self):
        mlp = make_mlp((4, 6, 3))
        x = np.random.default_rng(7).normal(size=(5, 4))
        hidden = relu(mlp.linears[0].forward(x))
        expected = mlp.linears[1].forward(hidden)
        np.testing.assert_allclose(mlp.forward(x), expected)

    def test_backward_numeric_gradcheck(self):
        mlp = make_mlp((3, 5, 2), seed=9)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(4, 3))
        upstream = rng.normal(size=(4, 2))

        def loss_of_input(x_val):
            return float((mlp.forward(x_val) * upstream).sum())

        mlp.forward(x)
        analytic = mlp.backward(upstream)
        numeric = numeric_gradient(loss_of_input, x.copy())
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_weight_grads_numeric_all_layers(self):
        mlp = make_mlp((3, 4, 2), seed=11)
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 3))
        upstream = rng.normal(size=(4, 2))
        mlp.forward(x)
        mlp.backward(upstream)
        grads = mlp.batch_grads()
        for linear in mlp.linears:
            name = linear.weight.name
            original = linear.weight.data.copy()

            def loss_of_weight(w_val, linear=linear):
                linear.weight.data = w_val
                return float((mlp.forward(x) * upstream).sum())

            numeric = numeric_gradient(loss_of_weight, original.copy())
            linear.weight.data = original
            np.testing.assert_allclose(grads[name], numeric, atol=1e-6)

    def test_ghost_norms_sum_over_layers(self):
        mlp = make_mlp((3, 4, 2), seed=13)
        rng = np.random.default_rng(14)
        x = rng.normal(size=(5, 3))
        upstream = rng.normal(size=(5, 2))
        mlp.forward(x)
        mlp.backward(upstream)
        per_example = mlp.per_example_grads()
        expected = sum(
            (grad.reshape(5, -1) ** 2).sum(axis=1)
            for grad in per_example.values()
        )
        np.testing.assert_allclose(mlp.ghost_norm_sq(), expected, rtol=1e-9)

    def test_parameters_enumeration(self):
        mlp = make_mlp((4, 6, 3))
        assert len(mlp.parameters()) == 4  # 2 weights + 2 biases


def _bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


class TestBitwiseTrims:
    """The in-place spellings release the bits of the expressions they
    replaced, compared as ``uint64``."""

    def test_forward_adds_the_bias_in_place(self):
        layer = make_linear(out_features=9, in_features=13, seed=21)
        x = np.random.default_rng(22).normal(size=(17, 13))
        x[0] = -0.0
        assert np.array_equal(
            _bits(layer.forward(x)), _bits(x @ layer.weight.data.T + layer.bias.data)
        )

    def test_weighted_grads_scale_into_the_layer_buffer(self):
        layer = make_linear(out_features=5, in_features=7, seed=23)
        rng = np.random.default_rng(24)
        x, delta = rng.normal(size=(11, 7)), rng.normal(size=(11, 5))
        layer.forward(x)
        layer.backward(delta)
        grads = {}
        for step, weights in enumerate((rng.random(11), rng.random(11))):
            grads[step] = layer.weighted_grads(weights)
            weighted_delta = delta * weights[:, None]
            expected = {"w": weighted_delta.T @ x, "b": weighted_delta.sum(axis=0)}
            for name, grad in grads[step].items():
                assert np.array_equal(_bits(grad), _bits(expected[name]))
            if step == 0:
                before = {name: grad.copy() for name, grad in grads[0].items()}
        # The scaled delta's buffer is reused; the gradients handed out are not.
        for name, grad in grads[0].items():
            assert np.array_equal(_bits(grad), _bits(before[name]))

    def test_mlp_backward_without_the_input_gradient(self):
        """``input_grad=False`` leaves every layer's cached delta — so
        every gradient view — as the full backward does, and computes
        no input gradient."""
        rng = np.random.default_rng(25)
        x, upstream = rng.normal(size=(6, 4)), rng.normal(size=(6, 3))
        full, trimmed = make_mlp((4, 8, 5, 3), seed=26), make_mlp((4, 8, 5, 3), seed=26)
        for mlp in (full, trimmed):
            mlp.forward(x)
        assert full.backward(upstream) is not None
        assert trimmed.backward(upstream, input_grad=False) is None
        weights = rng.random(6)
        for name, grad in full.weighted_grads(weights).items():
            assert np.array_equal(_bits(trimmed.weighted_grads(weights)[name]), _bits(grad))
        assert np.array_equal(_bits(trimmed.ghost_norm_sq()), _bits(full.ghost_norm_sq()))
