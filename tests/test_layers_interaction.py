"""Tests for the DLRM dot-product feature interaction."""

import numpy as np
import pytest

from repro.nn import FeatureInteraction

from repro.testing import numeric_gradient


def make_inputs(batch=3, num_tables=2, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    dense_vec = rng.normal(size=(batch, dim))
    embeddings = [rng.normal(size=(batch, dim)) for _ in range(num_tables)]
    return dense_vec, embeddings


def einsum_interaction(dense_vec, embeddings, delta):
    """The layer as it was before its fixed summation order: both
    passes through ``np.einsum`` over the full ``(batch, F, F)`` dots,
    kept as an oracle for the values (not the bits)."""
    stacked = np.stack([dense_vec] + list(embeddings), axis=1)
    batch, features, dim = stacked.shape
    rows, cols = np.triu_indices(features, k=1)
    dots = np.einsum("bfd,bgd->bfg", stacked, stacked)
    out = np.concatenate([stacked[:, 0, :], dots[:, rows, cols]], axis=1)
    d_dots = np.zeros((batch, features, features))
    d_dots[:, rows, cols] = delta[:, dim:]
    d_stacked = np.einsum("bfg,bgd->bfd", d_dots + np.swapaxes(d_dots, 1, 2), stacked)
    d_dense = d_stacked[:, 0, :] + delta[:, :dim]
    return out, d_dense, [d_stacked[:, 1 + t, :] for t in range(features - 1)]


#: (num_tables, dim): the small case and the benchmark geometry's F = 9, dim 32.
SHAPES = [(2, 4), (8, 32)]


class TestForward:
    def test_output_dim(self):
        layer = FeatureInteraction(num_features=3)
        assert layer.num_pairs == 3
        assert layer.output_dim(4) == 7

    @pytest.mark.parametrize("num_tables,dim", SHAPES)
    def test_passes_dense_vector_through_bitwise(self, num_tables, dim):
        layer = FeatureInteraction(num_tables + 1)
        dense_vec, embeddings = make_inputs(num_tables=num_tables, dim=dim)
        dense_vec[0, :2] = [-0.0, np.nan]
        out = layer.forward(dense_vec, embeddings)
        assert np.array_equal(out[:, :dim].view(np.uint64), dense_vec.view(np.uint64))

    def test_pairwise_dots_match_manual(self):
        layer = FeatureInteraction(3)
        dense_vec, embeddings = make_inputs()
        out = layer.forward(dense_vec, embeddings)
        vectors = [dense_vec] + embeddings
        for b in range(3):
            expected = [
                float(vectors[i][b] @ vectors[j][b])
                for i in range(3) for j in range(i + 1, 3)
            ]
            np.testing.assert_allclose(out[b, 4:], expected)

    def test_rejects_wrong_feature_count(self):
        layer = FeatureInteraction(4)
        dense_vec, embeddings = make_inputs(num_tables=2)
        with pytest.raises(ValueError):
            layer.forward(dense_vec, embeddings)

    def test_backward_requires_forward(self):
        layer = FeatureInteraction(2)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 5)))

    def test_backward_rejects_a_delta_of_the_wrong_shape(self):
        layer = FeatureInteraction(3)
        dense_vec, embeddings = make_inputs()
        layer.forward(dense_vec, embeddings)
        with pytest.raises(ValueError):
            layer.backward(np.zeros((3, layer.output_dim(4) - 1)))


@pytest.mark.parametrize("num_tables,dim", [(1, 1), (2, 5), (8, 32), (26, 33)])
def test_agrees_with_the_einsum_layer(num_tables, dim):
    """Both passes against the einsum spelling, within 1e-12 relative:
    the order moved, the values did not."""
    layer = FeatureInteraction(num_tables + 1)
    dense_vec, embeddings = make_inputs(batch=16, num_tables=num_tables, dim=dim)
    delta = np.random.default_rng(5).normal(size=(16, layer.output_dim(dim)))
    out = layer.forward(dense_vec, embeddings)
    d_dense, d_embeddings = layer.backward(delta)
    expected_out, expected_dense, expected_embeddings = einsum_interaction(
        dense_vec, embeddings, delta
    )
    np.testing.assert_allclose(out, expected_out, rtol=1e-12, atol=0)
    np.testing.assert_allclose(d_dense, expected_dense, rtol=1e-12, atol=0)
    for got, expected in zip(d_embeddings, expected_embeddings, strict=True):
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


class TestBackward:
    @pytest.mark.parametrize("num_tables,dim", SHAPES)
    def test_dense_grad_numeric(self, num_tables, dim):
        layer = FeatureInteraction(num_tables + 1)
        dense_vec, embeddings = make_inputs(num_tables=num_tables, dim=dim, seed=1)
        upstream = np.random.default_rng(2).normal(size=(3, layer.output_dim(dim)))

        def loss_of_dense(dense_val):
            return float((layer.forward(dense_val, embeddings) * upstream).sum())

        layer.forward(dense_vec, embeddings)
        analytic_dense, _ = layer.backward(upstream)
        numeric = numeric_gradient(loss_of_dense, dense_vec.copy())
        np.testing.assert_allclose(analytic_dense, numeric, atol=1e-6)

    @pytest.mark.parametrize("num_tables,dim", SHAPES)
    def test_embedding_grads_numeric(self, num_tables, dim):
        layer = FeatureInteraction(num_tables + 1)
        dense_vec, embeddings = make_inputs(num_tables=num_tables, dim=dim, seed=3)
        upstream = np.random.default_rng(4).normal(size=(3, layer.output_dim(dim)))
        layer.forward(dense_vec, embeddings)
        _, analytic_embs = layer.backward(upstream)
        for t in range(num_tables):
            def loss_of_emb(emb_val, t=t):
                trial = list(embeddings)
                trial[t] = emb_val
                return float((layer.forward(dense_vec, trial) * upstream).sum())

            numeric = numeric_gradient(loss_of_emb, embeddings[t].copy())
            np.testing.assert_allclose(analytic_embs[t], numeric, atol=1e-6)

    def test_zero_upstream_gives_zero_grads(self):
        layer = FeatureInteraction(2)
        dense_vec, embeddings = make_inputs(num_tables=1)
        layer.forward(dense_vec, embeddings)
        d_dense, d_embs = layer.backward(np.zeros((3, layer.output_dim(4))))
        assert np.all(d_dense == 0.0)
        assert np.all(d_embs[0] == 0.0)

    def test_one_feature_passes_the_dense_delta_through_bitwise(self):
        """No pairs: the dense gradient is ``delta[:, :dim]`` itself,
        ``-0.0`` included (the empty sum is the identity ``-0.0``)."""
        layer = FeatureInteraction(1)
        dense_vec, _ = make_inputs(num_tables=0)
        layer.forward(dense_vec, [])
        delta = np.array([[-0.0, 1.5, -2.0, 0.0]] * 3)
        d_dense, d_embs = layer.backward(delta)
        assert d_embs == []
        assert np.array_equal(d_dense.view(np.uint64), delta.view(np.uint64))
