"""The dense half in row parts: a cut batch releases the whole batch's bits.

``DLRM.forward`` and ``backward`` run in the parts :func:`repro.nn.dlrm.row_parts`
names — two aligned halves from 1024 rows up, one part below — and each
part writes its rows of arrays the layers keep from step to step.  Running
the parts on the lanes or inline cannot tell a cut from the whole batch
apart (both cut), so every value here is compared, as ``uint64``, with a
whole-batch step spelt out with the expressions the layers ran before they
were cut: logits, every layer's cached input and delta, the ghost norms,
every weighted gradient and DP-SGD(B)/(R)'s per-example gradients.  The
geometry is the benchmark's: F = 9, dim 32, MLPs 13-64-32 and 68-64-32-1.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.configs import small_dlrm
from repro.data import Batch
from repro.data.batch import LookupSort
from repro.kernels import lanes
from repro.nn import DLRM, PerExamplePairs, bce_with_logits_grad
from repro.nn.dlrm import MIN_PART_ROWS, row_parts
from repro.rng import _native

ROWS = 3000
BATCHES = [2048, 2047, 1031, 1024, 1023, 48]


def _bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


def _config(lookups: int):
    config = small_dlrm(rows=ROWS)
    return type(config)(**{**vars(config), "lookups_per_table": lookups})


def _batch(config, size: int, seed: int = 0) -> Batch:
    rng = np.random.default_rng([size, seed])
    dense = rng.standard_normal((size, config.dense_features))
    dense[0] = -0.0
    return Batch(
        dense,
        rng.integers(0, ROWS, size=(size, config.num_tables, config.lookups_per_table)),
        rng.integers(0, 2, size=size),
    )


class TestTheRule:
    @pytest.mark.parametrize("batch, cut", [
        (2048, 1024), (2047, 1016), (1031, 512), (1024, 512), (4096, 2048),
    ])
    def test_two_aligned_halves(self, batch, cut):
        assert row_parts(batch) == [slice(0, cut), slice(cut, batch)]
        assert cut % 8 == 0 and min(cut, batch - cut) >= MIN_PART_ROWS

    @pytest.mark.parametrize("batch", [0, 1, 48, 128, 513, 1023])
    def test_one_part_below_two_halves_of_512(self, batch):
        assert row_parts(batch) == [slice(0, batch)]


def _mlp_forward(mlp, x):
    """The MLP's forward as it was spelt whole: ``(out, inputs, pre)``."""
    inputs, pre = [], []
    last = len(mlp.linears) - 1
    for i, linear in enumerate(mlp.linears):
        inputs.append(x)
        out = x @ linear.weight.data.T
        out += linear.bias.data
        if i != last:
            pre.append(out)
            out = np.maximum(out, 0.0)
        x = out
    return x, inputs, pre


def _mlp_backward(mlp, delta, pre, input_grad=True):
    """``(input gradient or None, each layer's delta)``."""
    deltas = [None] * len(mlp.linears)
    for i in range(len(mlp.linears) - 1, 0, -1):
        deltas[i] = delta
        delta = (delta @ mlp.linears[i].weight.data) * (pre[i - 1] > 0.0)
    deltas[0] = delta
    return (delta @ mlp.linears[0].weight.data if input_grad else None), deltas


def _whole_step(model, batch, weights) -> dict:
    """One step of ``model`` over the whole batch, read-only on the model."""
    bags = model.embeddings
    dense_vec, bottom_x, bottom_pre = _mlp_forward(model.bottom_mlp, batch.dense)
    stacked = np.empty((batch.size, 1 + len(bags), dense_vec.shape[1]))
    stacked[:, 0, :] = dense_vec
    for t, bag in enumerate(bags):
        stacked[:, 1 + t, :] = bag.table.data[batch.sparse[:, t, :]].sum(axis=1)
    dim = dense_vec.shape[1]
    pairs = len(bags) * (len(bags) + 1) // 2
    dots, _ = _native.interaction_order(stacked, np.zeros((batch.size, pairs)))
    interacted = np.concatenate([stacked[:, 0, :], dots], axis=1)
    out, top_x, top_pre = _mlp_forward(model.top_mlp, interacted)
    logits = out[:, 0]

    delta = bce_with_logits_grad(logits, batch.labels)[:, None]
    d_interacted, top_deltas = _mlp_backward(model.top_mlp, delta, top_pre)
    _, d_stack = _native.interaction_order(stacked, d_interacted[:, dim:])
    d_dense = d_stack[:, 0, :] + d_interacted[:, :dim]
    _, bottom_deltas = _mlp_backward(model.bottom_mlp, d_dense, bottom_pre, False)

    views = {"logits": logits}
    linears = model.bottom_mlp.linears + model.top_mlp.linears
    xs, deltas = bottom_x + top_x, bottom_deltas + top_deltas
    norms = []
    for linear, x, d in zip(linears, xs, deltas, strict=True):
        views[f"{linear.weight.name}.x"] = x
        views[f"{linear.weight.name}.delta"] = d
        x_sq, d_sq = np.einsum("bi,bi->b", x, x), np.einsum("bo,bo->b", d, d)
        norms.append(d_sq * x_sq + d_sq)
        weighted = d * weights[:, None]
        views[linear.weight.name] = weighted.T @ x
        views[linear.bias.name] = weighted.sum(axis=0)
        views[f"{linear.weight.name}.per_example"] = np.einsum("bo,bi->boi", d, x)
    bottom = len(model.bottom_mlp.linears)
    total = norms[0]
    for norm in norms[1:bottom]:
        total = total + norm
    top = norms[bottom]
    for norm in norms[bottom + 1:]:
        top = top + norm
    total = total + top
    for t, bag in enumerate(bags):
        views[f"{bag.table.name}.delta"] = d_stack[:, 1 + t, :]
        pairs = PerExamplePairs.from_lookups(
            LookupSort.of(batch.sparse[:, t, :]).pairs(), d_stack[:, 1 + t, :]
        )
        total = total + pairs.norm_sq_per_example()
        views[bag.table.name] = pairs.weighted_row_grad(weights).values
    views["norms"] = total
    return views


def _model_step(model, batch, weights) -> dict:
    logits = model.forward(batch)
    model.backward(model.loss_grad_per_example(batch))
    views = {"logits": logits}
    for linear in model.bottom_mlp.linears + model.top_mlp.linears:
        views[f"{linear.weight.name}.x"] = linear._x
        views[f"{linear.weight.name}.delta"] = linear._delta
    for name, grad in model.per_example_dense_grads().items():
        if name.endswith(".weight"):
            views[f"{name}.per_example"] = grad
    for bag in model.embeddings:
        views[f"{bag.table.name}.delta"] = bag._delta
    views["norms"] = model.ghost_norm_sq()
    for name, grad in model.weighted_grads(weights).items():
        views[name] = getattr(grad, "values", grad)
    return views


@pytest.mark.parametrize("placement", ["lanes", "inline"])
@pytest.mark.parametrize("path", ["compiled", "numpy"])
@pytest.mark.parametrize("size", BATCHES)
def test_a_cut_step_is_the_whole_step(size, path, placement):
    config = _config(lookups=2)
    batch = _batch(config, size)
    weights = np.random.default_rng(size + 1).random(size)
    model = DLRM(config, seed=0)
    with contextlib.ExitStack() as stack:
        if path == "numpy":
            stack.enter_context(_native.using(None))
        if placement == "inline":
            stack.enter_context(lanes.inline())
        # A step over another batch first: the kept arrays must be
        # rewritten, not read stale.
        _model_step(model, _batch(config, size, seed=1), weights)
        got = _model_step(model, batch, weights)
        expected = _whole_step(model, batch, weights)
    assert got.keys() == expected.keys()
    for name in expected:
        assert np.array_equal(_bits(got[name]), _bits(expected[name])), name


def test_per_example_views_of_a_cut_batch():
    """DP-SGD(B)'s per-example gradients and (R)'s per-layer ones at
    1024 rows — two halves of 512 — are the whole batch's."""
    config = _config(lookups=1)
    batch = _batch(config, 1024)
    assert len(row_parts(batch.size)) == 2
    model = DLRM(config, seed=0)
    weights = np.ones(batch.size)
    expected = _whole_step(model, batch, weights)
    _model_step(model, batch, weights)
    for linear in model.bottom_mlp.linears + model.top_mlp.linears:
        per_layer = linear.per_example_grads()
        name = linear.weight.name
        assert np.array_equal(
            _bits(per_layer[name]), _bits(expected[f"{name}.per_example"])
        ), name
        assert np.array_equal(
            _bits(per_layer[linear.bias.name]), _bits(expected[f"{name}.delta"])
        ), name
    for t, (name, pairs) in enumerate(model.per_example_embedding_pairs().items()):
        reference = PerExamplePairs.from_lookups(
            LookupSort.of(batch.sparse[:, t, :]).pairs(), expected[f"{name}.delta"]
        )
        assert np.array_equal(
            _bits(pairs.norm_sq_per_example()), _bits(reference.norm_sq_per_example())
        )


def test_logits_are_not_the_next_steps():
    """The logits a forward hands out are the caller's: the next
    forward (into the kept arrays) does not rewrite them."""
    config = _config(lookups=1)
    model = DLRM(config, seed=0)
    first = _batch(config, 1024)
    logits = model.forward(first)
    kept = logits.copy()
    model.forward(_batch(config, 1024, seed=1))
    model.forward(_batch(config, 48))
    assert np.array_equal(_bits(logits), _bits(kept))
