"""Tests for parameter and gradient containers."""

import numpy as np
import pytest

from repro.nn import Parameter, PerExamplePairs, SparseRowGrad
from repro.rng import _native


class TestParameter:
    def test_attributes(self):
        param = Parameter("name", np.zeros((3, 4)), 7, is_embedding=True)
        assert param.shape == (3, 4)
        assert param.size == 12
        assert param.param_id == 7
        assert param.is_embedding


class TestSparseRowGrad:
    def test_to_dense(self):
        grad = SparseRowGrad(np.array([1, 3]), np.ones((2, 2)))
        dense = grad.to_dense(5)
        assert dense.shape == (5, 2)
        assert np.all(dense[[0, 2, 4]] == 0.0)
        assert np.all(dense[[1, 3]] == 1.0)

    def test_scaled(self):
        grad = SparseRowGrad(np.array([0]), np.full((1, 3), 2.0))
        np.testing.assert_allclose(grad.scaled(0.5).values, 1.0)

    def test_dim(self):
        assert SparseRowGrad(np.array([0]), np.zeros((1, 9))).dim == 9

    def test_rejects_misaligned(self):
        with pytest.raises(ValueError):
            SparseRowGrad(np.array([0, 1]), np.zeros((1, 3)))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            SparseRowGrad(np.array([[0]]), np.zeros((1, 3)))


class TestPerExamplePairs:
    def _pairs(self):
        # example 0 hits row 2 twice; example 1 hits rows 0 and 2 once each.
        deltas = np.array([[1.0, 0.0], [0.0, 2.0]])
        return PerExamplePairs(
            example_ids=np.array([0, 1, 1]),
            rows=np.array([2, 0, 2]),
            mults=np.array([2.0, 1.0, 1.0]),
            deltas=deltas,
            batch_size=2,
        )

    def test_norm_sq(self):
        pairs = self._pairs()
        # Example 0: (2*||d0||)^2 = 4*1 = 4. Example 1: (1+1)*||d1||^2 = 2*4 = 8.
        np.testing.assert_allclose(pairs.norm_sq_per_example(), [4.0, 8.0])

    def test_weighted_row_grad(self):
        pairs = self._pairs()
        grad = pairs.weighted_row_grad(np.array([1.0, 0.5]))
        dense = grad.to_dense(3)
        # Row 2: 2*d0*1.0 + 1*d1*0.5 ; row 0: 1*d1*0.5.
        np.testing.assert_allclose(dense[2], [2.0, 1.0])
        np.testing.assert_allclose(dense[0], [0.0, 1.0])
        np.testing.assert_allclose(dense[1], [0.0, 0.0])

    def test_dense_per_example(self):
        pairs = self._pairs()
        dense = pairs.dense_per_example(3)
        assert dense.shape == (2, 3, 2)
        np.testing.assert_allclose(dense[0, 2], [2.0, 0.0])
        np.testing.assert_allclose(dense[1, 0], [0.0, 2.0])
        np.testing.assert_allclose(dense[1, 2], [0.0, 2.0])

    def test_zero_weights_give_zero_grad(self):
        pairs = self._pairs()
        grad = pairs.weighted_row_grad(np.zeros(2))
        assert np.all(grad.values == 0.0)


def _scatter_case(case):
    """Pooled pairs (``mults`` > 1, rows shared between examples) the
    compiled scatter-add accepts, and one fault per ``case`` it must not."""
    rng = np.random.default_rng(17)
    fields = dict(
        example_ids=np.array([0, 0, 1, 2, 2, 3], dtype=np.int64),
        rows=np.array([5, 9, 5, 2, 9, 5], dtype=np.int64),
        mults=np.array([2.0, 1.0, 3.0, 1.0, 1.0, 2.0]),
        deltas=rng.standard_normal((4, 6)),
        batch_size=4,
    )
    weights = rng.random(4)
    if case == "example_past_the_batch":
        fields["example_ids"][3] = 4
    elif case == "negative_example":
        fields["example_ids"][0] = -1  # numpy wraps it: example 3
    elif case == "float32_deltas":
        fields["deltas"] = fields["deltas"].astype(np.float32)
    elif case == "fortran_deltas":
        fields["deltas"] = np.asfortranarray(fields["deltas"])
    elif case == "integer_mults":
        fields["mults"] = fields["mults"].astype(np.int64)
    elif case == "int32_examples":
        fields["example_ids"] = fields["example_ids"].astype(np.int32)
    elif case == "short_weights":
        weights = weights[:3]
    elif case == "ragged_pairs":
        fields["mults"] = fields["mults"][:5]
    else:
        assert case == "accepted"
    return PerExamplePairs(**fields), weights


class TestCompiledScatterAdd:
    """Both sides of every guard of ``_sparse.c``'s scatter-add."""

    REFUSALS = [
        "example_past_the_batch", "negative_example", "float32_deltas",
        "fortran_deltas", "integer_mults", "int32_examples", "short_weights",
        "ragged_pairs",
    ]

    def _compiled(self, lib, pairs, weights):
        unique, inverse = np.unique(pairs.rows, return_inverse=True)
        return pairs._compiled_scatter_add(lib, unique.size, inverse, weights)

    def test_the_base_case_is_accepted(self, native_lib):
        pairs, weights = _scatter_case("accepted")
        values = self._compiled(native_lib, pairs, weights)
        with _native.using(None):
            reference = pairs.weighted_row_grad(weights)
        assert values.tobytes() == reference.values.tobytes()
        assert np.array_equal(reference.rows, [2, 5, 9])

    @pytest.mark.parametrize("case", REFUSALS)
    def test_refused(self, native_lib, case):
        assert self._compiled(native_lib, *_scatter_case(case)) is None

    @pytest.mark.parametrize("bad", ["example", "negative_example", "inverse"])
    def test_refused_before_the_first_add(self, native_lib, bad):
        """The ids are vetted in C over all the pairs, the bad one last
        here, before anything is accumulated."""
        pairs, weights = _scatter_case("accepted")
        unique, inverse = np.unique(pairs.rows, return_inverse=True)
        examples = pairs.example_ids.copy()
        if bad == "inverse":
            inverse[-1] = unique.size
        else:
            examples[-1] = 4 if bad == "example" else -1
        values = np.full((unique.size, 6), 7.0)
        assert native_lib.weighted_scatter_add(
            values.ctypes.data, unique.size, 6, inverse.ctypes.data,
            examples.ctypes.data, pairs.mults.ctypes.data, examples.size,
            pairs.deltas.ctypes.data, pairs.deltas.strides[0],
            weights.ctypes.data, 4,
        ) < 0
        assert np.all(values == 7.0)

    @pytest.mark.parametrize("case", REFUSALS)
    def test_weighted_row_grad_is_what_it_was(self, native_lib, case):
        def run():
            pairs, weights = _scatter_case(case)
            try:
                grad = pairs.weighted_row_grad(weights)
            except Exception as exc:  # noqa: BLE001 - the type is the assertion
                return type(exc)
            return grad.rows.tobytes(), grad.values.tobytes()

        compiled = run()
        with _native.using(None):
            assert compiled == run()
