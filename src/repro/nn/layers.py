"""Layers with explicit, DP-aware backward passes.

Every trainable layer exposes four gradient views over one cached
forward/backward pair, matching the four training algorithms in the paper:

* ``batch_grads``        - summed over the batch (non-private SGD; also the
                           second pass of DP-SGD(R)/(F) when reweighted).
* ``per_example_grads``  - one gradient per example (DP-SGD(B) [1]).
* ``ghost_norm_sq``      - per-example gradient norms **without**
                           materialising per-example gradients (DP-SGD(F)
                           [13]; the linear/embedding trick from Section 2.5).
* ``weighted_grads``     - ``sum_b w_b * g_b`` (the reweighted pass of
                           DP-SGD(R) [40] and DP-SGD(F)).

Layers are stateful across one forward+backward: they cache activations and
deltas, which the trainer then interrogates.  This mirrors how Opacus hooks
module forward/backward to compute per-sample gradients.
"""

from __future__ import annotations

import numpy as np

from ..data.batch import LookupPairs, LookupSort
from ..rng import _native
from .functional import relu, relu_grad
from .parameter import Parameter, PerExamplePairs


class Linear:
    """Fully connected layer ``y = x @ W.T + b``."""

    def __init__(self, weight: Parameter, bias: Parameter):
        if weight.data.ndim != 2:
            raise ValueError("weight must be 2-D (out, in)")
        self.weight = weight
        self.bias = bias
        self._x: np.ndarray | None = None
        self._delta: np.ndarray | None = None
        # weighted_grads' scaled delta, reused from step to step.
        self._scaled: np.ndarray | None = None

    @property
    def out_features(self) -> int:
        return self.weight.data.shape[0]

    @property
    def in_features(self) -> int:
        return self.weight.data.shape[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        out = x @ self.weight.data.T
        out += self.bias.data  # in place: no second (batch, out) array
        return out

    def backward(self, delta: np.ndarray, input_grad: bool = True):
        """Cache the upstream delta and return the input gradient
        (``None`` when ``input_grad`` is false: nothing needs it)."""
        self._delta = delta
        return delta @ self.weight.data if input_grad else None

    # -- gradient views -------------------------------------------------
    def batch_grads(self) -> dict:
        x, delta = self._require_cache()
        return {
            self.weight.name: delta.T @ x,
            self.bias.name: delta.sum(axis=0),
        }

    def per_example_grads(self) -> dict:
        x, delta = self._require_cache()
        return {
            self.weight.name: np.einsum("bo,bi->boi", delta, x),
            self.bias.name: delta.copy(),
        }

    def ghost_norm_sq(self) -> np.ndarray:
        """||g_b||^2 over (W, b) per example, no materialisation.

        For a linear layer the per-example weight gradient is the outer
        product ``delta_b x_b^T``, whose Frobenius norm factorises as
        ``||delta_b|| * ||x_b||`` — the DP-SGD(F) estimation the paper
        credits to [13].
        """
        x, delta = self._require_cache()
        x_sq = np.einsum("bi,bi->b", x, x)
        d_sq = np.einsum("bo,bo->b", delta, delta)
        return d_sq * x_sq + d_sq  # bias contributes ||delta_b||^2

    def weighted_grads(self, weights: np.ndarray) -> dict:
        x, delta = self._require_cache()
        if self._scaled is None or self._scaled.shape != delta.shape:
            self._scaled = np.empty(delta.shape, dtype=np.result_type(delta, weights))
        weighted_delta = np.multiply(delta, weights[:, None], out=self._scaled)
        return {
            self.weight.name: weighted_delta.T @ x,
            self.bias.name: weighted_delta.sum(axis=0),
        }

    def _require_cache(self) -> tuple[np.ndarray, np.ndarray]:
        if self._x is None or self._delta is None:
            raise RuntimeError("forward/backward must run before gradient views")
        return self._x, self._delta


class MLP:
    """Stack of Linear layers with ReLU between (none after the last)."""

    def __init__(self, linears: list):
        self.linears = list(linears)
        self._pre_activations: list = []

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._pre_activations = []
        out = x
        last = len(self.linears) - 1
        for i, linear in enumerate(self.linears):
            out = linear.forward(out)
            if i != last:
                self._pre_activations.append(out)
                out = relu(out)
        return out

    def backward(self, delta: np.ndarray, input_grad: bool = True):
        """Backpropagate to the input; ``input_grad=False`` stops at the
        first layer's delta (the input is data: nothing needs its
        gradient) and returns ``None``."""
        last = len(self.linears) - 1
        for i in range(last, 0, -1):
            delta = self.linears[i].backward(delta)
            delta = relu_grad(self._pre_activations[i - 1], delta)
        return self.linears[0].backward(delta, input_grad=input_grad)

    def parameters(self) -> list:
        params = []
        for linear in self.linears:
            params.append(linear.weight)
            params.append(linear.bias)
        return params

    def batch_grads(self) -> dict:
        grads: dict = {}
        for linear in self.linears:
            grads.update(linear.batch_grads())
        return grads

    def per_example_grads(self) -> dict:
        grads: dict = {}
        for linear in self.linears:
            grads.update(linear.per_example_grads())
        return grads

    def ghost_norm_sq(self) -> np.ndarray:
        total = None
        for linear in self.linears:
            contribution = linear.ghost_norm_sq()
            total = contribution if total is None else total + contribution
        return total

    def weighted_grads(self, weights: np.ndarray) -> dict:
        grads: dict = {}
        for linear in self.linears:
            grads.update(linear.weighted_grads(weights))
        return grads


class EmbeddingBag:
    """Embedding gather + sum pooling (paper Section 2.1).

    ``forward`` takes integer lookups of shape ``(batch, lookups)`` and
    returns the pooled ``(batch, dim)`` output.  The access pattern is the
    paper's central object: only ``batch * lookups`` of the table's rows are
    touched per iteration, so gradients are sparse while DP noise is dense.
    """

    def __init__(self, table: Parameter):
        if table.data.ndim != 2:
            raise ValueError("embedding table must be 2-D (rows, dim)")
        self.table = table
        self._indices: np.ndarray | None = None
        self._delta: np.ndarray | None = None
        self._sort: LookupSort | None = None
        self._pairs: LookupPairs | None = None

    @property
    def num_rows(self) -> int:
        return self.table.data.shape[0]

    @property
    def dim(self) -> int:
        return self.table.data.shape[1]

    def forward(self, indices: np.ndarray, sort: LookupSort | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
        """The pooled lookups, into ``out`` (a ``(batch, dim)`` view,
        e.g. of the interaction layer's stack) when given.  ``sort`` is
        the batch's :class:`LookupSort` of ``indices``, when it has
        one; the gradient views sort ``indices`` themselves otherwise."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 2:
            raise ValueError("indices must be (batch, lookups)")
        pooled = self._pool(indices, out)
        self._indices = indices
        self._sort, self._pairs = sort, None
        return pooled

    def _pool(self, indices: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """``table[indices].sum(axis=1)``: ``_sparse.c``'s ``gather_pool``
        where the operands allow (no ``(batch, lookups, dim)``
        temporary), the numpy expression otherwise — the same bits."""
        table = self.table.data
        lib = _native.LIB
        if lib is not None:
            target = out
            if target is None:
                target = np.empty((indices.shape[0], self.dim), dtype=table.dtype)
            if self._compiled_pool(lib, indices, target):
                return target
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_rows):
            raise IndexError("embedding index out of range")
        pooled = table[indices].sum(axis=1)
        if out is None:
            return pooled
        out[...] = pooled
        return out

    def _compiled_pool(self, lib, indices: np.ndarray, out: np.ndarray) -> bool:
        """Pool through the library; ``False`` (nothing written): the
        operands are not what it was built for — layouts, checked here;
        every index inside the table, checked in C before the first
        store.  At ``dim`` 1 numpy's reduce runs along the contiguous
        axis, pairwise, so that stays numpy's too."""
        table = self.table.data
        if not (
            _native.f64_matrix(table)
            and table.shape[1] > 1
            and indices.dtype == np.int64
            and indices.flags.aligned
            and isinstance(out, np.ndarray)
            and out.dtype == np.float64
            and out.flags.writeable
            and out.flags.aligned
            and out.shape == (indices.shape[0], table.shape[1])
            and out.strides[1] == out.itemsize
        ):
            return False
        done = lib.gather_pool(
            out.ctypes.data, out.strides[0], table.ctypes.data, table.shape[0],
            table.shape[1], indices.ctypes.data, indices.strides[0],
            indices.strides[1], indices.shape[0], indices.shape[1],
        )
        return done >= 0

    def backward(self, delta: np.ndarray) -> None:
        """Embedding inputs are indices; there is no input gradient."""
        self._delta = delta
        return None

    def accessed_rows(self) -> np.ndarray:
        """Unique rows gathered by the cached batch (sorted)."""
        return self._lookup_pairs().rows

    def _lookup_pairs(self) -> LookupPairs:
        """The cached batch's pairs, derived once per forward; the
        sorted keys are dropped then."""
        if self._pairs is None:
            sort = self._sort
            if sort is None:
                indices, _ = self._require_cache()
                sort = LookupSort.of(indices)
            self._sort, self._pairs = None, sort.pairs()
        return self._pairs

    # -- gradient views -------------------------------------------------
    def per_example_pairs(self) -> PerExamplePairs:
        _, delta = self._require_cache()
        return PerExamplePairs.from_lookups(self._lookup_pairs(), delta)

    def batch_grads(self) -> dict:
        _, delta = self._require_cache()
        ones = np.ones(delta.shape[0], dtype=np.float64)
        return {self.table.name: self.per_example_pairs().weighted_row_grad(ones)}

    def ghost_norm_sq(self) -> np.ndarray:
        return self.per_example_pairs().norm_sq_per_example()

    def weighted_grads(self, weights: np.ndarray) -> dict:
        return {
            self.table.name: self.per_example_pairs().weighted_row_grad(weights)
        }

    def _require_cache(self) -> tuple[np.ndarray, np.ndarray]:
        if self._indices is None or self._delta is None:
            raise RuntimeError("forward/backward must run before gradient views")
        return self._indices, self._delta


class FeatureInteraction:
    """DLRM dot-product feature interaction.

    Stacks the bottom-MLP output with every table's pooled embedding into
    ``(batch, F, dim)`` and emits the strictly-upper-triangular pairwise dot
    products, concatenated after the dense vector (Naumov et al. [51]).

    Both passes have one fixed summation order, which ``_sparse.c``'s
    ``interaction_dots`` / ``interaction_grad`` and the numpy twins here
    (:meth:`_dots_numpy`, :meth:`_grad_numpy`) perform alike, so either
    releases the same bits:

    * a dot sums its products in four lanes ``d mod 4``, each lane in
      ascending ``d`` from its first product (from ``-0.0``, the exact
      additive identity), then ``(l0 + l1) + (l2 + l3)``;
    * ``d_stack[b, f] = sum over g != f, ascending, of dp(f, g) *
      stack[b, g]``, from the first term, ``dp`` the symmetric pair
      gradient; ``d_dense`` then adds ``delta[:, :dim]``.
    """

    def __init__(self, num_features: int):
        self.num_features = int(num_features)
        upper = np.triu_indices(self.num_features, k=1)
        self._rows_idx = upper[0]
        self._cols_idx = upper[1]
        # pair[f, g] = pair[g, f]: where the dot of f and g sits.
        self._pair = np.zeros((self.num_features,) * 2, dtype=np.int64)
        self._pair[upper] = self._pair[upper[::-1]] = np.arange(upper[0].size)
        self._stacked: np.ndarray | None = None

    @property
    def num_pairs(self) -> int:
        return self._rows_idx.shape[0]

    def output_dim(self, dim: int) -> int:
        return dim + self.num_pairs

    def forward(self, dense_vec: np.ndarray, embeddings: list) -> np.ndarray:
        stacked = np.stack([dense_vec] + list(embeddings), axis=1)
        return self.forward_stacked(stacked)

    def forward_stacked(self, stacked: np.ndarray) -> np.ndarray:
        """:meth:`forward` of the ``(batch, F, dim)`` stack itself — the
        dense vector at feature 0, then one pooled embedding per table —
        which the model pools its bags straight into."""
        if stacked.shape[1] != self.num_features:
            raise ValueError(
                f"expected {self.num_features} feature vectors, "
                f"got {stacked.shape[1]}"
            )
        self._stacked = stacked
        batch, _, dim = stacked.shape
        out = np.empty((batch, self.output_dim(dim)), dtype=stacked.dtype)
        if not self._compiled_dots(stacked, out):
            out[:, :dim] = stacked[:, 0, :]
            out[:, dim:] = self._dots_numpy(stacked)
        return out

    def backward(self, delta: np.ndarray) -> tuple:
        """Return (d_dense_vec, [d_embedding_t for each table])."""
        if self._stacked is None:
            raise RuntimeError("forward must run before backward")
        stacked = self._stacked
        batch, _, dim = stacked.shape
        if delta.shape != (batch, self.output_dim(dim)):
            raise ValueError(
                f"expected a {(batch, self.output_dim(dim))} delta, got {delta.shape}"
            )
        d_pairs = delta[:, dim:]
        d_stacked = self._compiled_grad(stacked, d_pairs)
        if d_stacked is None:
            d_stacked = self._grad_numpy(stacked, d_pairs)
        d_dense = d_stacked[:, 0, :] + delta[:, :dim]
        d_embeddings = [d_stacked[:, 1 + t, :] for t in range(self.num_features - 1)]
        return d_dense, d_embeddings

    def _compiled_dots(self, stacked: np.ndarray, out: np.ndarray) -> bool:
        """The forward through the library into ``out``; ``False``
        (nothing written): no library, or a stack it was not built for."""
        lib = _native.LIB
        return (
            lib is not None
            and _native_stack(stacked)
            and lib.interaction_dots(
                out.ctypes.data, stacked.ctypes.data, stacked.shape[0],
                self.num_features, stacked.shape[2],
            ) >= 0
        )

    def _compiled_grad(self, stacked: np.ndarray, d_pairs: np.ndarray):
        """``d_stack`` through the library, reading ``d_pairs`` in place;
        ``None``: no library, or operands it was not built for."""
        lib = _native.LIB
        if not (
            lib is not None
            and _native_stack(stacked)
            and d_pairs.dtype == np.float64
            and d_pairs.flags.aligned
            and d_pairs.strides[1] == d_pairs.itemsize
        ):
            return None
        d_stack = np.empty_like(stacked)
        done = lib.interaction_grad(
            d_stack.ctypes.data, stacked.ctypes.data, d_pairs.ctypes.data,
            d_pairs.strides[0], stacked.shape[0], self.num_features, stacked.shape[2],
        )
        return d_stack if done >= 0 else None

    def _dots_numpy(self, stacked: np.ndarray) -> np.ndarray:
        """The ``(batch, pairs)`` dots in the four-lane order, one pair at
        a time over feature-major ``(dim, batch)`` planes."""
        batch, _, dim = stacked.shape
        by_feature = np.ascontiguousarray(stacked.transpose(1, 2, 0))
        lanes = np.full((self.num_pairs, 4, batch), -0.0, dtype=stacked.dtype)
        products = np.empty((dim, batch), dtype=stacked.dtype)
        for p, (i, j) in enumerate(zip(self._rows_idx, self._cols_idx)):
            np.multiply(by_feature[i], by_feature[j], out=products)
            for d in range(0, dim, 4):  # lane r takes d = 4c + r, c ascending
                block = products[d : d + 4]
                lanes[p, : block.shape[0]] += block
        return ((lanes[:, 0] + lanes[:, 1]) + (lanes[:, 2] + lanes[:, 3])).T

    def _grad_numpy(self, stacked: np.ndarray, d_pairs: np.ndarray) -> np.ndarray:
        """``d_stack`` with ``g`` ascending, over feature-major planes,
        handed back ``(batch, F, dim)`` C-contiguous like the compiled
        one's: the embedding norms' einsum sums in an order that
        depends on the layout it reads."""
        by_feature = np.ascontiguousarray(stacked.transpose(1, 2, 0))
        pair_grads = np.ascontiguousarray(d_pairs.T)
        dtype = np.result_type(stacked, d_pairs)
        d_stack = np.full(by_feature.shape, -0.0, dtype=dtype)
        term = np.empty(by_feature.shape[1:], dtype=dtype)
        for f in range(self.num_features):
            for g in range(self.num_features):
                if g != f:
                    np.multiply(pair_grads[self._pair[f, g]], by_feature[g], out=term)
                    d_stack[f] += term
        return np.ascontiguousarray(d_stack.transpose(2, 0, 1))


def _native_stack(stacked: np.ndarray) -> bool:
    """What ``_sparse.c``'s interaction indexes as ``(batch, F, dim)``:
    float64, C-contiguous."""
    return (
        stacked.dtype == np.float64
        and stacked.ndim == 3
        and stacked.flags.c_contiguous
        and stacked.flags.aligned
    )
