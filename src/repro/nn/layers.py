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

    @property
    def out_features(self) -> int:
        return self.weight.data.shape[0]

    @property
    def in_features(self) -> int:
        return self.weight.data.shape[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.weight.data.T + self.bias.data

    def backward(self, delta: np.ndarray) -> np.ndarray:
        """Cache the upstream delta and return the input gradient."""
        self._delta = delta
        return delta @ self.weight.data

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
        weighted_delta = delta * weights[:, None]
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

    def backward(self, delta: np.ndarray) -> np.ndarray:
        last = len(self.linears) - 1
        for i in range(last, -1, -1):
            delta = self.linears[i].backward(delta)
            if i != 0:
                delta = relu_grad(self._pre_activations[i - 1], delta)
        return delta

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
    """

    def __init__(self, num_features: int):
        self.num_features = int(num_features)
        upper = np.triu_indices(self.num_features, k=1)
        self._rows_idx = upper[0]
        self._cols_idx = upper[1]
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
        dots = np.einsum("bfd,bgd->bfg", stacked, stacked)
        pairs = dots[:, self._rows_idx, self._cols_idx]
        return np.concatenate([stacked[:, 0, :], pairs], axis=1)

    def backward(self, delta: np.ndarray) -> tuple:
        """Return (d_dense_vec, [d_embedding_t for each table])."""
        if self._stacked is None:
            raise RuntimeError("forward must run before backward")
        stacked = self._stacked
        batch, num_features, dim = stacked.shape
        d_dense_direct = delta[:, :dim]
        d_pairs = delta[:, dim:]
        d_dots = np.zeros((batch, num_features, num_features), dtype=np.float64)
        d_dots[:, self._rows_idx, self._cols_idx] = d_pairs
        # d z_i += dp_ij z_j and d z_j += dp_ij z_i  (symmetrise then contract)
        d_dots_sym = d_dots + np.swapaxes(d_dots, 1, 2)
        d_stacked = np.einsum("bfg,bgd->bfd", d_dots_sym, stacked)
        d_dense = d_stacked[:, 0, :] + d_dense_direct
        d_embeddings = [d_stacked[:, 1 + t, :] for t in range(num_features - 1)]
        return d_dense, d_embeddings
