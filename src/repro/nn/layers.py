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

Every op of the forward and backward passes is row-independent, so a pass
is *bound* once (caches set, whole-batch outputs allocated) and then run
over row parts — ``MLP.forward_rows``, ``FeatureInteraction.forward_rows``
and their backward twins — that may run on different threads: each part
writes only its rows of arrays the layer keeps from pass to pass, so what
an ``MLP`` or ``FeatureInteraction`` pass returns is overwritten by its
next pass.  :class:`repro.nn.DLRM` splits a batch into such parts.
"""

from __future__ import annotations

import numpy as np

from ..data.batch import LookupPairs, LookupSort
from ..rng import _native
from .functional import relu, relu_grad
from .parameter import Parameter, PerExamplePairs

#: The row part that is the whole batch.
ALL_ROWS = slice(None)


def kept(buffer: np.ndarray | None, shape: tuple, dtype) -> np.ndarray:
    """``buffer`` when it has ``shape`` and ``dtype`` — a layer's array
    kept from pass to pass — else a new one."""
    if buffer is None or buffer.shape != shape or buffer.dtype != dtype:
        return np.empty(shape, dtype=dtype)
    return buffer


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
        out = np.empty(
            (x.shape[0], self.out_features), dtype=np.result_type(x, self.weight.data)
        )
        return self.forward_rows(ALL_ROWS, out)

    def backward(self, delta: np.ndarray, input_grad: bool = True):
        """Cache the upstream delta and return the input gradient
        (``None`` when ``input_grad`` is false: nothing needs it)."""
        self._delta = delta
        if not input_grad:
            return None
        out = np.empty(
            (delta.shape[0], self.in_features),
            dtype=np.result_type(delta, self.weight.data),
        )
        return self.backward_rows(ALL_ROWS, out)

    def forward_rows(self, rows: slice, out: np.ndarray) -> np.ndarray:
        """Rows ``rows`` of the cached input's ``x @ W.T + b``, into
        ``out[rows]``."""
        part = out[rows]
        np.matmul(self._x[rows], self.weight.data.T, out=part)
        part += self.bias.data  # in place: no second (batch, out) array
        return part

    def backward_rows(self, rows: slice, out: np.ndarray) -> np.ndarray:
        """Rows ``rows`` of the cached delta's input gradient
        ``delta @ W``, into ``out[rows]``."""
        return np.matmul(self._delta[rows], self.weight.data, out=out[rows])

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
        self._scaled = kept(self._scaled, delta.shape, np.result_type(delta, weights))
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
    """Stack of Linear layers with ReLU between (none after the last).

    Each layer's output (a hidden layer's after the ReLU, which the
    next layer reads and the backward's mask tests) and input gradient
    live in arrays the MLP keeps from pass to pass."""

    def __init__(self, linears: list):
        self.linears = list(linears)
        self._outs: list = [None] * len(self.linears)
        self._grads: list = [None] * len(self.linears)
        self._input_grad = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.bind_forward(x)
        self.forward_rows(ALL_ROWS)
        return out

    def backward(self, delta: np.ndarray, input_grad: bool = True):
        """Backpropagate to the input; ``input_grad=False`` stops at the
        first layer's delta (the input is data: nothing needs its
        gradient) and returns ``None``."""
        grad = self.bind_backward(delta, input_grad)
        self.backward_rows(ALL_ROWS)
        return grad

    def bind_forward(self, x: np.ndarray) -> np.ndarray:
        """Cache a forward over ``x`` and return its (unfilled) output;
        :meth:`forward_rows` fills it."""
        for i, linear in enumerate(self.linears):
            linear._x = x
            x = self._outs[i] = kept(
                self._outs[i], (x.shape[0], linear.out_features),
                np.result_type(x, linear.weight.data),
            )
        return x

    def forward_rows(self, rows: slice) -> None:
        last = len(self.linears) - 1
        for i, linear in enumerate(self.linears):
            out = linear.forward_rows(rows, self._outs[i])
            if i != last:
                relu(out, out=out)

    def bind_backward(self, delta: np.ndarray, input_grad: bool = True):
        """Cache a backward of ``delta`` — every layer's delta — and
        return the (unfilled) input gradient, ``None`` without
        ``input_grad``; :meth:`backward_rows` fills them."""
        self._input_grad = input_grad
        for i in range(len(self.linears) - 1, -1, -1):
            linear = self.linears[i]
            linear._delta = delta
            if i == 0 and not input_grad:
                return None
            delta = self._grads[i] = kept(
                self._grads[i], (delta.shape[0], linear.in_features),
                np.result_type(delta, linear.weight.data),
            )
        return delta

    def backward_rows(self, rows: slice) -> None:
        for i in range(len(self.linears) - 1, 0, -1):
            grad = self.linears[i].backward_rows(rows, self._grads[i])
            relu_grad(self._outs[i - 1][rows], grad, out=grad)
        if self._input_grad:
            self.linears[0].backward_rows(rows, self._grads[0])

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
        pooled = self.pool(indices, out)
        self.bind_forward(indices, sort)
        return pooled

    def bind_forward(self, indices: np.ndarray, sort: LookupSort | None = None) -> None:
        """Cache ``indices`` (int64, ``(batch, lookups)``) and their
        ``sort`` as the forward's lookups, for the gradient views."""
        self._indices = indices
        self._sort, self._pairs = sort, None

    def pool(self, indices: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``table[indices].sum(axis=1)``, caching nothing: ``_sparse.c``'s
        ``gather_pool`` where the operands allow (no ``(batch, lookups,
        dim)`` temporary), the numpy expression otherwise — the same
        bits.  Each row pools on its own, so any row part of ``indices``
        pools into the same rows of ``out``."""
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
        self._delta: np.ndarray | None = None
        # The stack a model pools into, the forward's output and the
        # backward's gradients, kept from pass to pass.
        self._stack: np.ndarray | None = None
        self._out: np.ndarray | None = None
        self._d_stack: np.ndarray | None = None
        self._d_dense: np.ndarray | None = None

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
        out = self.bind_forward(stacked)
        self.forward_rows(ALL_ROWS)
        return out

    def stack(self, batch: int, dim: int, dtype) -> np.ndarray:
        """The ``(batch, F, dim)`` stack this layer keeps from pass to
        pass, for a model to fill and hand to :meth:`bind_forward`."""
        self._stack = kept(self._stack, (batch, self.num_features, dim), dtype)
        return self._stack

    def bind_forward(self, stacked: np.ndarray) -> np.ndarray:
        """Cache a forward of ``stacked`` and return its (unfilled)
        output; :meth:`forward_rows` fills it."""
        if stacked.shape[1] != self.num_features:
            raise ValueError(
                f"expected {self.num_features} feature vectors, "
                f"got {stacked.shape[1]}"
            )
        self._stacked = stacked
        batch, _, dim = stacked.shape
        self._out = kept(self._out, (batch, self.output_dim(dim)), stacked.dtype)
        return self._out

    def forward_rows(self, rows: slice) -> None:
        stacked, out = self._stacked[rows], self._out[rows]
        if not self._compiled_dots(stacked, out):
            dim = stacked.shape[2]
            out[:, :dim] = stacked[:, 0, :]
            self._dots_numpy(stacked, out[:, dim:])

    def backward(self, delta: np.ndarray) -> tuple:
        """Return (d_dense_vec, [d_embedding_t for each table])."""
        grads = self.bind_backward(delta)
        self.backward_rows(ALL_ROWS)
        return grads

    def bind_backward(self, delta: np.ndarray) -> tuple:
        """Cache a backward of ``delta`` and return its (unfilled)
        gradients, as :meth:`backward`; :meth:`backward_rows` fills
        them."""
        if self._stacked is None:
            raise RuntimeError("forward must run before backward")
        stacked = self._stacked
        batch, _, dim = stacked.shape
        if delta.shape != (batch, self.output_dim(dim)):
            raise ValueError(
                f"expected a {(batch, self.output_dim(dim))} delta, got {delta.shape}"
            )
        self._delta = delta
        d_stack = self._d_stack = kept(
            self._d_stack, stacked.shape, np.result_type(stacked, delta)
        )
        self._d_dense = kept(
            self._d_dense, (batch, dim), np.result_type(d_stack, delta)
        )
        embeddings = [d_stack[:, 1 + t, :] for t in range(self.num_features - 1)]
        return self._d_dense, embeddings

    def backward_rows(self, rows: slice) -> None:
        stacked, delta = self._stacked[rows], self._delta[rows]
        d_stack, dim = self._d_stack[rows], stacked.shape[2]
        d_pairs = delta[:, dim:]
        if not self._compiled_grad(stacked, d_pairs, d_stack):
            self._grad_numpy(stacked, d_pairs, d_stack)
        np.add(d_stack[:, 0, :], delta[:, :dim], out=self._d_dense[rows])

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

    def _compiled_grad(self, stacked: np.ndarray, d_pairs: np.ndarray,
                       d_stack: np.ndarray) -> bool:
        """``d_stack`` through the library, reading ``d_pairs`` in place;
        ``False`` (nothing written): no library, or operands it was not
        built for."""
        lib = _native.LIB
        return (
            lib is not None
            and _native_stack(stacked)
            and _native_stack(d_stack)
            and d_pairs.dtype == np.float64
            and d_pairs.flags.aligned
            and d_pairs.strides[1] == d_pairs.itemsize
            and lib.interaction_grad(
                d_stack.ctypes.data, stacked.ctypes.data, d_pairs.ctypes.data,
                d_pairs.strides[0], stacked.shape[0], self.num_features,
                stacked.shape[2],
            ) >= 0
        )

    def _dots_numpy(self, stacked: np.ndarray, out: np.ndarray) -> None:
        """The ``(batch, pairs)`` dots in the four-lane order into ``out``,
        one pair at a time over feature-major ``(dim, batch)`` planes.
        Every temporary is one plane or smaller: no block the size of
        the part's stack, which a busy heap may have no hole for."""
        batch, features, dim = stacked.shape
        planes = [np.ascontiguousarray(stacked[:, f, :].T) for f in range(features)]
        products = np.empty((dim, batch), dtype=stacked.dtype)
        lanes = np.empty((4, batch), dtype=stacked.dtype)
        for p, (i, j) in enumerate(zip(self._rows_idx, self._cols_idx)):
            np.multiply(planes[i], planes[j], out=products)
            lanes.fill(-0.0)
            for d in range(0, dim, 4):  # lane r takes d = 4c + r, c ascending
                block = products[d : d + 4]
                lanes[: block.shape[0]] += block
            np.add(lanes[0], lanes[1], out=lanes[0])
            np.add(lanes[2], lanes[3], out=lanes[2])
            np.add(lanes[0], lanes[2], out=out[:, p])

    def _grad_numpy(self, stacked: np.ndarray, d_pairs: np.ndarray,
                    out: np.ndarray) -> None:
        """``d_stack`` with ``g`` ascending, summed in place into ``out``
        (``(batch, F, dim)`` C-contiguous like the compiled one's: the
        embedding norms' einsum sums in an order that depends on the
        layout it reads) one feature plane at a time.  The one temporary
        is a ``(batch, dim)`` term: a step copies no whole part."""
        term = np.empty((stacked.shape[0], stacked.shape[2]), dtype=out.dtype)
        out[...] = -0.0
        for f in range(self.num_features):
            plane = out[:, f, :]
            for g in range(self.num_features):
                if g != f:
                    np.multiply(
                        d_pairs[:, self._pair[f, g], None], stacked[:, g, :],
                        out=term,
                    )
                    plane += term


def _native_stack(stacked: np.ndarray) -> bool:
    """What ``_sparse.c``'s interaction indexes as ``(batch, F, dim)``:
    float64, C-contiguous."""
    return (
        stacked.dtype == np.float64
        and stacked.ndim == 3
        and stacked.flags.c_contiguous
        and stacked.flags.aligned
    )
