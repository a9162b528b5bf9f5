"""Parameter and gradient containers for the from-scratch NN substrate.

Embedding-table gradients are the heart of this paper, so they get a real
sparse representation (``SparseRowGrad``) instead of being densified: a
non-private SGD step must touch only the gathered rows (paper Figure 4a),
and LazyDP's whole point is keeping the DP update sparse too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels.arena import owned
from ..rng import _native


class Parameter:
    """A trainable tensor with a stable identity.

    Attributes
    ----------
    name:
        Dotted path inside the owning model (e.g. ``"top_mlp.linear_0.weight"``).
    data:
        The numpy array holding the current weights; updated in place.
    param_id:
        Small integer unique within the model; keys the deterministic
        initialisation / noise streams.
    is_embedding:
        True for embedding tables, which take the sparse update path.
    """

    def __init__(self, name: str, data: np.ndarray, param_id: int,
                 is_embedding: bool = False):
        self.name = name
        self.data = data
        self.param_id = int(param_id)
        self.is_embedding = bool(is_embedding)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "embedding" if self.is_embedding else "dense"
        return f"Parameter({self.name!r}, shape={self.data.shape}, {kind})"


@dataclass
class SparseRowGrad:
    """Gradient of an embedding table: values for a set of unique rows.

    ``rows`` are unique, sorted row indices; ``values[k]`` is the gradient
    for ``rows[k]``.  This is the object a sparse optimizer consumes; its
    size is proportional to the batch's pooling footprint, not the table.
    """

    rows: np.ndarray            # (n,) int64, unique & sorted
    values: np.ndarray          # (n, dim) float

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.values = np.asarray(self.values)
        if self.rows.ndim != 1 or self.values.ndim != 2:
            raise ValueError("rows must be (n,), values must be (n, dim)")
        if self.rows.shape[0] != self.values.shape[0]:
            raise ValueError("rows and values must align")

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def to_dense(self, num_rows: int) -> np.ndarray:
        """Materialise as a dense ``(num_rows, dim)`` gradient (tests only)."""
        dense = np.zeros((num_rows, self.dim), dtype=self.values.dtype)
        dense[self.rows] = self.values
        return dense

    def scaled(self, factor: float) -> "SparseRowGrad":
        return SparseRowGrad(self.rows, self.values * factor)


@dataclass
class PerExamplePairs:
    """Per-example embedding gradients in factored (pair) form.

    For EmbeddingBag with sum pooling, example ``b``'s gradient w.r.t. table
    row ``r`` is ``mult * delta_b`` where ``mult`` counts how many of the
    example's lookups hit ``r``.  Storing (example, row, mult) pairs plus the
    shared ``deltas`` matrix keeps per-example gradients implicit — exactly
    the structure the DP-SGD(F) ghost-norm trick exploits (paper Section 2.5).
    """

    example_ids: np.ndarray     # (p,) int64
    rows: np.ndarray            # (p,) int64
    mults: np.ndarray           # (p,) float64 lookup multiplicities
    deltas: np.ndarray          # (batch, dim) upstream grads per example
    batch_size: int
    #: ``rows``' sorted unique values and each pair's index into them:
    #: the batch's :class:`~repro.data.batch.LookupPairs` has them;
    #: pairs built by hand get them from ``np.unique`` here.
    unique_rows: np.ndarray | None = None
    inverse: np.ndarray | None = None

    def __post_init__(self):
        if self.unique_rows is None or self.inverse is None:
            self.unique_rows, self.inverse = np.unique(
                self.rows, return_inverse=True
            )

    @classmethod
    def from_lookups(cls, pairs, deltas: np.ndarray) -> "PerExamplePairs":
        """The pairs of a :class:`~repro.data.batch.LookupPairs`."""
        return cls(
            example_ids=pairs.example_ids,
            rows=pairs.rows[pairs.inverse],
            mults=pairs.mults,
            deltas=deltas,
            batch_size=deltas.shape[0],
            unique_rows=pairs.rows,
            inverse=pairs.inverse,
        )

    def norm_sq_per_example(self) -> np.ndarray:
        """||g_b||^2 for each example, computed without materialisation.

        ``sum_r (mult_{b,r} * ||delta_b||)^2`` — the embedding ghost norm.
        """
        delta_norm_sq = np.einsum("bd,bd->b", self.deltas, self.deltas)
        mult_sq = self.mults.astype(np.float64) ** 2
        per_example = np.bincount(
            self.example_ids, weights=mult_sq, minlength=self.batch_size
        )
        return per_example * delta_norm_sq

    def weighted_row_grad(self, weights: np.ndarray) -> SparseRowGrad:
        """``sum_b weights[b] * g_b`` as a sparse row gradient.

        ``weights`` typically holds ``clip_factor_b / batch`` so the result
        is the clipped averaged gradient DP-SGD feeds the optimizer.
        """
        weights = np.asarray(weights, dtype=np.float64)
        unique_rows, inverse = self.unique_rows, self.inverse
        lib = _native.LIB
        if lib is not None:
            values = self._compiled_scatter_add(
                lib, unique_rows.shape[0], inverse, weights
            )
            if values is not None:
                return SparseRowGrad(unique_rows, values)
        scale = weights[self.example_ids] * self.mults
        contrib = self.deltas[self.example_ids] * scale[:, None]
        values = owned((unique_rows.shape[0], self.deltas.shape[1]), zero=True)
        np.add.at(values, inverse, contrib)
        return SparseRowGrad(unique_rows, values)

    def _compiled_scatter_add(self, lib, num_unique, inverse, weights):
        """The gather, the two products and ``np.add.at`` of
        :meth:`weighted_row_grad` as one pass of ``_sparse.c`` in pair
        order — the same bits with no ``(pairs, dim)`` temporary.
        ``None``: the operands are not what the library was built for
        (layouts, checked here; example ids inside the batch, checked in
        C before the first store) and the numpy expression runs."""
        deltas, examples, mults = self.deltas, self.example_ids, self.mults
        if not (
            isinstance(deltas, np.ndarray)
            and deltas.dtype == np.float64
            and deltas.ndim == 2
            and deltas.strides[1] == deltas.itemsize
            and _native.vector(weights, np.float64)
            and _native.vector(examples, np.int64)
            and _native.vector(inverse, np.int64)
            and _native.vector(mults, np.float64)
            and inverse.shape == examples.shape == mults.shape
        ):
            return None
        values = owned((num_unique, deltas.shape[1]), zero=True)
        done = lib.weighted_scatter_add(
            values.ctypes.data, num_unique, deltas.shape[1],
            inverse.ctypes.data, examples.ctypes.data, mults.ctypes.data,
            examples.size, deltas.ctypes.data, deltas.strides[0],
            weights.ctypes.data, min(weights.shape[0], deltas.shape[0]),
        )
        return values if done >= 0 else None

    def dense_per_example(self, num_rows: int) -> np.ndarray:
        """Materialise ``(batch, num_rows, dim)`` grads (small tests only)."""
        dense = np.zeros(
            (self.batch_size, num_rows, self.deltas.shape[1]), dtype=np.float64
        )
        contrib = self.deltas[self.example_ids] * self.mults[:, None]
        np.add.at(dense, (self.example_ids, self.rows), contrib)
        return dense

