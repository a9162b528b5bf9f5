"""Synthetic click-log generation (the Criteo / MLPerf trace substitute).

The paper trains on MLPerf DLRM with uniformly drawn table indices
(Section 6) and on Kaggle DAC re-skewed per [38] (Section 7.3).  Neither
raw dataset ships here, so ``SyntheticClickDataset`` generates equivalent
traces: every example is a pure function of ``(seed, example_id)`` via the
Philox generator, so datasets are unbounded, random-access and perfectly
reproducible — which is also what lets the LazyDP input queue "see the
future" the way a stored training set does (paper Section 5.1).

Labels carry a learnable logistic signal from the dense features plus
embedding-popularity effects, so end-to-end training measurably reduces the
loss (used by integration tests; the paper itself reports throughput only).
"""

from __future__ import annotations

import numpy as np

from ..configs import DLRMConfig
from ..kernels import lanes
from ..rng import (
    DOMAIN_DATA,
    _native,
    derive_key,
    make_counters,
    philox4x32,
    uniform_from_uint32,
)
from ..rng.philox import splitmix64
from .batch import Batch
from .skew import SkewSpec, zipf_weights

_U32 = np.uint64(0xFFFFFFFF)

# Sub-domains inside DOMAIN_DATA, encoded in counter word 2's high bits.
_FIELD_SPARSE = 0
_FIELD_DENSE = 1
_FIELD_LABEL = 2


def _field_uniforms(seed: int, stream: int, field: int,
                    example_ids: np.ndarray, count: int) -> np.ndarray:
    """``(len(example_ids), count)`` deterministic uniforms in (0, 1)."""
    example_ids = np.asarray(example_ids, dtype=np.uint64)
    key = derive_key(seed, DOMAIN_DATA, stream)
    blocks = (count + 3) // 4
    block_idx = np.arange(blocks, dtype=np.uint32)
    counters = make_counters(
        np.repeat((example_ids & _U32).astype(np.uint32), blocks),
        np.repeat((example_ids >> np.uint64(32)).astype(np.uint32), blocks),
        np.uint32(field),
        np.tile(block_idx, example_ids.shape[0]),
    )
    words = philox4x32(counters, key)
    uniforms = uniform_from_uint32(words).reshape(example_ids.shape[0], blocks * 4)
    return uniforms[:, :count]


def cdf_ranks(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, uniforms, side="left")``, the same ranks,
    searched in ascending key order and scattered back: a search that
    starts where the previous key's ended stays in cache, where one of
    random keys into a table-sized CDF misses on most of its steps.
    :func:`zipf_ranks`' numpy fallback, and the oracle of its
    compiled search."""
    keys = uniforms.ravel()
    order = np.argsort(keys)
    ranks = np.empty(keys.shape, dtype=np.intp)
    ranks[order] = np.searchsorted(cdf, keys[order], side="left")
    return ranks.reshape(uniforms.shape)


def cdf_guide(cdf: np.ndarray) -> np.ndarray:
    """The ``K = 2**ceil(log2(len(cdf)))`` buckets :func:`zipf_ranks`
    starts from: ``guide[k]`` is the leftmost ``i`` with ``cdf[i] >= k /
    K``.  One linear pass, no search: ``K`` is a power of two, so
    ``cdf[i] * K`` is exact and ``cdf[i] >= k / K`` exactly when
    ``floor(cdf[i] * K) >= k``; for a non-decreasing CDF in ``[0, 1]``
    the entries below bucket ``k`` are a prefix, whose length is the
    count of smaller buckets."""
    size = 1 << max(cdf.size - 1, 0).bit_length()
    buckets = (cdf * size).astype(np.int64)
    guide = np.zeros(size, dtype=np.int64)
    np.cumsum(np.bincount(buckets, minlength=size)[: size - 1], out=guide[1:])
    return guide


def zipf_ranks(cdf: np.ndarray, guide: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, uniforms, side="left")``: ``_sparse.c``'s
    ``cdf_search`` from ``guide`` (:func:`cdf_guide`) where the operands
    allow — a C-contiguous float64 ``uniforms``, every key in ``[0, 1)``,
    checked in C before the first store — :func:`cdf_ranks` otherwise;
    the same ranks."""
    lib = _native.LIB
    if (
        lib is not None
        and uniforms.dtype == np.float64
        and uniforms.flags.c_contiguous
        and _native.vector(cdf, np.float64)
        and _native.vector(guide, np.int64)
    ):
        ranks = np.empty(uniforms.shape, dtype=np.int64)
        done = lib.cdf_search(
            ranks.ctypes.data, uniforms.ctypes.data, uniforms.size,
            cdf.ctypes.data, cdf.size, guide.ctypes.data, guide.size,
        )
        if done >= 0:
            return ranks
    return cdf_ranks(cdf, uniforms)


class SyntheticClickDataset:
    """Deterministic, random-access CTR dataset for a given DLRM geometry.

    Parameters
    ----------
    config:
        The model geometry (tables, rows, lookups, dense width).
    seed:
        Master seed; identical seeds give identical datasets.
    skew:
        A single :class:`SkewSpec` applied to every table, or a sequence
        with one spec per table.  Default: uniform (the paper's Section 6
        configuration).
    num_examples:
        Nominal dataset size, used by samplers to bound example ids.
    """

    def __init__(self, config: DLRMConfig, seed: int = 0,
                 skew: SkewSpec | list | None = None,
                 num_examples: int = 1 << 20):
        self.config = config
        self.seed = int(seed)
        self.num_examples = int(num_examples)
        if skew is None:
            skew = SkewSpec(kind="uniform")
        if isinstance(skew, SkewSpec):
            self.skews = [skew] * config.num_tables
        else:
            self.skews = list(skew)
            if len(self.skews) != config.num_tables:
                raise ValueError("need one SkewSpec per table")
        self._cdfs = [self._build_cdf(t) for t in range(config.num_tables)]
        self._guides = [None if cdf is None else cdf_guide(cdf) for cdf in self._cdfs]
        self._perms = [self._build_permutation(t) for t in range(config.num_tables)]
        # Fixed ground-truth weights for the learnable label signal.
        label_u = _field_uniforms(
            self.seed, stream=2**20 + 7, field=_FIELD_LABEL,
            example_ids=np.arange(1, dtype=np.uint64),
            count=config.dense_features,
        )[0]
        self._label_weights = 4.0 * (label_u - 0.5)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_cdf(self, table: int) -> np.ndarray | None:
        spec = self.skews[table]
        if spec.kind == "uniform":
            return None
        weights = zipf_weights(self.config.table_rows[table], spec.exponent)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        return cdf

    def _build_permutation(self, table: int) -> np.ndarray | None:
        """Scatter popularity ranks over row ids so hot rows aren't contiguous."""
        if self.skews[table].kind == "uniform":
            return None
        perm_seed = int(splitmix64(np.uint64(self.seed) ^ np.uint64(0xDA7A + table)))
        rng = np.random.default_rng(perm_seed)
        return rng.permutation(self.config.table_rows[table]).astype(np.int64)

    # ------------------------------------------------------------------
    # Example synthesis
    # ------------------------------------------------------------------
    def sparse_indices(self, example_ids: np.ndarray) -> np.ndarray:
        """``(n, num_tables, lookups)`` embedding indices for the examples.

        One table per :func:`~repro.kernels.lanes.fan_out` item: a table's
        indices are a pure function of ``(seed, table, example)`` and
        only it writes ``out[:, t, :]``, so the lanes change no bit."""
        example_ids = np.asarray(example_ids, dtype=np.uint64)
        n = example_ids.shape[0]
        lookups = self.config.lookups_per_table
        out = np.empty((n, self.config.num_tables, lookups), dtype=np.int64)

        def synthesise(t: int) -> None:
            uniforms = _field_uniforms(
                self.seed, stream=t, field=_FIELD_SPARSE,
                example_ids=example_ids, count=lookups,
            )
            rows = self.config.table_rows[t]
            if self._cdfs[t] is None:
                indices = np.minimum((uniforms * rows).astype(np.int64), rows - 1)
            else:
                uniforms = np.ascontiguousarray(uniforms)
                ranks = zipf_ranks(self._cdfs[t], self._guides[t], uniforms)
                indices = self._perms[t][np.minimum(ranks, rows - 1)]
            out[:, t, :] = indices

        lanes.fan_out(synthesise, range(self.config.num_tables))
        return out

    def dense_features(self, example_ids: np.ndarray) -> np.ndarray:
        """``(n, dense_features)`` continuous features in [-1, 1]."""
        uniforms = _field_uniforms(
            self.seed, stream=2**20 + 1, field=_FIELD_DENSE,
            example_ids=np.asarray(example_ids, dtype=np.uint64),
            count=self.config.dense_features,
        )
        return 2.0 * uniforms - 1.0

    def labels(self, example_ids: np.ndarray,
               dense: np.ndarray | None = None) -> np.ndarray:
        """Bernoulli labels with a logistic signal on the dense features."""
        example_ids = np.asarray(example_ids, dtype=np.uint64)
        if dense is None:
            dense = self.dense_features(example_ids)
        logits = dense @ self._label_weights
        probability = 1.0 / (1.0 + np.exp(-logits))
        coin = _field_uniforms(
            self.seed, stream=2**20 + 3, field=_FIELD_LABEL,
            example_ids=example_ids, count=1,
        )[:, 0]
        return (coin < probability).astype(np.float64)

    def batch(self, example_ids: np.ndarray) -> Batch:
        """Materialise a mini-batch for the given example ids."""
        example_ids = np.asarray(example_ids, dtype=np.uint64)
        dense = self.dense_features(example_ids)
        return Batch(
            dense=dense,
            sparse=self.sparse_indices(example_ids),
            labels=self.labels(example_ids, dense),
        )

    def __len__(self) -> int:
        return self.num_examples
