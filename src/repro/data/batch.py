"""The mini-batch container shared by data loaders, models and trainers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class LookupSort:
    """One table's lookups in one batch, sorted once.

    Every consumer of a batch's indices reads this one sort: the LazyDP
    dedup stage (:attr:`rows`), then the embedding bag's per-example
    pairs and the backward scatter-add's index (:meth:`pairs`).  It
    keeps only the sorted keys and the rows — what the batch holds
    between the dedup and its forward pass.  The arrays are read-only:
    a batch may hand the same ones to several readers.
    """

    keys: np.ndarray  # (batch * lookups,) row * batch + example, ascending
    rows: np.ndarray  # (n,) unique rows, ascending
    batch: int

    @classmethod
    def of(cls, indices: np.ndarray) -> "LookupSort":
        """The sort of a ``(batch, lookups)`` index array: one
        ``np.sort`` of the key ``row * batch + example`` (floor division
        recovers the row of a negative index too)."""
        indices = np.asarray(indices, dtype=np.int64)
        batch = indices.shape[0]
        keys = indices * np.int64(batch)
        keys += np.arange(batch, dtype=np.int64)[:, None]
        keys = keys.ravel()
        keys.sort()
        rows = keys // np.int64(max(batch, 1))
        return cls(
            keys=_read_only(keys), rows=_read_only(rows[_run_starts(rows)]),
            batch=batch,
        )

    def pairs(self) -> "LookupPairs":
        """The distinct ``(example, row)`` pairs, by linear passes over
        the sorted keys."""
        batch = np.int64(self.batch)
        starts = np.flatnonzero(_run_starts(self.keys))
        pair_keys = self.keys[starts]
        pair_rows = pair_keys // max(batch, 1)
        inverse = np.cumsum(_run_starts(pair_rows), dtype=np.int64) - 1
        mults = np.diff(starts, append=self.keys.size).astype(np.float64)
        return LookupPairs(
            rows=self.rows,
            inverse=_read_only(inverse),
            example_ids=_read_only(pair_keys - pair_rows * batch),
            mults=_read_only(mults),
        )


@dataclass(frozen=True, eq=False)
class LookupPairs:
    """A :class:`LookupSort`'s distinct ``(example, row)`` pairs, in
    ``(row, example)`` order.

    ``np.bincount`` over the example ids (the ghost norm) and the
    scatter-add over the rows (the weighted gradient) add per bin in
    the same sequence as in ``(example, row)`` order — one example's
    rows ascending, one row's examples ascending — so the order gives
    the bits three ``np.unique`` sorts gave.
    """

    rows: np.ndarray         # (n,) unique rows, ascending
    inverse: np.ndarray      # (p,) pair -> its row's index into ``rows``
    example_ids: np.ndarray  # (p,) int64
    mults: np.ndarray        # (p,) float64 lookups of the row by the example


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _run_starts(ascending: np.ndarray) -> np.ndarray:
    """True where a run of equal values of a sorted vector starts."""
    starts = np.empty(ascending.shape, dtype=bool)
    starts[:1] = True
    np.not_equal(ascending[1:], ascending[:-1], out=starts[1:])
    return starts


@dataclass
class Batch:
    """One training mini-batch for a DLRM-style model.

    Attributes
    ----------
    dense:
        ``(batch, dense_features)`` float array of continuous features.
    sparse:
        ``(batch, num_tables, lookups)`` int64 array of embedding indices —
        the "sparse feature input" of paper Figure 1.  ``lookups`` is the
        pooling factor the paper sweeps in Figure 13(b).
    labels:
        ``(batch,)`` float array of {0, 1} click labels.

    A table's :class:`LookupSort` is computed on first use and kept
    until :meth:`take_lookup_sort` (the model's forward pass) takes it:
    after its step a batch holds no per-table arrays.  ``sparse`` is not
    to be written once a sort has been asked for.
    """

    dense: np.ndarray
    sparse: np.ndarray
    labels: np.ndarray
    _sorts: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        self.dense = np.asarray(self.dense, dtype=np.float64)
        self.sparse = np.asarray(self.sparse, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.sparse.ndim != 3:
            raise ValueError("sparse must be (batch, num_tables, lookups)")
        if self.dense.ndim != 2:
            raise ValueError("dense must be (batch, dense_features)")
        if not (
            self.dense.shape[0] == self.sparse.shape[0] == self.labels.shape[0]
        ):
            raise ValueError("batch dimension mismatch across fields")

    @property
    def size(self) -> int:
        return self.dense.shape[0]

    @property
    def num_tables(self) -> int:
        return self.sparse.shape[1]

    @property
    def lookups(self) -> int:
        return self.sparse.shape[2]

    def lookup_sort(self, table: int) -> LookupSort:
        """``table``'s :class:`LookupSort`, sorted on first use and kept."""
        sort = self._sorts.get(table)
        if sort is None:
            # Two threads may both sort; every caller gets the one kept.
            sort = self._sorts.setdefault(
                table, LookupSort.of(self.sparse[:, table, :])
            )
        return sort

    def take_lookup_sort(self, table: int) -> LookupSort | None:
        """``table``'s :class:`LookupSort` if the batch has one, no
        longer kept by the batch; ``None`` if nothing asked for it."""
        return self._sorts.pop(table, None)

    def accessed_rows(self, table: int) -> np.ndarray:
        """Unique rows of ``table`` this batch will gather (sorted,
        read-only)."""
        return self.lookup_sort(table).rows
