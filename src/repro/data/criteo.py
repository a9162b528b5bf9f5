"""Criteo click-log file format: parsing, hashing, and synthesis.

The paper's Section 7.3 experiments use the Kaggle Display Advertising
Challenge (DAC) dataset [33]: tab-separated lines of

    label \t I1..I13 (integers, may be empty) \t C1..C26 (hex strings)

That dataset cannot ship here, so this module provides both halves of the
substitution:

* :func:`write_synthetic_criteo` emits files in the exact DAC format with
  configurable per-feature skew, so the ingestion path is exercised end
  to end;
* :class:`CriteoFileDataset` ingests any DAC-format file with the
  standard preprocessing — ``log(1+x)`` transform for integer features,
  hashing trick for categoricals — and exposes the same ``batch`` API as
  :class:`~repro.data.synthetic.SyntheticClickDataset`, so it plugs
  straight into :class:`~repro.data.loader.DataLoader`.
"""

from __future__ import annotations

import numpy as np

from ..configs import DLRMConfig
from .batch import Batch
from .skew import SkewSpec, zipf_weights

NUM_INTEGER_FEATURES = 13
NUM_CATEGORICAL_FEATURES = 26

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def fnv1a_64(token: str) -> int:
    """FNV-1a 64-bit hash of a string (the hashing-trick hash).

    Deterministic across runs and platforms, unlike Python's ``hash``.
    """
    value = _FNV_OFFSET
    with np.errstate(over="ignore"):
        for byte in token.encode("utf-8"):
            value = (value ^ np.uint64(byte)) * _FNV_PRIME
    return int(value)


def hash_to_row(token: str, num_rows: int) -> int:
    """Map a categorical token to a table row via the hashing trick."""
    if num_rows < 1:
        raise ValueError("num_rows must be positive")
    return fnv1a_64(token) % num_rows


class CriteoFileDataset:
    """A DAC-format file, preprocessed into model-ready arrays.

    Parameters
    ----------
    path:
        The TSV file.
    config:
        Target model geometry; the file's 26 categorical columns are
        hashed into ``config.num_tables`` tables (extra columns are
        dropped, missing ones error), and integer features are truncated
        or zero-padded to ``config.dense_features``.
    """

    def __init__(self, path, config: DLRMConfig):
        if config.lookups_per_table != 1:
            raise ValueError(
                "DAC files are single-valued per categorical feature; "
                "use lookups_per_table=1"
            )
        if config.num_tables > NUM_CATEGORICAL_FEATURES:
            raise ValueError(
                f"DAC provides {NUM_CATEGORICAL_FEATURES} categorical "
                f"features; config wants {config.num_tables} tables"
            )
        self.config = config
        labels, dense, sparse = self._parse(path)
        self.labels = labels
        self.dense = dense
        self.sparse = sparse

    def _parse(self, path):
        labels = []
        dense_rows = []
        sparse_rows = []
        config = self.config
        with open(path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                fields = line.split("\t")
                expected = 1 + NUM_INTEGER_FEATURES + NUM_CATEGORICAL_FEATURES
                if len(fields) != expected:
                    raise ValueError(
                        f"{path}:{line_number}: expected {expected} fields, "
                        f"got {len(fields)}"
                    )
                labels.append(float(fields[0]))
                dense_rows.append(self._dense_features(
                    fields[1:1 + NUM_INTEGER_FEATURES]
                ))
                sparse_rows.append(self._sparse_indices(
                    fields[1 + NUM_INTEGER_FEATURES:]
                ))
        if not labels:
            raise ValueError(f"{path} contains no examples")
        return (
            np.asarray(labels, dtype=np.float64),
            np.asarray(dense_rows, dtype=np.float64),
            np.asarray(sparse_rows, dtype=np.int64)[:, :, None],
        )

    def _dense_features(self, tokens) -> list:
        """log(1 + max(x, 0)) transform; missing values become 0."""
        values = []
        for token in tokens[:self.config.dense_features]:
            if token == "":
                values.append(0.0)
            else:
                values.append(float(np.log1p(max(int(token), 0))))
        while len(values) < self.config.dense_features:
            values.append(0.0)
        return values

    def _sparse_indices(self, tokens) -> list:
        indices = []
        for table, token in enumerate(tokens[:self.config.num_tables]):
            rows = self.config.table_rows[table]
            if token == "":
                indices.append(0)  # conventional missing-value bucket
            else:
                indices.append(hash_to_row(token, rows))
        return indices

    # -- dataset protocol (mirrors SyntheticClickDataset) ---------------
    def __len__(self) -> int:
        return self.labels.shape[0]

    def batch(self, example_ids) -> Batch:
        ids = np.asarray(example_ids, dtype=np.int64)
        return Batch(
            dense=self.dense[ids],
            sparse=self.sparse[ids],
            labels=self.labels[ids],
        )


def write_synthetic_criteo(path, num_examples: int, seed: int = 0,
                           vocabulary_sizes=None,
                           skew: SkewSpec | None = None,
                           missing_rate: float = 0.05) -> None:
    """Write a synthetic click log in the exact DAC format.

    ``vocabulary_sizes`` gives the distinct-token count per categorical
    column (default 1000 each); ``skew`` shapes token popularity the same
    way the trace generators do, so re-skewed files reproduce the paper's
    Figure 13(d) methodology end to end.
    """
    if num_examples < 1:
        raise ValueError("num_examples must be positive")
    if not 0.0 <= missing_rate < 1.0:
        raise ValueError("missing_rate must be in [0, 1)")
    if vocabulary_sizes is None:
        vocabulary_sizes = [1000] * NUM_CATEGORICAL_FEATURES
    if len(vocabulary_sizes) != NUM_CATEGORICAL_FEATURES:
        raise ValueError(
            f"need {NUM_CATEGORICAL_FEATURES} vocabulary sizes"
        )

    rng = np.random.default_rng(seed)
    probabilities = []
    for size in vocabulary_sizes:
        if skew is None or skew.kind == "uniform":
            probabilities.append(None)
        else:
            weights = zipf_weights(size, skew.exponent)
            probabilities.append(weights / weights.sum())

    with open(path, "w", encoding="utf-8") as handle:
        for _ in range(num_examples):
            label = int(rng.random() < 0.25)
            fields = [str(label)]
            for _ in range(NUM_INTEGER_FEATURES):
                if rng.random() < missing_rate:
                    fields.append("")
                else:
                    fields.append(str(int(rng.poisson(30))))
            for column, size in enumerate(vocabulary_sizes):
                if rng.random() < missing_rate:
                    fields.append("")
                    continue
                if probabilities[column] is None:
                    token_id = int(rng.integers(size))
                else:
                    token_id = int(rng.choice(size, p=probabilities[column]))
                fields.append(f"{token_id:08x}")
            handle.write("\t".join(fields) + "\n")
