"""Data substrate: synthetic traces, skew calibration and loaders."""

from .batch import Batch
from .criteo import CriteoFileDataset, fnv1a_64, hash_to_row, write_synthetic_criteo
from .loader import DataLoader, InputQueue, LookaheadLoader
from .skew import (
    PAPER_SKEW_MASS,
    PAPER_SKEW_TOP_FRACTIONS,
    SkewSpec,
    calibrate_zipf_exponent,
    mass_of_top_fraction,
    paper_skew_spec,
    zipf_weights,
)
from .synthetic import SyntheticClickDataset

__all__ = [
    "Batch",
    "CriteoFileDataset",
    "fnv1a_64",
    "hash_to_row",
    "write_synthetic_criteo",
    "DataLoader",
    "InputQueue",
    "LookaheadLoader",
    "PAPER_SKEW_MASS",
    "PAPER_SKEW_TOP_FRACTIONS",
    "SkewSpec",
    "calibrate_zipf_exponent",
    "mass_of_top_fraction",
    "paper_skew_spec",
    "zipf_weights",
    "SyntheticClickDataset",
]
