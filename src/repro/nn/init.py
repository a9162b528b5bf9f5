"""Deterministic parameter initialisation.

All weights come from the model's ``NoiseStream`` (domain ``DOMAIN_INIT``),
so two models built with the same seed are bit-identical — a prerequisite
for trajectory-level equivalence tests between training algorithms.
"""

from __future__ import annotations

import numpy as np

from ..rng import NoiseStream
from .parameter import Parameter


class ParameterFactory:
    """Allocates parameters with stable ids and deterministic values."""

    def __init__(self, stream: NoiseStream, dtype=np.float64):
        self._stream = stream
        self._dtype = dtype
        self._next_id = 0
        self.parameters: dict = {}

    def _allocate(self, name: str, values: np.ndarray,
                  is_embedding: bool = False) -> Parameter:
        if name in self.parameters:
            raise ValueError(f"duplicate parameter name: {name}")
        # ``values`` is always freshly drawn or zeroed by the caller, so
        # the parameter adopts it: no second copy of a 64 MB table.
        param = Parameter(
            name, values.astype(self._dtype, copy=False), self._next_id, is_embedding
        )
        self._next_id += 1
        self.parameters[name] = param
        return param

    def linear_weight(self, name: str, out_features: int,
                      in_features: int) -> Parameter:
        """He-style Gaussian init: std = sqrt(2 / fan_in)."""
        std = np.sqrt(2.0 / in_features)
        values = self._stream.init_values(
            self._next_id, (out_features, in_features), std=std
        )
        return self._allocate(name, values)

    def linear_bias(self, name: str, out_features: int) -> Parameter:
        return self._allocate(name, np.zeros(out_features))

    def embedding_table(self, name: str, num_rows: int, dim: int) -> Parameter:
        """Gaussian init scaled by 1/sqrt(dim), the common DLRM choice."""
        std = 1.0 / np.sqrt(dim)
        values = self._stream.init_values(self._next_id, (num_rows, dim), std=std)
        return self._allocate(name, values, is_embedding=True)
