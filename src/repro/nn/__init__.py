"""From-scratch neural-network substrate with DP-aware backward passes.

Gradient views are plain dicts keyed by parameter name: a dense
parameter maps to an ndarray, an embedding table to a
``SparseRowGrad`` (summed or reweighted over the batch) or a
``PerExamplePairs`` (its factored per-example view).
"""

from .dlrm import DLRM
from .functional import (
    bce_with_logits,
    bce_with_logits_grad,
    relu,
    relu_grad,
    sigmoid,
)
from .init import ParameterFactory
from .layers import MLP, EmbeddingBag, FeatureInteraction, Linear
from .parameter import Parameter, PerExamplePairs, SparseRowGrad

__all__ = [
    "DLRM",
    "bce_with_logits",
    "bce_with_logits_grad",
    "relu",
    "relu_grad",
    "sigmoid",
    "ParameterFactory",
    "MLP",
    "EmbeddingBag",
    "FeatureInteraction",
    "Linear",
    "Parameter",
    "PerExamplePairs",
    "SparseRowGrad",
]
