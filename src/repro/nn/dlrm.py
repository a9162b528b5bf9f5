"""The DLRM recommendation model (Naumov et al. [51]), built from scratch.

Architecture (paper Figure 1): dense features flow through a bottom MLP;
each sparse feature indexes an embedding table whose gathered vectors are
sum-pooled; the dense vector and pooled embeddings interact via pairwise
dot products; a top MLP produces the CTR logit.

The model exposes the four gradient views (batch / per-example / ghost-norm
/ weighted) that the DP-SGD variants in ``repro.train`` are built from.
Activation backpropagation is shared across all views: ``backward`` runs
once, then each view re-reads the cached (activation, delta) pairs — the
same structure that lets DP-SGD(R)/(F) avoid materialising per-example
weight gradients (paper Section 2.5).

The forward gather-pool and the weighted view's scatter-adds run one
table per item of :func:`repro.kernels.lanes.fan_out`: a bag touches
only its own table, caches and output slot, so the bits are the
table-by-table loop's.
"""

from __future__ import annotations

import numpy as np

from ..configs import DLRMConfig
from ..data.batch import Batch
from ..kernels.lanes import fan_out
from ..rng import NoiseStream
from .functional import bce_with_logits, bce_with_logits_grad
from .init import ParameterFactory
from .layers import MLP, EmbeddingBag, FeatureInteraction, Linear
from .parameter import Parameter


def _build_mlp(factory: ParameterFactory, prefix: str, input_dim: int,
               widths: tuple) -> MLP:
    linears = []
    previous = input_dim
    for i, width in enumerate(widths):
        weight = factory.linear_weight(f"{prefix}.linear_{i}.weight", width, previous)
        bias = factory.linear_bias(f"{prefix}.linear_{i}.bias", width)
        linears.append(Linear(weight, bias))
        previous = width
    return MLP(linears)


class DLRM:
    """Deep Learning Recommendation Model with DP-aware backward passes."""

    def __init__(self, config: DLRMConfig, seed: int = 0, dtype=np.float64):
        self.config = config
        self.seed = int(seed)
        stream = NoiseStream(seed)
        factory = ParameterFactory(stream, dtype=dtype)

        self.bottom_mlp = _build_mlp(
            factory, "bottom_mlp", config.dense_features, config.bottom_mlp
        )
        self.embeddings = []
        for t, rows in enumerate(config.table_rows):
            table = factory.embedding_table(
                f"embeddings.table_{t}", rows, config.embedding_dim
            )
            self.embeddings.append(EmbeddingBag(table))
        self.interaction = FeatureInteraction(config.interaction_features)
        self.top_mlp = _build_mlp(
            factory, "top_mlp", config.top_mlp_input_dim, config.top_mlp
        )
        self._parameters = factory.parameters
        self._logits: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Parameter access
    # ------------------------------------------------------------------
    def parameters(self) -> dict:
        """Name -> Parameter for every trainable tensor."""
        return self._parameters

    def dense_parameters(self) -> dict:
        return {
            name: p for name, p in self._parameters.items() if not p.is_embedding
        }

    def embedding_parameters(self) -> dict:
        return {
            name: p for name, p in self._parameters.items() if p.is_embedding
        }

    @property
    def embedding_param_names(self) -> list:
        return [bag.table.name for bag in self.embeddings]

    def parameter_count(self) -> int:
        return int(sum(p.size for p in self._parameters.values()))

    # ------------------------------------------------------------------
    # Forward / loss / backward
    # ------------------------------------------------------------------
    def forward(self, batch: Batch) -> np.ndarray:
        """Compute CTR logits of shape ``(batch,)``."""
        if batch.num_tables != self.config.num_tables:
            raise ValueError(
                f"batch has {batch.num_tables} sparse features, model expects "
                f"{self.config.num_tables}"
            )
        dense_vec = self.bottom_mlp.forward(batch.dense)
        # The interaction's (batch, F, dim) stack: the dense vector, then
        # every bag pooled straight into its slot.
        stacked = np.empty(
            (dense_vec.shape[0], 1 + len(self.embeddings), dense_vec.shape[1]),
            dtype=np.result_type(
                dense_vec.dtype, *(bag.table.data.dtype for bag in self.embeddings)
            ),
        )
        stacked[:, 0, :] = dense_vec

        def pool(t: int) -> None:
            # Taken, not read: the batch keeps no per-table arrays past
            # its step.
            self.embeddings[t].forward(
                batch.sparse[:, t, :], sort=batch.take_lookup_sort(t),
                out=stacked[:, 1 + t, :],
            )

        # Each bag pools into its own slot: one table per lane.
        fan_out(pool, range(len(self.embeddings)))
        interacted = self.interaction.forward_stacked(stacked)
        logits = self.top_mlp.forward(interacted)[:, 0]
        self._logits = logits
        return logits

    def loss(self, batch: Batch) -> np.ndarray:
        """Per-example BCE losses (not reduced: DP-SGD clips per example)."""
        logits = self.forward(batch)
        return bce_with_logits(logits, batch.labels)

    def loss_grad_per_example(self, batch: Batch) -> np.ndarray:
        """d loss_b / d logit_b for the cached forward pass."""
        if self._logits is None:
            raise RuntimeError("forward must run before loss_grad_per_example")
        return bce_with_logits_grad(self._logits, batch.labels)

    def backward(self, dlogits: np.ndarray) -> None:
        """Backpropagate per-example output gradients through every layer.

        ``dlogits`` has shape ``(batch,)``; each layer caches its upstream
        delta so the gradient views below can be computed afterwards.
        """
        delta = np.asarray(dlogits, dtype=np.float64)[:, None]
        d_interacted = self.top_mlp.backward(delta)
        d_dense_vec, d_pooled = self.interaction.backward(d_interacted)
        for t, bag in enumerate(self.embeddings):
            bag.backward(d_pooled[t])
        # The bottom MLP's input is the raw dense features: no gradient.
        self.bottom_mlp.backward(d_dense_vec, input_grad=False)

    # ------------------------------------------------------------------
    # Gradient views (read the caches left by ``backward``)
    # ------------------------------------------------------------------
    def batch_grads(self) -> dict:
        """Summed-over-batch gradients: dense arrays + SparseRowGrads."""
        grads = {}
        grads.update(self.bottom_mlp.batch_grads())
        grads.update(self.top_mlp.batch_grads())
        for bag in self.embeddings:
            grads.update(bag.batch_grads())
        return grads

    def per_example_dense_grads(self) -> dict:
        """Materialised per-example grads for every dense parameter.

        This is the memory-hungry path of DP-SGD(B): a batch of N allocates
        N full gradient copies of the MLPs (paper Section 2.5).
        """
        grads = {}
        grads.update(self.bottom_mlp.per_example_grads())
        grads.update(self.top_mlp.per_example_grads())
        return grads

    def per_example_embedding_pairs(self) -> dict:
        """Factored per-example embedding grads, one PerExamplePairs per table."""
        return {
            bag.table.name: bag.per_example_pairs() for bag in self.embeddings
        }

    def ghost_norm_sq(self) -> np.ndarray:
        """Per-example ||g_b||^2 over ALL parameters without materialisation."""
        total = self.bottom_mlp.ghost_norm_sq() + self.top_mlp.ghost_norm_sq()
        for bag in self.embeddings:
            total = total + bag.ghost_norm_sq()
        return total

    def weighted_grads(self, weights: np.ndarray) -> dict:
        """``sum_b weights[b] * g_b`` for every parameter (reweighted pass)."""
        grads = {}
        grads.update(self.bottom_mlp.weighted_grads(weights))
        grads.update(self.top_mlp.weighted_grads(weights))
        # Each bag's scatter-add reads and writes only its own state: one
        # table per lane, merged in table order.
        for table_grads in fan_out(
            lambda bag: bag.weighted_grads(weights), self.embeddings
        ):
            grads.update(table_grads)
        return grads

    # ------------------------------------------------------------------
    # Introspection used by trainers
    # ------------------------------------------------------------------
    def table_parameter(self, table: int) -> Parameter:
        return self.embeddings[table].table
