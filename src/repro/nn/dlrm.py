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

Two kinds of work go to both cores and release one core's bits
(:func:`repro.kernels.lanes.fan_out` runs the items; inline — on one
CPU or a busy pool — they run in order):

* **forward and backward, in row parts.**  Every op of the two passes
  is row-independent — the ``Linear`` products and bias add, ``relu``
  and its gradient, the gather-pool, the interaction's dots and
  gradient — so :func:`row_parts` cuts the batch in two and each part
  runs the whole pass for its rows (forward: bottom MLP, every bag
  pooled into its rows of the stack, the dots, the top MLP; backward:
  top MLP, the interaction gradient, bottom MLP) into whole-batch
  arrays the layers keep from step to step.  Within a part the bags
  pool one table per item: on a one-part batch they fan out over the
  lanes as before.
* **the gradient views, one item per layer.**  On a cut batch
  ``ghost_norm_sq``, ``weighted_grads`` and ``batch_grads`` run each
  linear's and each bag's view as one item — a bag's also derives its
  lookup pairs — and merge in layer order; every item's arithmetic,
  the ``D.T @ A`` reductions included, is the whole-batch one.  Below
  the cut they run in order on the caller: at 128 rows an item costs
  less than handing it to a lane, and fanned out they slowed the step.

The cut is bitwise only where BLAS computes a row the same whatever
the rows around it: measured over all five layer shapes (13x64 to
32x1) with one BLAS thread (the lanes keep OpenBLAS at one), a cut at a multiple of 8 with both parts
of at least 256 rows matched the whole product for every batch tried,
while fixed 64- or 128-row tiles (OpenBLAS switches kernels at small
M) and a 1-row tail did not.  So the rule leaves margin and depends on
the batch size only, never on the CPU count: one cut at ``(batch // 2)
// 8 * 8`` when both parts have :data:`MIN_PART_ROWS` rows, else one part.
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

#: The least rows of either part of a cut batch.
MIN_PART_ROWS = 512
#: A cut falls on a multiple of this many rows.
PART_ALIGN = 8


def row_parts(batch: int) -> list:
    """The row parts a batch of ``batch`` rows runs its forward and
    backward in: two halves cut at an aligned row when both hold
    :data:`MIN_PART_ROWS`, else the whole batch."""
    cut = (batch // 2) // PART_ALIGN * PART_ALIGN
    if cut >= MIN_PART_ROWS and batch - cut >= MIN_PART_ROWS:
        return [slice(0, cut), slice(cut, batch)]
    return [slice(0, batch)]


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
        # Whether the last backward's batch was cut: its gradient views
        # then fan out, one layer per item.
        self._cut = False

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
        bags = self.embeddings
        dense_vec = self.bottom_mlp.bind_forward(batch.dense)
        # The interaction's (batch, F, dim) stack: the dense vector, then
        # every bag pooled straight into its slot.
        stacked = self.interaction.stack(
            batch.size, dense_vec.shape[1],
            np.result_type(dense_vec.dtype, *(bag.table.data.dtype for bag in bags)),
        )
        lookups = [batch.sparse[:, t, :] for t in range(len(bags))]
        interacted = self.interaction.bind_forward(stacked)
        top_out = self.top_mlp.bind_forward(interacted)

        def part(rows: slice) -> None:
            self.bottom_mlp.forward_rows(rows)
            stacked[rows, 0, :] = dense_vec[rows]

            def pool(t: int) -> None:
                bags[t].pool(lookups[t][rows], out=stacked[rows, 1 + t, :])

            # Each bag pools into its own slot: one table per item.
            fan_out(pool, range(len(bags)))
            self.interaction.forward_rows(rows)
            self.top_mlp.forward_rows(rows)

        fan_out(part, row_parts(batch.size))
        for t, bag in enumerate(bags):
            # Taken, not read: the batch keeps no per-table arrays past
            # its step.
            bag.bind_forward(lookups[t], sort=batch.take_lookup_sort(t))
        # A new array: the top MLP's output is overwritten next step.
        self._logits = logits = top_out[:, 0].copy()
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
        d_interacted = self.top_mlp.bind_backward(delta)
        d_dense_vec, d_pooled = self.interaction.bind_backward(d_interacted)
        for t, bag in enumerate(self.embeddings):
            bag.backward(d_pooled[t])
        # The bottom MLP's input is the raw dense features: no gradient.
        self.bottom_mlp.bind_backward(d_dense_vec, input_grad=False)

        def part(rows: slice) -> None:
            self.top_mlp.backward_rows(rows)
            self.interaction.backward_rows(rows)
            self.bottom_mlp.backward_rows(rows)

        parts = row_parts(delta.shape[0])
        self._cut = len(parts) > 1
        fan_out(part, parts)

    # ------------------------------------------------------------------
    # Gradient views (read the caches left by ``backward``)
    # ------------------------------------------------------------------
    def _each_layer(self, view) -> list:
        """``view(layer)`` for the bottom MLP's linears, the top MLP's,
        then the bags — one item of :func:`fan_out` per layer when the
        batch was cut (each view reads and writes only its own layer's
        state), in order on the caller below that, where every item
        costs less than handing it to a lane."""
        layers = [*self.bottom_mlp.linears, *self.top_mlp.linears, *self.embeddings]
        if self._cut:
            return fan_out(view, layers)
        return [view(layer) for layer in layers]

    def batch_grads(self) -> dict:
        """Summed-over-batch gradients: dense arrays + SparseRowGrads."""
        return _merged(self._each_layer(lambda layer: layer.batch_grads()))

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
        norms = self._each_layer(lambda layer: layer.ghost_norm_sq())
        bottom = len(self.bottom_mlp.linears)
        top = bottom + len(self.top_mlp.linears)
        # Summed as the MLPs' and the bags' loop would: each MLP in
        # layer order, then the two MLPs, then one bag at a time.
        total = _summed(norms[:bottom]) + _summed(norms[bottom:top])
        for norm in norms[top:]:
            total = total + norm
        return total

    def weighted_grads(self, weights: np.ndarray) -> dict:
        """``sum_b weights[b] * g_b`` for every parameter (reweighted pass)."""
        return _merged(self._each_layer(lambda layer: layer.weighted_grads(weights)))


def _merged(grads: list) -> dict:
    merged: dict = {}
    for layer_grads in grads:
        merged.update(layer_grads)
    return merged


def _summed(norms: list) -> np.ndarray:
    total = norms[0]
    for norm in norms[1:]:
        total = total + norm
    return total
