"""Eager DP-SGD: the baseline family DP-SGD(B) / (R) / (F), and EANA's base.

All three variants compute the *same* clipped averaged gradient and apply
the *same* noisy update to every embedding row, every iteration (paper
Figure 4b) — they differ only in how per-example gradient norms are
obtained, which changes their compute/memory profile but not the trained
model (Section 2.5).  ``EagerDPSGDBase`` holds the shared pipeline;
subclasses provide the norm derivation and gradient reduction.

The embedding update is one spelling over a set of *due rows*: per
table, one ``row_noise`` draw over the rows ``_due_rows`` names, the
clipped gradient added on its rows (every gradient row is due), one
sparse write.  Eager DP-SGD's due rows are the whole table — the paper's
bottleneck in its full glory: ``noise_sampling`` draws a Gaussian for
every row of every table and ``noisy_grad_update`` streams the whole
table through memory.  EANA (``repro.train.eana``) names the accessed
rows only.
"""

from __future__ import annotations

import numpy as np

from ..kernels import apply_sparse_update
from ..kernels.lanes import fan_out
from ..privacy.clipping import clipped_average_weights, global_norms
from .common import TrainerBase


class EagerDPSGDBase(TrainerBase):
    """Pipeline shared by DP-SGD(B), (R), (F): eager dense noise."""

    def train_step(self, iteration: int, batch, next_batch) -> float:
        with self.timer.time("fwd"):
            losses = self.model.loss(batch)
            mean_loss = float(losses.mean())

        # Per-example output grads: d loss_b / d logit_b, NOT averaged —
        # clipping must see each example's own gradient.
        with self.timer.time("bwd_per_example"):
            dlogits = self.model.loss_grad_per_example(batch)
            self.model.backward(dlogits)

        denominator = self._batch_denominator(batch)
        norms = self._per_example_norms(batch)
        weights = clipped_average_weights(norms, self.config.max_grad_norm, denominator)
        grads = self._reduced_grads(weights)

        noise_std = self.config.noise_std(denominator)
        self._apply_dense_noisy_updates(grads, iteration, noise_std)
        self._apply_embedding_updates(grads, iteration, noise_std)
        return mean_loss

    # -- variant hooks ---------------------------------------------------
    def _per_example_norms(self, batch) -> np.ndarray:
        raise NotImplementedError

    def _reduced_grads(self, weights: np.ndarray) -> dict:
        """Clipped averaged gradient for every parameter (dense + sparse)."""
        with self.timer.time("bwd_per_batch"):
            return self.model.weighted_grads(weights)

    # -- the noisy embedding update (paper Figure 4b) ---------------------
    def _apply_embedding_updates(
        self, grads: dict, iteration: int, noise_std: float
    ) -> None:
        """The step's embedding update, one table per item of
        :func:`repro.kernels.lanes.fan_out`: one noise draw over the
        table's due rows, the clipped gradient added to its rows, one
        sparse write.  A table's update touches only its own slab and
        its noise is keyed by its coordinates, so the bits are the
        table-by-table loop's (LazyDP overrides this with one all-tables
        update per shard)."""
        lr = self._learning_rate(iteration)

        def update(table_index: int) -> None:
            bag = self.model.embeddings[table_index]
            grad = grads[bag.table.name]
            rows = self._due_rows(bag, grad)
            with self.timer.time("noise_sampling"):
                noise = self.noise_stream.row_noise(
                    table_index, rows, iteration, bag.dim, std=noise_std
                )
            with self.timer.time("noisy_grad_generation"):
                # Every gradient row is due: the noisy gradient is the
                # noise with the gradient added on its rows.
                noise[np.searchsorted(rows, grad.rows)] += grad.values
            with self.timer.time("noisy_grad_update"):
                apply_sparse_update(
                    bag.table.data, rows, noise, lr, values_writable=True
                )

        fan_out(update, range(len(self.model.embeddings)))

    def _due_rows(self, bag, grad) -> np.ndarray:
        """The sorted rows that take this step's noise: every row."""
        return np.arange(bag.num_rows, dtype=np.int64)


class DPSGDBTrainer(EagerDPSGDBase):
    """DP-SGD(B): the original algorithm of Abadi et al. [1].

    Materialises one full gradient per example for every dense layer — the
    memory-capacity bottleneck that motivated DP-SGD(R).  (Per-example
    *embedding* gradients stay in factored pair form; materialising a
    (batch, rows, dim) tensor per table is exactly the infeasibility the
    paper describes, and the factored form is value-identical.)
    """

    name = "dpsgd_b"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._per_example_dense: dict | None = None

    def _per_example_norms(self, batch) -> np.ndarray:
        with self.timer.time("bwd_per_example"):
            self._per_example_dense = self.model.per_example_dense_grads()
            contributions = []
            for grad in self._per_example_dense.values():
                flat = grad.reshape(grad.shape[0], -1)
                contributions.append(np.einsum("bi,bi->b", flat, flat))
            for pairs in self.model.per_example_embedding_pairs().values():
                contributions.append(pairs.norm_sq_per_example())
        return global_norms(contributions)

    def _reduced_grads(self, weights: np.ndarray) -> dict:
        """Reduce the already-materialised per-example gradients."""
        # Released once reduced: per-example gradients must not live
        # into the next step's backward, nor past ``fit``.
        per_example, self._per_example_dense = self._per_example_dense, None
        with self.timer.time("bwd_per_batch"):
            grads: dict = {}
            for name, grad in per_example.items():
                grads[name] = np.einsum("b...,b->...", grad, weights)
            for name, pairs in self.model.per_example_embedding_pairs().items():
                grads[name] = pairs.weighted_row_grad(weights)
        return grads


class DPSGDRTrainer(EagerDPSGDBase):
    """DP-SGD(R): reweighted DP-SGD (Lee & Kifer [40]).

    First pass derives per-example norms (materialising gradients only
    transiently, layer by layer); second pass computes the clipped averaged
    gradient as a reweighted per-batch backward.  Output is identical to
    DP-SGD(B) with lower peak memory.
    """

    name = "dpsgd_r"

    def _per_example_norms(self, batch) -> np.ndarray:
        with self.timer.time("bwd_per_example"):
            contributions = []
            all_linears = self.model.bottom_mlp.linears + self.model.top_mlp.linears
            for linear in all_linears:
                per_example = linear.per_example_grads()
                for grad in per_example.values():
                    flat = grad.reshape(grad.shape[0], -1)
                    contributions.append(np.einsum("bi,bi->b", flat, flat))
            for pairs in self.model.per_example_embedding_pairs().values():
                contributions.append(pairs.norm_sq_per_example())
        return global_norms(contributions)


class DPSGDFTrainer(EagerDPSGDBase):
    """DP-SGD(F): fast ghost-norm clipping (Denison et al. [13]).

    Per-example norms come from the closed-form ghost norms of linear and
    embedding layers — no per-example gradient is ever materialised.  The
    paper uses this as its strongest baseline (Section 6).
    """

    name = "dpsgd_f"

    def _per_example_norms(self, batch) -> np.ndarray:
        with self.timer.time("bwd_per_example"):
            norm_sq = self.model.ghost_norm_sq()
        return np.sqrt(np.maximum(norm_sq, 0.0))
