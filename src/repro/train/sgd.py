"""Non-private SGD: the paper's performance reference point.

SGD's embedding update is *sparse* (paper Figure 4a): only the rows
gathered during forward propagation receive gradient, so per-iteration
cost is a function of batch size and pooling factor — never of table size.
That flat cost profile is what every figure normalises against.

The update runs one table per item of :func:`repro.kernels.lanes.fan_out`:
a table's rows are written only by its own item, so the bits are the
table-by-table loop's.
"""

from __future__ import annotations

from ..kernels.lanes import fan_out
from .common import TrainerBase


class SGDTrainer(TrainerBase):
    """Mini-batch SGD with mean-reduced loss and sparse embedding updates."""

    name = "sgd"
    is_private = False

    def _step(self, iteration: int, batch, next_batch) -> float:
        with self.timer.time("fwd"):
            losses = self.model.loss(batch)
            mean_loss = float(losses.mean())

        with self.timer.time("bwd_per_batch"):
            dlogits = (
                self.model.loss_grad_per_example(batch)
                / self._batch_denominator(batch)
            )
            self.model.backward(dlogits)
            grads = self.model.batch_grads()

        self._apply_dense_plain_updates(
            {name: grads[name] for name in self.model.dense_parameters()},
            iteration,
        )

        lr = self._learning_rate(iteration)

        def update(bag) -> None:
            sparse_grad = grads[bag.table.name]
            with self.timer.time("noisy_grad_update"):
                bag.table.data[sparse_grad.rows] -= lr * sparse_grad.values

        fan_out(update, self.model.embeddings)
        return mean_loss
