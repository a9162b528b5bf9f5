"""EANA (Ning et al. [52]): noise only where the gradient is.

EANA sidesteps the dense noisy update by adding noise exclusively to the
embedding rows *accessed in the current iteration*.  That restores sparse
updates and high throughput — but breaks DP-SGD's guarantee: a row that no
example ever touches never moves, so the final table reveals which feature
values exist in the training data (paper Section 2.5; demonstrated by
``repro.privacy.audit``).  Implemented as the comparison point of
Figure 14: DP-SGD(F) whose due rows (``repro.train.dpsgd``) are the
gradient's rows instead of the whole table — the same noise draw, the
same gradient add and the same sparse write, over fewer rows.
"""

from __future__ import annotations

from .dpsgd import DPSGDFTrainer


class EANATrainer(DPSGDFTrainer):
    """DP-SGD(F) clipping pipeline with accessed-rows-only noise."""

    name = "eana"

    def _due_rows(self, bag, grad):
        """Only the rows this step's batch accessed take noise."""
        return grad.rows
