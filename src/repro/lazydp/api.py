"""The user-facing LazyDP API (paper Figure 9a).

Mirrors Opacus' ``PrivacyEngine.make_private``: wrap an existing model and
data loader, pick the DP hyper-parameters, and get back a private training
session.  The paper's wrapper returns LazyDP-enabled ``(model, optimizer,
data_loader)`` instances; ours returns the serial-plan
:class:`repro.session.TrainSession` with the loader bound, whose
no-argument ``fit()`` runs Algorithm 1 end-to-end (including the terminal
flush) and whose ``epsilon`` reports the budget spent.
"""

from __future__ import annotations

from ..data.loader import DataLoader
from ..nn.dlrm import DLRM
from ..train.common import DPConfig


def make_private(
    module: DLRM,
    data_loader: DataLoader,
    *,
    noise_multiplier: float = 1.1,
    max_gradient_norm: float = 1.0,
    learning_rate: float = 0.05,
    delta: float = 1e-5,
    use_ans: bool = True,
    noise_seed: int = 1234,
):
    """Transform a model + loader into a LazyDP private training session.

    Parameters follow the paper's wrapper (Figure 9a): ``noise_multiplier``
    is sigma, ``max_gradient_norm`` is the clipping threshold C.  Set
    ``use_ans=False`` to run the lazy-update-only ablation (Figure 10's
    "LazyDP w/o ANS").
    """
    # Imported here: repro.session itself builds on repro.lazydp.
    from ..session import ExecutionPlan, TrainSession

    config = DPConfig(
        noise_multiplier=noise_multiplier,
        max_grad_norm=max_gradient_norm,
        learning_rate=learning_rate,
        delta=delta,
    )
    session = TrainSession.build(
        module, config, ExecutionPlan(ans=use_ans), noise_seed=noise_seed
    )
    session.data_loader = data_loader
    return session
