"""Differential-privacy substrate: clipping, mechanisms, accounting, audit.

The RDP accountant is the one source of epsilon; it needs only
``scipy.special``, so importing the package does not load
``scipy.stats``.  The noise std a trainer draws at is
``gradient_noise_std`` (noise multiplier x clip norm / batch size).
"""

from .accountant import (
    DEFAULT_ORDERS,
    RDPAccountant,
    compute_rdp,
    rdp_gaussian,
    rdp_sampled_gaussian,
    rdp_to_epsilon,
)
from .audit import AuditResult, audit_untouched_rows
from .clipping import (
    clip_dense_per_example,
    clip_factors,
    clipped_average_weights,
    global_norms,
)
from .mechanisms import aggregated_noise_std, gradient_noise_std
from .membership import (
    MembershipAttackResult,
    dp_advantage_bound,
    loss_threshold_attack,
)

__all__ = [
    "DEFAULT_ORDERS",
    "RDPAccountant",
    "compute_rdp",
    "rdp_gaussian",
    "rdp_sampled_gaussian",
    "rdp_to_epsilon",
    "AuditResult",
    "audit_untouched_rows",
    "clip_dense_per_example",
    "clip_factors",
    "clipped_average_weights",
    "global_norms",
    "aggregated_noise_std",
    "gradient_noise_std",
    "MembershipAttackResult",
    "dp_advantage_bound",
    "loss_threshold_attack",
]
