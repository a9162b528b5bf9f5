"""Gradient-staleness policies for the async trainer.

With multiple iterations in flight, the question is how stale the
embedding slabs a forward pass reads may be relative to the applies
still outstanding.  Two policies:

* ``strict`` — a forward pass never reads a slab with an outstanding
  apply: before step ``t`` begins, every apply through ``t - 1`` must
  have landed.  Training is bitwise-equal to the serial schedule; the
  async engine still overlaps the apply of iteration ``t - 1`` with the
  inter-step bookkeeping of ``t`` and keeps the plan/sample prefetch
  runway of ``repro.pipeline``.
* ``bounded:k`` — forward passes may read slabs missing up to ``k``
  trailing applies: before step ``t``, only applies through
  ``t - 1 - k`` are awaited.  Losses and gradients may differ from the
  serial schedule (that is the point — EANA-style systems make the same
  trade), but the deferred-noise ledger stays exact: the per-row
  :class:`VersionVector <repro.lazydp.ledger.VersionVector>` proves
  every noise span is applied exactly once regardless of interleaving.

``bounded:0`` is, by construction, the same wait schedule as
``strict``; the spelling exists so sweeps over ``k`` include the
synchronous endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Recognised policy modes; :meth:`StalenessPolicy.parse` is the one
#: reader of the staleness word (``ExecutionPlan`` validates with it).
STALENESS_MODES = ("strict", "bounded")


@dataclass(frozen=True)
class StalenessPolicy:
    """How far embedding reads may trail outstanding applies."""

    mode: str
    bound: int = 0

    def __post_init__(self):
        if self.mode not in STALENESS_MODES:
            raise ValueError(
                f"unknown staleness mode: {self.mode!r} "
                f"(choose from {STALENESS_MODES})"
            )
        if self.bound < 0:
            raise ValueError("staleness bound must be non-negative")
        if self.mode == "strict" and self.bound != 0:
            raise ValueError("strict staleness admits no bound")

    @property
    def allowed_lag(self) -> int:
        """How many trailing applies a forward pass may miss."""
        return self.bound if self.mode == "bounded" else 0

    @property
    def is_strict(self) -> bool:
        """True when reads are never stale (bitwise-serial schedules)."""
        return self.allowed_lag == 0

    def describe(self) -> str:
        if self.mode == "strict":
            return "strict"
        return f"bounded:{self.bound}"

    @classmethod
    def parse(cls, spec) -> "StalenessPolicy":
        """Build a policy from ``"strict"`` / ``"bounded"`` /
        ``"bounded:<k>"`` (or pass an instance through)."""
        if isinstance(spec, cls):
            return spec
        mode, _, bound = str(spec).partition(":")
        if not bound:
            return cls(mode, 1 if mode == "bounded" else 0)
        try:
            parsed = int(bound)
        except ValueError:
            raise ValueError(
                f"staleness bound must be an integer, got {bound!r}"
            ) from None
        return cls(mode, parsed)
