"""Per-iteration stage timelines for every training algorithm.

``iteration_breakdown`` composes the op-cost primitives into the stage
structure of the paper's figures: forward, per-example backward, per-batch
backward, and the model-update sub-stages (gradient coalescing, noise
sampling, noisy gradient generation, noisy gradient update), plus LazyDP's
bookkeeping overheads and an "else" bucket holding calibrated framework
costs.  All figure benchmarks are thin sweeps over this function.

Algorithms
----------
``sgd``            non-private baseline, sparse updates
``dpsgd_b``        original DP-SGD (materialised per-example grads) [1]
``dpsgd_r``        reweighted DP-SGD [40]
``dpsgd_f``        ghost-norm DP-SGD [13] (the paper's main baseline)
``eana``           accessed-rows-only noise [52]
``lazydp``         this paper, with aggregated noise sampling
``lazydp_no_ans``  this paper, lazy update only (ablation)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..configs import DLRMConfig
from ..data.skew import SkewSpec, expected_unique_rows
from .hardware import DEFAULT_CALIBRATION, HardwareSpec, SoftwareCalibration, paper_system
from . import ops
from .memory import fits_in_host_memory

ALGORITHMS = (
    "sgd", "dpsgd_b", "dpsgd_r", "dpsgd_f",
    "eana", "lazydp", "lazydp_no_ans",
)

PRIVATE_ALGORITHMS = tuple(a for a in ALGORITHMS if a != "sgd")

MODEL_UPDATE_STAGES = (
    "grad_coalescing",
    "noise_sampling",
    "noisy_grad_generation",
    "noisy_grad_update",
    "model_update_else",
    "lazydp_dedup",
    "lazydp_history_read",
    "lazydp_history_update",
)

LAZYDP_OVERHEAD_STAGES = (
    "lazydp_dedup", "lazydp_history_read", "lazydp_history_update",
)


@dataclass
class StageBreakdown:
    """Modelled per-iteration latency, split by pipeline stage."""

    algorithm: str
    config_name: str
    batch: int
    stages: dict = field(default_factory=dict)
    oom: bool = False

    @property
    def total(self) -> float:
        return sum(self.stages.values())

    def stage(self, name: str) -> float:
        return self.stages.get(name, 0.0)

    def model_update_total(self) -> float:
        return sum(self.stages.get(s, 0.0) for s in MODEL_UPDATE_STAGES)

    def lazydp_overhead_total(self) -> float:
        return sum(self.stages.get(s, 0.0) for s in LAZYDP_OVERHEAD_STAGES)

    def grouped(self) -> dict:
        """Coarse grouping used by Figures 3 and 10 (four bar segments)."""
        return {
            "fwd": self.stage("fwd"),
            "bwd_per_example": self.stage("bwd_per_example"),
            "bwd_per_batch": self.stage("bwd_per_batch"),
            "model_update": self.model_update_total() + self.stage("else"),
        }


def _unique_rows_per_iteration(config: DLRMConfig, batch: int,
                               skew: SkewSpec | None) -> float:
    """Expected unique rows gathered per iteration, summed over tables."""
    draws = batch * config.lookups_per_table
    total = 0.0
    for rows in config.table_rows:
        total += expected_unique_rows(rows, draws, skew)
    return total


def iteration_breakdown(algorithm: str, config: DLRMConfig, batch: int,
                        hw: HardwareSpec | None = None,
                        calibration: SoftwareCalibration | None = None,
                        skew: SkewSpec | None = None) -> StageBreakdown:
    """Model one training iteration's latency for ``algorithm``.

    Returns a :class:`StageBreakdown`; if the algorithm's working set
    exceeds host DRAM the breakdown is flagged ``oom`` with zero stages
    (Figure 13a's 192 GB point).
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm: {algorithm}")
    hw = hw or paper_system()
    calibration = calibration or DEFAULT_CALIBRATION

    breakdown = StageBreakdown(algorithm, config.name, batch)
    if not fits_in_host_memory(algorithm, config, batch, hw):
        breakdown.oom = True
        return breakdown

    stages = breakdown.stages
    dim = config.embedding_dim
    table_elements = float(config.total_embedding_params)
    lookups = batch * config.num_tables * config.lookups_per_table
    unique_rows = _unique_rows_per_iteration(config, batch, skew)
    unique_elements = unique_rows * dim

    # ---- forward propagation (shared by every algorithm) ----------------
    stages["fwd"] = (
        ops.embedding_gather_seconds(batch, config, hw)
        + ops.embeddings_pcie_seconds(batch, config, hw)
        + ops.mlp_forward_seconds(batch, config, hw)
    )

    # ---- backward propagation -------------------------------------------
    if algorithm == "sgd":
        stages["bwd_per_batch"] = (
            ops.mlp_backward_seconds(batch, config, hw)
            + ops.embeddings_pcie_seconds(batch, config, hw)
        )
    else:
        # Norm-derivation pass: activation backprop plus variant-specific
        # per-example work (the calibrated clipping-pipeline overheads).
        per_example_extra = {
            "dpsgd_b": calibration.dpsgd_b_extra_per_example_s,
            "dpsgd_r": calibration.dpsgd_r_extra_per_example_s,
        }.get(algorithm, calibration.dpsgd_f_extra_per_example_s)
        norm_pass = ops.mlp_forward_seconds(batch, config, hw)
        if algorithm == "dpsgd_b":
            norm_pass += ops.per_example_grad_traffic_seconds(batch, config, hw)
        elif algorithm == "dpsgd_r":
            norm_pass += ops.mlp_backward_seconds(batch, config, hw)
        stages["bwd_per_example"] = norm_pass + batch * per_example_extra
        stages["bwd_per_batch"] = (
            ops.mlp_backward_seconds(batch, config, hw)
            + ops.embeddings_pcie_seconds(batch, config, hw)
        )

    # ---- model update -----------------------------------------------------
    lookup_bytes = lookups * dim * 4.0
    stages["grad_coalescing"] = ops.cpu_stream_seconds(2.0 * lookup_bytes, hw)

    if algorithm == "sgd":
        stages["noisy_grad_update"] = ops.sparse_row_update_seconds(
            unique_rows, dim, hw
        )
        stages["else"] = (
            calibration.framework_fixed_s
            + batch * calibration.sgd_per_example_s
        )
        return breakdown

    if algorithm in ("dpsgd_b", "dpsgd_r", "dpsgd_f"):
        # Dense noisy update over the full table (paper Figure 4b).
        stages["noise_sampling"] = ops.noise_sampling_seconds(table_elements, hw)
        stages["noisy_grad_generation"] = ops.noisy_grad_generation_seconds(
            table_elements, hw
        )
        stages["noisy_grad_update"] = ops.noisy_grad_update_seconds(
            table_elements, hw
        )
        stages["model_update_else"] = calibration.model_update_fixed_s
        stages["else"] = (
            calibration.framework_fixed_s
            + batch * calibration.sgd_per_example_s
        )
        return breakdown

    if algorithm == "eana":
        stages["noise_sampling"] = ops.noise_sampling_seconds(unique_elements, hw)
        stages["noisy_grad_generation"] = ops.noisy_grad_generation_seconds(
            unique_elements, hw
        )
        stages["noisy_grad_update"] = ops.sparse_row_update_seconds(
            unique_rows, dim, hw
        )
        stages["else"] = (
            calibration.framework_fixed_s
            + batch * calibration.sgd_per_example_s
            + calibration.dp_sparse_fixed_s
        )
        return breakdown

    # ---- LazyDP (with or without ANS) -------------------------------------
    # Catch-up noise covers the *next* batch's unique rows; gradient covers
    # the current batch's.  Both are the same expected size.
    stages["lazydp_dedup"] = (
        calibration.lazydp_dedup_fixed_s
        + lookups * calibration.lazydp_dedup_s_per_lookup
    )
    stages["lazydp_history_read"] = (
        calibration.lazydp_history_read_fixed_s
        + unique_rows * calibration.lazydp_history_read_s_per_row
    )
    stages["lazydp_history_update"] = (
        calibration.lazydp_history_update_fixed_s
        + unique_rows * calibration.lazydp_history_update_s_per_row
    )
    if algorithm == "lazydp":
        noise_elements = unique_elements
    else:
        # Without ANS every deferred draw is materialised individually; in
        # steady state the draw rate approaches one per table element per
        # iteration (a calibrated steady-state factor, SoftwareCalibration).
        noise_elements = min(
            table_elements * calibration.ans_off_steady_state_factor,
            table_elements,
        )
    stages["noise_sampling"] = ops.noise_sampling_seconds(noise_elements, hw)
    stages["noisy_grad_generation"] = ops.noisy_grad_generation_seconds(
        2.0 * unique_elements, hw
    )
    stages["noisy_grad_update"] = ops.sparse_row_update_seconds(
        2.0 * unique_rows, dim, hw
    )
    stages["else"] = (
        calibration.framework_fixed_s
        + batch * calibration.sgd_per_example_s
        + calibration.dp_sparse_fixed_s
    )
    return breakdown


def end_to_end_seconds(algorithm: str, config: DLRMConfig, batch: int,
                       **kwargs) -> float:
    """Convenience: total modelled iteration latency (inf when OOM)."""
    breakdown = iteration_breakdown(algorithm, config, batch, **kwargs)
    if breakdown.oom:
        return float("inf")
    return breakdown.total
