"""Performance model of the sharded embedding engine (``repro.shard``).

Projects per-shard memory footprints and model-update traffic at paper
scale, where the flat arrays of :mod:`repro.shard` cannot be
instantiated.  Two questions it answers:

* **Capacity** — with each shard hosted on its own node (or NUMA
  domain), what model sizes fit?  Figure 13(a)'s 192 GB configuration
  OOMs the paper's single 256 GB host for eager DP-SGD; sharding LazyDP
  across a handful of hosts restores headroom and scales on.
* **Latency** — what does the per-iteration lazy model update cost per
  shard, and what is the parallel-executor critical path?  Each shard
  catches up only the next batch's rows it owns, so per-shard time
  shrinks ~linearly while the routing step (splitting the index stream)
  grows only with the batch's lookups.

The model composes the same op-cost primitives as
:mod:`repro.perfmodel.timeline`, so sharded and flat projections share
one calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..configs import DLRMConfig
from ..data.skew import SkewSpec
from . import ops
from .hardware import DEFAULT_CALIBRATION, HardwareSpec, SoftwareCalibration, paper_system
from .memory import (
    history_table_bytes,
    input_queue_bytes,
    table_bytes,
)
from .timeline import _unique_rows_per_iteration


def per_shard_table_bytes(config: DLRMConfig, num_shards: int) -> int:
    """One shard's slice of the embedding tables (row-balanced plan)."""
    if num_shards < 1:
        raise ValueError("num_shards must be positive")
    return -(-table_bytes(config) // num_shards)   # ceil division


def per_shard_history_bytes(config: DLRMConfig, num_shards: int) -> int:
    """One shard's HistoryTable slice (4 bytes per owned row)."""
    if num_shards < 1:
        raise ValueError("num_shards must be positive")
    return -(-history_table_bytes(config) // num_shards)


def sharded_host_bytes(config: DLRMConfig, batch: int,
                       num_shards: int) -> int:
    """Peak per-host footprint of one shard of LazyDP training.

    Each host holds its table slice, its HistoryTable slice, the full
    routed index stream (worst case: every lookup lands on this shard)
    and the per-batch sparse buffers for its share of the update.
    """
    lookups = batch * config.num_tables * config.lookups_per_table
    sparse_buffers = -(-4 * lookups * config.embedding_dim * 4 // num_shards)
    return (
        per_shard_table_bytes(config, num_shards)
        + per_shard_history_bytes(config, num_shards)
        + 2 * input_queue_bytes(batch, config)
        + sparse_buffers
    )


def fits_when_sharded(config: DLRMConfig, batch: int, num_shards: int,
                      hw: HardwareSpec | None = None) -> bool:
    """Does one shard of the model fit a single host's DRAM?"""
    hw = hw or paper_system()
    return sharded_host_bytes(config, batch, num_shards) <= hw.cpu.dram_capacity


def min_shards_to_fit(config: DLRMConfig, batch: int,
                      hw: HardwareSpec | None = None,
                      max_shards: int = 1024) -> int | None:
    """Smallest shard count whose per-host slice fits DRAM (None if none)."""
    for num_shards in range(1, max_shards + 1):
        if fits_when_sharded(config, batch, num_shards, hw):
            return num_shards
    return None


@dataclass
class ShardUpdateBreakdown:
    """Modelled per-iteration cost of the sharded lazy model update."""

    config_name: str
    batch: int
    num_shards: int
    routing_seconds: float
    per_shard_seconds: float        # one shard's stages 2-6
    stages: dict = field(default_factory=dict)   # per-shard stage split

    @property
    def critical_path_seconds(self) -> float:
        """Parallel executor: routing + the slowest shard."""
        return self.routing_seconds + self.per_shard_seconds

    @property
    def serial_seconds(self) -> float:
        """Serial executor: routing + every shard in turn."""
        return self.routing_seconds + self.num_shards * self.per_shard_seconds


def sharded_update_breakdown(config: DLRMConfig, batch: int,
                             num_shards: int,
                             hw: HardwareSpec | None = None,
                             calibration: SoftwareCalibration | None = None,
                             skew: SkewSpec | None = None
                             ) -> ShardUpdateBreakdown:
    """Model the sharded lazy model update's per-shard latency.

    Assumes balanced shards: each owns ``1/num_shards`` of the expected
    unique rows.  Equal-row ranges are balanced on uniform traces; on
    skewed ones the shard holding the hot head owns more, so this is
    the critical path's lower bound there.  Routing is a streaming pass over the batch's index arrays and
    is not sharded — it is the sequential prologue of every iteration.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be positive")
    hw = hw or paper_system()
    calibration = calibration or DEFAULT_CALIBRATION

    dim = config.embedding_dim
    unique_rows = _unique_rows_per_iteration(config, batch, skew)
    shard_rows = unique_rows / num_shards
    shard_elements = shard_rows * dim

    # Routing: a counting-sort over the *deduped* index arrays (owner
    # lookup, bucketed copy, origin permutation) for the next batch's
    # rows and the gradient's rows — 3 int64 streams each, read+write.
    routing = ops.cpu_stream_seconds(
        2.0 * unique_rows * 6 * 8.0, hw
    ) + calibration.lazydp_dedup_fixed_s if num_shards > 1 else 0.0

    stages = {
        "lazydp_history_read": (
            calibration.lazydp_history_read_fixed_s
            + shard_rows * calibration.lazydp_history_read_s_per_row
        ),
        "lazydp_history_update": (
            calibration.lazydp_history_update_fixed_s
            + shard_rows * calibration.lazydp_history_update_s_per_row
        ),
        "noise_sampling": ops.noise_sampling_seconds(shard_elements, hw),
        "noisy_grad_generation": ops.noisy_grad_generation_seconds(
            2.0 * shard_elements, hw
        ),
        "noisy_grad_update": ops.sparse_row_update_seconds(
            2.0 * shard_rows, dim, hw
        ),
    }
    return ShardUpdateBreakdown(
        config_name=config.name,
        batch=batch,
        num_shards=num_shards,
        routing_seconds=routing,
        per_shard_seconds=sum(stages.values()),
        stages=stages,
    )


def shard_scaling_series(config: DLRMConfig, batch: int,
                         shard_counts: tuple = (1, 2, 4, 8, 16),
                         hw: HardwareSpec | None = None,
                         skew: SkewSpec | None = None) -> dict:
    """Critical-path and serial update seconds per shard count.

    Returns ``{num_shards: (critical_path_s, serial_s)}`` — the sweep
    behind the modelled table of ``benchmarks/run.py plan_sweep``.
    """
    series = {}
    for num_shards in shard_counts:
        breakdown = sharded_update_breakdown(
            config, batch, num_shards, hw=hw, skew=skew
        )
        series[num_shards] = (
            breakdown.critical_path_seconds, breakdown.serial_seconds
        )
    return series
