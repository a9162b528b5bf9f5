"""Partitioning embedding tables into shards.

A :class:`PartitionPlan` cuts every embedding table into ``num_shards``
contiguous row ranges: shard ``s`` of a table owns rows ``[bounds[s],
bounds[s + 1])``.  A shard's parameters, history and ledger are then
slice views of the table's one slab, one HistoryTable and one
VersionVector, and the plan itself is ``num_shards + 1`` integers per
table — no per-row map.  Two strategies place the cut points:

* ``"row_range"`` — equal-row ranges.  The default: with the paper's
  uniform trace every shard sees the same expected load.
* ``"frequency"`` — ranges whose *cut points* are chosen so each shard
  carries an equal share of the observed (or modelled) access mass.
  With skewed traces (paper Figure 13d) equal-row ranges would leave
  the shard owning the hot head doing nearly all the catch-up work;
  frequency cuts rebalance it while keeping ranges contiguous.

The cut points are deterministic given (strategy, num_shards, weights),
so two processes building the same plan agree on ownership — the
property a future multi-node deployment needs.  With more shards than
rows the trailing shards own empty ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..configs import DLRMConfig
from ..data.skew import SkewSpec, zipf_weights

#: The strategies the planner places cut points by (the plan's
#: ``partition`` key accepts exactly these).
PARTITION_STRATEGIES = ("row_range", "frequency")


@dataclass(frozen=True, eq=False)  # eq would compare ``bounds`` elementwise
class TablePartition:
    """One table's cut into contiguous shard ranges.

    ``bounds`` holds ``num_shards + 1`` non-decreasing row ids from 0 to
    ``num_rows``; shard ``s`` owns ``[bounds[s], bounds[s + 1])``.
    ``weights_balanced`` is the heaviest shard's access mass over the
    mean (1.0 is perfectly balanced).
    """

    table_index: int
    num_rows: int
    bounds: np.ndarray  # (num_shards + 1,) int64
    weights_balanced: float = 1.0

    @property
    def num_shards(self) -> int:
        return int(self.bounds.size) - 1

    def shard_range(self, shard: int) -> tuple:
        """``(lo, hi)``: the rows shard ``shard`` owns."""
        return int(self.bounds[shard]), int(self.bounds[shard + 1])

    def shard_size(self, shard: int) -> int:
        lo, hi = self.shard_range(shard)
        return hi - lo


@dataclass(frozen=True)
class PartitionPlan:
    """Row -> shard assignment for every embedding table of a model."""

    num_shards: int
    strategy: str
    tables: tuple = field(default_factory=tuple)  # TablePartition per table

    @property
    def num_tables(self) -> int:
        return len(self.tables)

    def table(self, index: int) -> TablePartition:
        return self.tables[index]

    def describe(self) -> str:
        lines = [f"PartitionPlan: {self.num_shards} shards, strategy={self.strategy}"]
        for part in self.tables:
            sizes = np.diff(part.bounds).tolist()
            lines.append(
                f"  table {part.table_index}: {part.num_rows} rows -> "
                f"{sizes} (imbalance {part.weights_balanced:.2f}x)"
            )
        return "\n".join(lines)


def _partition(
    table_index: int, bounds, num_shards: int, masses: np.ndarray
) -> TablePartition:
    """The partition cut at ``bounds`` (one range per shard that gets
    rows), padded with empty ranges at the end up to ``num_shards``."""
    bounds = np.asarray(bounds, dtype=np.int64)
    num_rows = int(bounds[-1])
    mean = masses.mean()
    imbalance = float(masses.max() / mean) if mean > 0 else 1.0
    padding = num_shards + 1 - bounds.size
    return TablePartition(
        table_index=table_index,
        num_rows=num_rows,
        bounds=np.pad(bounds, (0, padding), constant_values=num_rows),
        weights_balanced=imbalance,
    )


def partition_row_range(
    table_index: int, num_rows: int, num_shards: int
) -> TablePartition:
    """Contiguous equal-row ranges (sizes differ by at most one row)."""
    shards = min(num_shards, num_rows)
    bounds = np.linspace(0, num_rows, shards + 1).round().astype(np.int64)
    return _partition(table_index, bounds, num_shards, np.diff(bounds))


def partition_frequency(
    table_index: int, weights: np.ndarray, num_shards: int
) -> TablePartition:
    """Contiguous ranges cut at equal access-mass quantiles.

    ``weights[r]`` is row ``r``'s observed (or modelled) access frequency;
    cut points are placed so every shard carries roughly ``total / S`` of
    the mass.  Rows that were never accessed still belong to some shard —
    they cost nothing per iteration and only matter at the terminal flush.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(weights < 0):
        raise ValueError("access weights must be non-negative")
    num_rows = weights.shape[0]
    total = weights.sum()
    if total <= 0:
        return partition_row_range(table_index, num_rows, num_shards)
    shards = min(num_shards, num_rows)
    cumulative = np.cumsum(weights)
    # Adaptive greedy min-max cuts: each shard targets an equal share of
    # the *remaining* mass, so a hot head row is isolated into its own
    # shard and the tail is rebalanced across the rest (a fixed-quantile
    # cut would instead leave the following shards empty).  Every shard
    # keeps at least one row while rows remain.
    bounds = [0]
    consumed = 0.0
    for s in range(shards - 1):
        start = bounds[-1]
        remaining_shards = shards - s
        target = consumed + (total - consumed) / remaining_shards
        cut = int(np.searchsorted(cumulative, target, side="left"))
        # Include the boundary row when that lands closer to the target.
        if cut < num_rows and (
            cut < start + 1
            or (cumulative[cut] - target) <= (target - cumulative[cut - 1])
        ):
            cut += 1
        cut = max(cut, start + 1)  # non-empty shard
        cut = min(cut, num_rows - (remaining_shards - 1))  # leave rows over
        bounds.append(cut)
        consumed = cumulative[cut - 1]
    bounds.append(num_rows)
    bounds = np.maximum.accumulate(np.asarray(bounds, dtype=np.int64))
    cumulative = np.concatenate(([0.0], cumulative))
    masses = cumulative[bounds[1:]] - cumulative[bounds[:-1]]
    return _partition(table_index, bounds, num_shards, masses)


def access_weights_from_trace(per_iteration_rows: list, num_rows: int) -> np.ndarray:
    """Per-row access counts from a raw lookup trace.

    ``per_iteration_rows`` is the output of
    :func:`repro.data.tracestats.collect_trace`; duplicates count — the
    catch-up cost a shard pays tracks access *mass*, not footprint.
    """
    counts = np.zeros(num_rows, dtype=np.float64)
    for rows in per_iteration_rows:
        np.add.at(counts, np.asarray(rows, dtype=np.int64), 1.0)
    return counts


def access_weights_from_skew(num_rows: int, skew: SkewSpec | None) -> np.ndarray:
    """Modelled per-row access weights when no trace is available.

    Uniform traces weigh every row equally; Zipf traces use the calibrated
    popularity curve of :mod:`repro.data.skew` (rows are popularity-ranked
    in the synthetic generator, so rank == row id).
    """
    if skew is None or skew.kind == "uniform":
        return np.ones(num_rows, dtype=np.float64)
    return zipf_weights(num_rows, skew.exponent)


def build_partition_plan(
    config: DLRMConfig,
    num_shards: int,
    strategy: str = "row_range",
    weights_per_table: list | None = None,
    skew: SkewSpec | None = None,
) -> PartitionPlan:
    """A :class:`PartitionPlan` for every table of ``config``.

    ``weights_per_table`` (one array per table, e.g. from
    :func:`access_weights_from_trace`) feeds the ``"frequency"`` strategy;
    without it, ``skew`` supplies modelled weights via
    :func:`access_weights_from_skew`.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be positive")
    if strategy not in PARTITION_STRATEGIES:
        raise ValueError(
            f"unknown partition strategy: {strategy!r} "
            f"(choose from {PARTITION_STRATEGIES})"
        )
    tables = []
    for t, num_rows in enumerate(config.table_rows):
        if strategy == "row_range":
            part = partition_row_range(t, num_rows, num_shards)
        else:
            if weights_per_table is not None:
                weights = np.asarray(weights_per_table[t], dtype=np.float64)
                if weights.shape[0] != num_rows:
                    raise ValueError(
                        f"table {t}: weights cover {weights.shape[0]} rows, "
                        f"table has {num_rows}"
                    )
            else:
                weights = access_weights_from_skew(num_rows, skew)
            part = partition_frequency(t, weights, num_shards)
        tables.append(part)
    return PartitionPlan(
        num_shards=num_shards, strategy=strategy, tables=tuple(tables)
    )


def plan_from_loader(
    config: DLRMConfig, num_shards: int, loader, strategy: str = "frequency"
) -> PartitionPlan:
    """Build a plan balanced by the access frequencies a loader produces.

    Walks the loader once per table via
    :func:`repro.data.tracestats.collect_trace`.  Intended for offline
    planning — the trace pass costs one epoch of index generation, no
    model work.
    """
    from ..data.tracestats import collect_trace

    weights = [
        access_weights_from_trace(collect_trace(loader, t), config.table_rows[t])
        for t in range(config.num_tables)
    ]
    return build_partition_plan(
        config, num_shards, strategy=strategy, weights_per_table=weights
    )
