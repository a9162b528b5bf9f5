"""Model configurations used throughout the paper's evaluation.

Two kinds of configuration live here:

* **Runnable geometries** — scaled-down row counts that train in memory with
  numpy; used by tests, examples and the "measured" benchmark mode.
* **Paper-scale geometries** — the exact 24 GB-192 GB sizes of Sections 4/6/7;
  too large to instantiate, these parameterise the analytical performance
  model (``repro.perfmodel``).

The default model follows the paper's Section 6 benchmark: MLPerf v2.1 DLRM
with 8 MLP layers and 26 embedding tables of 128-dim vectors, 96 GB total
(~7.2 M rows per table in fp32), one lookup per table, batch 2048, with
access indices drawn uniformly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace


FP32_BYTES = 4


def _config_from_dict(cls, data: dict):
    """Shared ``from_dict`` for the engine configs: reject unknown keys
    with a message naming the accepted ones, let the dataclass
    ``__post_init__`` validate values."""
    if not isinstance(data, dict):
        raise ValueError(
            f"{cls.__name__} expects a mapping, got {type(data).__name__}"
        )
    known = {field.name for field in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} keys: {', '.join(unknown)} "
            f"(accepted: {', '.join(sorted(known))})"
        )
    return cls(**data)

# Paper defaults (Section 6).
PAPER_NUM_TABLES = 26
PAPER_EMBEDDING_DIM = 128
PAPER_DEFAULT_MODEL_BYTES = 96 * 10**9
PAPER_DEFAULT_BATCH = 2048
PAPER_DEFAULT_LOOKUPS = 1
PAPER_MLP_BOTTOM = (512, 256, 128)
PAPER_MLP_TOP = (1024, 1024, 512, 256, 1)
PAPER_DENSE_FEATURES = 13


@dataclass(frozen=True)
class DLRMConfig:
    """Geometry of a DLRM model (paper Figure 1).

    ``bottom_mlp`` hidden sizes must end at ``embedding_dim`` so the dense
    vector can join the feature interaction; ``top_mlp`` must end at 1
    (the CTR logit).
    """

    name: str
    dense_features: int
    bottom_mlp: tuple
    embedding_dim: int
    table_rows: tuple            # rows per embedding table
    lookups_per_table: int
    top_mlp: tuple

    def __post_init__(self):
        if self.bottom_mlp[-1] != self.embedding_dim:
            raise ValueError("bottom MLP must end at embedding_dim")
        if self.top_mlp[-1] != 1:
            raise ValueError("top MLP must end at 1 (logit)")
        if self.lookups_per_table < 1:
            raise ValueError("lookups_per_table must be >= 1")
        if any(rows < 1 for rows in self.table_rows):
            raise ValueError("every table needs at least one row")

    # -- derived geometry ------------------------------------------------
    @property
    def num_tables(self) -> int:
        return len(self.table_rows)

    @property
    def total_embedding_rows(self) -> int:
        return int(sum(self.table_rows))

    @property
    def total_embedding_params(self) -> int:
        return self.total_embedding_rows * self.embedding_dim

    def embedding_bytes(self, bytes_per_param: int = FP32_BYTES) -> int:
        return self.total_embedding_params * bytes_per_param

    @property
    def interaction_features(self) -> int:
        """Bottom-MLP vector + one pooled vector per table."""
        return self.num_tables + 1

    @property
    def interaction_pairs(self) -> int:
        features = self.interaction_features
        return features * (features - 1) // 2

    @property
    def top_mlp_input_dim(self) -> int:
        return self.embedding_dim + self.interaction_pairs

    def mlp_layer_dims(self) -> list:
        """All (in, out) pairs of the dense layers, bottom then top."""
        dims = []
        previous = self.dense_features
        for width in self.bottom_mlp:
            dims.append((previous, width))
            previous = width
        previous = self.top_mlp_input_dim
        for width in self.top_mlp:
            dims.append((previous, width))
            previous = width
        return dims

    @property
    def mlp_params(self) -> int:
        return int(
            sum(fan_in * fan_out + fan_out for fan_in, fan_out in self.mlp_layer_dims())
        )

    def scaled_tables(self, factor: float, name: str | None = None) -> "DLRMConfig":
        """Scale every table's row count (the paper's 10x/100x/1000x shrink)."""
        rows = tuple(max(1, int(round(r * factor))) for r in self.table_rows)
        return replace(self, table_rows=rows, name=name or f"{self.name}-x{factor:g}")


#: Partition strategies understood by ``repro.shard`` (kept here so config
#: validation does not import the shard package).
SHARD_PARTITIONS = ("row_range", "frequency", "hash")


@dataclass(frozen=True)
class ShardConfig:
    """How the embedding engine is sharded (``repro.shard``).

    ``num_shards = 1`` is the flat configuration; anything higher
    partitions every table with ``partition``.  *How* the shard tasks
    run is the plan's ``backend`` axis (``backend="threads:4"``,
    ``backend="process"``), not a field here.
    """

    num_shards: int = 1
    partition: str = "row_range"

    def __post_init__(self):
        if self.num_shards < 1:
            raise ValueError("num_shards must be positive")
        if self.partition not in SHARD_PARTITIONS:
            raise ValueError(
                f"unknown partition strategy: {self.partition!r} "
                f"(choose from {SHARD_PARTITIONS})"
            )

    @property
    def is_sharded(self) -> bool:
        return self.num_shards > 1

    def to_dict(self) -> dict:
        """JSON-serializable form (``ExecutionPlan.to_dict`` nests it)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ShardConfig":
        return _config_from_dict(cls, data)


@dataclass(frozen=True)
class PipelineConfig:
    """How the training engine pipelines noise prefetch (``repro.pipeline``).

    ``enabled = False`` is the serial configuration (catch-up noise
    computed inline on the critical path).  When enabled, a background
    worker precomputes catch-up noise ``prefetch_depth`` iterations
    ahead into a double-buffered staging area; ``prefetch_depth`` also
    sets the input queue's lookahead depth (the paper's Algorithm 1
    queue is depth 1).
    """

    enabled: bool = False
    prefetch_depth: int = 2

    def __post_init__(self):
        if self.prefetch_depth < 1:
            raise ValueError("prefetch_depth must be at least 1")

    def to_dict(self) -> dict:
        """JSON-serializable form (``ExecutionPlan.to_dict`` nests it)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        return _config_from_dict(cls, data)


#: Gradient-staleness modes understood by ``repro.async_`` (kept here so
#: config validation does not import the async package).
ASYNC_STALENESS_MODES = ("strict", "bounded")


@dataclass(frozen=True)
class AsyncConfig:
    """How the training engine runs iterations in flight (``repro.async_``).

    ``enabled = False`` is the synchronous configuration (the apply
    phase runs inline on the trainer thread).  When enabled, up to
    ``max_in_flight`` iteration applies may be outstanding on the
    background apply worker while the trainer proceeds; ``staleness``
    selects the read schedule (``"strict"`` = bitwise-serial,
    ``"bounded"`` / ``"bounded:<k>"`` = slab reads may trail up to
    ``k`` applies).
    """

    enabled: bool = False
    max_in_flight: int = 2
    staleness: str = "strict"

    def __post_init__(self):
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")
        mode, _, bound = str(self.staleness).partition(":")
        if mode not in ASYNC_STALENESS_MODES:
            raise ValueError(
                f"unknown staleness mode: {mode!r} "
                f"(choose from {ASYNC_STALENESS_MODES})"
            )
        if bound:
            try:
                parsed = int(bound)
            except ValueError:
                raise ValueError(
                    f"staleness bound must be an integer, got {bound!r}"
                ) from None
            if parsed < 0:
                raise ValueError("staleness bound must be non-negative")
            if mode == "strict":
                raise ValueError("strict staleness admits no bound")

    def to_dict(self) -> dict:
        """JSON-serializable form (``ExecutionPlan.to_dict`` nests it)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "AsyncConfig":
        return _config_from_dict(cls, data)


#: Observability modes the ``obs=`` plan axis understands
#: (``trace``/``metrics``, joined with ``+`` for both).
OBS_MODES = ("trace", "metrics")


@dataclass(frozen=True)
class ObservabilityConfig:
    """What the run's observability hub records (``repro.obs``).

    ``metrics`` populates the in-process :class:`repro.obs.
    MetricsRegistry` (engine gauges, counters, histograms);
    ``trace`` additionally records thread-aware spans for a Chrome
    trace-event export.  At least one must be on — a config with both
    off is the ``obs=None`` axis, spelled ``None`` on the plan like
    every other disabled axis.
    """

    trace: bool = False
    metrics: bool = True

    def __post_init__(self):
        if not (self.trace or self.metrics):
            raise ValueError(
                "observability axis is present but records nothing; "
                "enable trace and/or metrics, or use obs=None"
            )

    def modes(self) -> tuple:
        """The enabled modes, in canonical (spec) order."""
        return tuple(
            mode for mode in OBS_MODES if getattr(self, mode)
        )

    def to_dict(self) -> dict:
        """JSON-serializable form (``ExecutionPlan.to_dict`` nests it)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ObservabilityConfig":
        return _config_from_dict(cls, data)


@dataclass(frozen=True)
class ServeConfig:
    """How a session's serving handles are fronted (``repro.serve``).

    ``cache_rows`` sizes the :class:`repro.serve.HotRowCache` put in
    front of each serving engine's memo; ``admission`` is the
    slow-path serve count a row needs before it may be admitted (the
    TinyLFU-style skew filter).  A session without the axis serves
    uncached — spelled ``serve=None`` on the plan like every other
    disabled axis.
    """

    cache_rows: int = 1024
    admission: int = 2

    def __post_init__(self):
        if self.cache_rows < 1:
            raise ValueError("serve axis requires a positive cache_rows")
        if self.admission < 1:
            raise ValueError("serve admission threshold must be positive")

    def to_dict(self) -> dict:
        """JSON-serializable form (``ExecutionPlan.to_dict`` nests it)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ServeConfig":
        return _config_from_dict(cls, data)


def rows_for_model_bytes(model_bytes: int, num_tables: int = PAPER_NUM_TABLES,
                         dim: int = PAPER_EMBEDDING_DIM,
                         bytes_per_param: int = FP32_BYTES) -> int:
    """Rows per table so that all tables together occupy ``model_bytes``."""
    return int(model_bytes // (num_tables * dim * bytes_per_param))


def mlperf_dlrm(model_bytes: int = PAPER_DEFAULT_MODEL_BYTES,
                lookups_per_table: int = PAPER_DEFAULT_LOOKUPS,
                name: str | None = None) -> DLRMConfig:
    """The paper's default MLPerf DLRM geometry at a chosen capacity.

    ``model_bytes`` only changes row counts, mirroring how the paper scales
    its 96 GB default down to 96 MB (Section 4) and up to 192 GB
    (Figure 13a).
    """
    rows = rows_for_model_bytes(model_bytes)
    gigabytes = model_bytes / 1e9
    return DLRMConfig(
        name=name or f"mlperf-dlrm-{gigabytes:g}GB",
        dense_features=PAPER_DENSE_FEATURES,
        bottom_mlp=PAPER_MLP_BOTTOM,
        embedding_dim=PAPER_EMBEDDING_DIM,
        table_rows=(rows,) * PAPER_NUM_TABLES,
        lookups_per_table=lookups_per_table,
        top_mlp=PAPER_MLP_TOP,
    )


def tiny_dlrm(num_tables: int = 3, rows: int = 64, dim: int = 8,
              lookups: int = 2, name: str = "tiny-dlrm") -> DLRMConfig:
    """A deliberately small geometry for unit tests and quick examples."""
    return DLRMConfig(
        name=name,
        dense_features=4,
        bottom_mlp=(8, dim),
        embedding_dim=dim,
        table_rows=(rows,) * num_tables,
        lookups_per_table=lookups,
        top_mlp=(16, 1),
    )


def small_dlrm(rows: int = 4096, name: str = "small-dlrm") -> DLRMConfig:
    """Mid-size runnable geometry for the measured benchmark mode."""
    return DLRMConfig(
        name=name,
        dense_features=13,
        bottom_mlp=(64, 32),
        embedding_dim=32,
        table_rows=(rows,) * 8,
        lookups_per_table=1,
        top_mlp=(64, 32, 1),
    )


# ---------------------------------------------------------------------------
# DeepRecSys-style configurations (paper Figure 13c; Gupta et al. [26, 27]).
#
# The paper reports speedups for three alternative DLRM classes, RMC1-RMC3,
# without restating their hyperparameters.  Following DeepRecSys's published
# characterisation we keep their defining shapes — RMC1: few small tables
# with moderate pooling; RMC2: many-lookup, embedding-dominated; RMC3: few
# but very large tables with small pooling — and size them so the embedding
# capacity ordering (RMC3 >> RMC1 > RMC2-per-lookup cost) matches.  These
# are approximations: Fig. 13(c)'s bands (benchmarks/cases/figures.py)
# allow 40-80 % against the paper's bars for that reason.
# ---------------------------------------------------------------------------

def rmc1(model_bytes: int = 36 * 10**9) -> DLRMConfig:
    """RMC1: compact MLPs, 10 tables, moderate pooling."""
    dim = 64
    num_tables = 10
    rows = int(model_bytes // (num_tables * dim * FP32_BYTES))
    return DLRMConfig(
        name="rmc1",
        dense_features=13,
        bottom_mlp=(128, 64, dim),
        embedding_dim=dim,
        table_rows=(rows,) * num_tables,
        lookups_per_table=4,
        top_mlp=(256, 64, 1),
    )


def rmc2(model_bytes: int = 60 * 10**9) -> DLRMConfig:
    """RMC2: embedding-heavy with large pooling (many lookups per table)."""
    dim = 64
    num_tables = 40
    rows = int(model_bytes // (num_tables * dim * FP32_BYTES))
    return DLRMConfig(
        name="rmc2",
        dense_features=13,
        bottom_mlp=(256, 128, dim),
        embedding_dim=dim,
        table_rows=(rows,) * num_tables,
        lookups_per_table=16,
        top_mlp=(512, 128, 1),
    )


def rmc3(model_bytes: int = 104 * 10**9) -> DLRMConfig:
    """RMC3: few, very large tables with single lookups."""
    dim = 128
    num_tables = 10
    rows = int(model_bytes // (num_tables * dim * FP32_BYTES))
    return DLRMConfig(
        name="rmc3",
        dense_features=13,
        bottom_mlp=(512, 256, dim),
        embedding_dim=dim,
        table_rows=(rows,) * num_tables,
        lookups_per_table=1,
        top_mlp=(1024, 512, 1),
    )


# Table-size sweep of the characterisation study (Section 4, Figure 3).
CHARACTERIZATION_MODEL_BYTES = (
    96 * 10**6,      # 96 MB   (1000x down)
    960 * 10**6,     # 960 MB  (100x down)
    int(9.6 * 10**9),  # 9.6 GB (10x down)
    96 * 10**9,      # 96 GB   (default)
)

# Sensitivity sweep of Figure 13(a).
SENSITIVITY_MODEL_BYTES = (
    24 * 10**9,
    48 * 10**9,
    96 * 10**9,
    192 * 10**9,
)

# Figure 13(b) pooling sweep.
SENSITIVITY_POOLING = (1, 10, 20, 30)

# Figures 10/12/14 batch sweep.
EVALUATION_BATCH_SIZES = (1024, 2048, 4096)
