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

from dataclasses import dataclass, replace


FP32_BYTES = 4


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
