"""Tests for DAC-format ingestion and synthesis."""

import numpy as np
import pytest

from repro import configs
from repro.data import DataLoader, SkewSpec
from repro.data.criteo import (
    NUM_CATEGORICAL_FEATURES,
    CriteoFileDataset,
    fnv1a_64,
    hash_to_row,
    write_synthetic_criteo,
)

from repro.testing import max_param_diff


@pytest.fixture
def config():
    return configs.DLRMConfig(
        name="criteo-test",
        dense_features=13,
        bottom_mlp=(16, 8),
        embedding_dim=8,
        table_rows=(64,) * 26,
        lookups_per_table=1,
        top_mlp=(16, 1),
    )


@pytest.fixture
def criteo_file(tmp_path):
    path = tmp_path / "clicks.tsv"
    write_synthetic_criteo(path, num_examples=200, seed=7)
    return path


class TestHashing:
    def test_fnv_deterministic(self):
        assert fnv1a_64("deadbeef") == fnv1a_64("deadbeef")

    def test_fnv_known_vector(self):
        """FNV-1a 64 of empty string is the offset basis."""
        assert fnv1a_64("") == 0xCBF29CE484222325

    def test_fnv_distinct(self):
        hashes = {fnv1a_64(f"{i:08x}") for i in range(2000)}
        assert len(hashes) == 2000

    def test_hash_to_row_in_range(self):
        for token in ("a", "ffffffff", "00000000"):
            assert 0 <= hash_to_row(token, 100) < 100

    def test_hash_to_row_spreads(self):
        rows = [hash_to_row(f"{i:08x}", 50) for i in range(5000)]
        counts = np.bincount(rows, minlength=50)
        assert counts.min() > 0
        assert counts.max() < 3 * counts.mean()

    def test_rejects_empty_table(self):
        with pytest.raises(ValueError):
            hash_to_row("x", 0)


class TestSynthesis:
    def test_file_format(self, criteo_file):
        lines = criteo_file.read_text().splitlines()
        assert len(lines) == 200
        fields = lines[0].split("\t")
        assert len(fields) == 1 + 13 + 26
        assert fields[0] in ("0", "1")

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_synthetic_criteo(a, 50, seed=3)
        write_synthetic_criteo(b, 50, seed=3)
        assert a.read_text() == b.read_text()

    def test_missing_values_present(self, tmp_path):
        path = tmp_path / "m.tsv"
        write_synthetic_criteo(path, 300, seed=1, missing_rate=0.3)
        assert "\t\t" in path.read_text()

    def test_skewed_vocabulary(self, tmp_path):
        path = tmp_path / "s.tsv"
        write_synthetic_criteo(
            path, 1000, seed=2,
            skew=SkewSpec(kind="zipf", exponent=1.5),
        )
        tokens = [line.split("\t")[14] for line in
                  path.read_text().splitlines()]
        tokens = [t for t in tokens if t]
        top_share = max(
            np.unique(tokens, return_counts=True)[1]
        ) / len(tokens)
        assert top_share > 0.1  # a hot token dominates

    def test_rejects_bad_args(self, tmp_path):
        with pytest.raises(ValueError):
            write_synthetic_criteo(tmp_path / "x.tsv", 0)
        with pytest.raises(ValueError):
            write_synthetic_criteo(tmp_path / "x.tsv", 10, missing_rate=1.0)
        with pytest.raises(ValueError):
            write_synthetic_criteo(tmp_path / "x.tsv", 10,
                                   vocabulary_sizes=[10] * 3)


class TestIngestion:
    def test_shapes(self, criteo_file, config):
        dataset = CriteoFileDataset(criteo_file, config)
        assert len(dataset) == 200
        batch = dataset.batch(np.arange(32))
        assert batch.dense.shape == (32, 13)
        assert batch.sparse.shape == (32, 26, 1)
        assert set(np.unique(batch.labels)).issubset({0.0, 1.0})

    def test_indices_within_tables(self, criteo_file, config):
        dataset = CriteoFileDataset(criteo_file, config)
        batch = dataset.batch(np.arange(len(dataset)))
        assert batch.sparse.min() >= 0
        assert batch.sparse.max() < 64

    def test_dense_log_transform_nonnegative(self, criteo_file, config):
        dataset = CriteoFileDataset(criteo_file, config)
        assert dataset.dense.min() >= 0.0

    def test_rejects_multivalued_config(self, criteo_file):
        config = configs.tiny_dlrm(num_tables=3, rows=64, dim=8, lookups=2)
        with pytest.raises(ValueError):
            CriteoFileDataset(criteo_file, config)

    def test_rejects_too_many_tables(self, criteo_file):
        config = configs.DLRMConfig(
            name="too-many", dense_features=13, bottom_mlp=(8, 4),
            embedding_dim=4, table_rows=(16,) * 30, lookups_per_table=1,
            top_mlp=(8, 1),
        )
        with pytest.raises(ValueError):
            CriteoFileDataset(criteo_file, config)

    def test_rejects_malformed_file(self, tmp_path, config):
        path = tmp_path / "bad.tsv"
        path.write_text("1\t2\t3\n")
        with pytest.raises(ValueError, match="expected"):
            CriteoFileDataset(path, config)

    def test_rejects_empty_file(self, tmp_path, config):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(ValueError, match="no examples"):
            CriteoFileDataset(path, config)

    def test_fewer_tables_than_columns_ok(self, criteo_file):
        config = configs.DLRMConfig(
            name="narrow", dense_features=4, bottom_mlp=(8, 4),
            embedding_dim=4, table_rows=(32,) * 5, lookups_per_table=1,
            top_mlp=(8, 1),
        )
        dataset = CriteoFileDataset(criteo_file, config)
        batch = dataset.batch(np.arange(8))
        assert batch.sparse.shape == (8, 5, 1)
        assert batch.dense.shape == (8, 4)


class TestEndToEndOnFiles:
    def test_training_pipeline_runs(self, criteo_file, config):
        """DAC file -> DataLoader -> LazyDP training, end to end."""
        from repro.session import make_trainer
        from repro.nn import DLRM
        from repro.train import DPConfig

        dataset = CriteoFileDataset(criteo_file, config)
        loader = DataLoader(dataset, batch_size=32, num_batches=4, seed=1)
        model = DLRM(config, seed=2)
        trainer = make_trainer("lazydp", model, DPConfig(), noise_seed=3)
        result = trainer.fit(loader)
        assert result.iterations == 4
        assert np.all(np.isfinite(result.mean_losses))

    def test_lazydp_equivalence_on_file_data(self, criteo_file, config):
        """The exact-equivalence guarantee holds on real-format data too."""
        from repro.session import make_trainer
        from repro.nn import DLRM
        from repro.train import DPConfig

        def run(algorithm):
            dataset = CriteoFileDataset(criteo_file, config)
            loader = DataLoader(dataset, batch_size=32, num_batches=5,
                                seed=1)
            model = DLRM(config, seed=2)
            trainer = make_trainer(algorithm, model, DPConfig(),
                                   noise_seed=3)
            trainer.fit(loader)
            return model

        assert max_param_diff(run("dpsgd_f"), run("lazydp_no_ans")) < 1e-9
