"""Tests for the eager DP-SGD family: B == R == F and DP semantics."""

import numpy as np
import pytest

from repro import configs
from repro.nn import DLRM
from repro.train import DPConfig

from repro.testing import max_param_diff, train_algorithm


@pytest.fixture
def config():
    return configs.tiny_dlrm(num_tables=2, rows=48, dim=8, lookups=2)


class TestVariantEquivalence:
    """Section 2.5: R and F are performance rewrites of B, not new algorithms."""

    def test_b_equals_r(self, config):
        model_b, _, _ = train_algorithm("dpsgd_b", config, num_batches=6)
        model_r, _, _ = train_algorithm("dpsgd_r", config, num_batches=6)
        assert max_param_diff(model_b, model_r) < 1e-10

    def test_b_equals_f(self, config):
        model_b, _, _ = train_algorithm("dpsgd_b", config, num_batches=6)
        model_f, _, _ = train_algorithm("dpsgd_f", config, num_batches=6)
        assert max_param_diff(model_b, model_f) < 1e-10

    def test_equivalence_with_pooling(self):
        config = configs.tiny_dlrm(num_tables=2, rows=32, dim=4, lookups=5)
        model_b, _, _ = train_algorithm("dpsgd_b", config, num_batches=4)
        model_f, _, _ = train_algorithm("dpsgd_f", config, num_batches=4)
        assert max_param_diff(model_b, model_f) < 1e-10

    def test_equivalence_under_poisson_sampling(self, config):
        model_b, _, _ = train_algorithm(
            "dpsgd_b", config, num_batches=5, sampling="poisson"
        )
        model_f, _, _ = train_algorithm(
            "dpsgd_f", config, num_batches=5, sampling="poisson"
        )
        assert max_param_diff(model_b, model_f) < 1e-10


class TestDPSemantics:
    def test_every_embedding_row_gets_noise(self, config):
        """The dense noisy update touches rows no example accessed."""
        model, _, _ = train_algorithm("dpsgd_f", config, num_batches=1)
        reference = DLRM(config, seed=7)
        for t, bag in enumerate(model.embeddings):
            moved = ~np.all(
                bag.table.data == reference.embeddings[t].table.data, axis=1
            )
            assert np.all(moved)

    def test_zero_noise_matches_clipped_sgd_direction(self, config):
        """With sigma=0 the update is pure clipped averaged gradient."""
        dp = DPConfig(noise_multiplier=0.0, max_grad_norm=1e9,
                      learning_rate=0.05)
        model_dp, _, _ = train_algorithm(
            "dpsgd_f", config, num_batches=3, dp=dp
        )
        model_sgd, _, _ = train_algorithm(
            "sgd", config, num_batches=3, dp=dp
        )
        # Huge clipping bound + zero noise: DP-SGD degenerates to SGD.
        assert max_param_diff(model_dp, model_sgd) < 1e-10

    def test_clipping_bounds_example_influence(self, config):
        """Swap one example; with clipping the parameter shift is bounded.

        The per-iteration update difference from one example is at most
        2*lr*C/B in L2 over the whole parameter vector (plus noise, which
        is identical under the same noise stream).
        """
        dp = DPConfig(noise_multiplier=1.0, max_grad_norm=0.5,
                      learning_rate=0.1)
        from repro.data import SyntheticClickDataset
        from repro.session import make_trainer

        dataset = SyntheticClickDataset(config, seed=3)
        batch_a = dataset.batch(np.arange(16))
        ids_b = np.arange(16).copy()
        ids_b[0] = 999  # replace one example
        batch_b = dataset.batch(ids_b)

        shifts = []
        for batch in (batch_a, batch_b):
            model = DLRM(config, seed=7)
            trainer = make_trainer("dpsgd_f", model, dp, noise_seed=99)
            trainer.expected_batch_size = 16
            trainer.train_step(1, batch, None)
            shifts.append({
                name: param.data.copy()
                for name, param in model.parameters().items()
            })
        total_sq = 0.0
        for name in shifts[0]:
            total_sq += float(((shifts[0][name] - shifts[1][name]) ** 2).sum())
        sensitivity = np.sqrt(total_sq)
        bound = 2 * 0.1 * 0.5 / 16
        assert sensitivity <= bound + 1e-12

    def test_epsilon_reported(self, config):
        _, result, _ = train_algorithm("dpsgd_f", config, num_batches=4)
        assert result.epsilon is not None
        assert result.epsilon > 0

    def test_epsilon_grows_with_iterations(self, config):
        _, short, _ = train_algorithm("dpsgd_f", config, num_batches=2)
        _, long, _ = train_algorithm("dpsgd_f", config, num_batches=8)
        assert long.epsilon > short.epsilon


class TestStageProfiles:
    def test_b_charges_per_example_stage(self, config):
        _, _, trainer = train_algorithm("dpsgd_b", config, num_batches=2)
        stages = trainer.timer.as_dict()
        assert stages["bwd_per_example"] > 0
        assert stages["noise_sampling"] > 0
        assert stages["noisy_grad_generation"] > 0
        assert stages["noisy_grad_update"] > 0

    def test_f_has_all_model_update_stages(self, config):
        _, _, trainer = train_algorithm("dpsgd_f", config, num_batches=2)
        stages = trainer.timer.as_dict()
        for stage in ("fwd", "bwd_per_example", "bwd_per_batch",
                      "noise_sampling", "noisy_grad_update"):
            assert stages[stage] > 0

    def test_noise_std_uses_expected_batch_size(self, config):
        _, _, trainer = train_algorithm(
            "dpsgd_f", config, batch_size=16, num_batches=1
        )
        assert trainer.expected_batch_size == 16
