"""Tests for the membership-inference attack and the DP bound."""

import numpy as np
import pytest

from repro import configs
from repro.data import SyntheticClickDataset
from repro.nn import DLRM
from repro.privacy.membership import (
    MembershipAttackResult,
    dp_advantage_bound,
    loss_threshold_attack,
)
from repro.session import make_trainer
from repro.train import DPConfig


def overfit_and_attack(algorithm, sigma, epochs=60, seed=0):
    """Overfit a small member set, then attack with fresh non-members."""
    config = configs.tiny_dlrm(num_tables=2, rows=32, dim=8, lookups=2)
    dataset = SyntheticClickDataset(config, seed=seed, num_examples=256)
    member_ids = np.arange(64)
    non_member_ids = np.arange(128, 192)

    model = DLRM(config, seed=seed + 1)
    dp = DPConfig(noise_multiplier=sigma, max_grad_norm=1.0,
                  learning_rate=0.3)
    trainer = make_trainer(algorithm, model, dp, noise_seed=seed + 2)
    trainer.expected_batch_size = 64
    member_batch = dataset.batch(member_ids)
    # Repeatedly train on the same members: worst case for privacy.
    for iteration in range(1, epochs + 1):
        trainer.train_step(iteration, member_batch, member_batch)
    trainer.finalize(epochs)
    return loss_threshold_attack(
        model, member_batch, dataset.batch(non_member_ids)
    )


class TestAttackMechanics:
    def test_separable_losses_give_high_auc(self):
        """Direct check on the statistic, no training involved."""
        config = configs.tiny_dlrm(num_tables=1, rows=16, dim=4, lookups=1)
        model = DLRM(config, seed=0)
        dataset = SyntheticClickDataset(config, seed=1, num_examples=64)
        result = loss_threshold_attack(
            model, dataset.batch(np.arange(16)),
            dataset.batch(np.arange(32, 48)),
        )
        assert isinstance(result, MembershipAttackResult)
        assert 0.0 <= result.auc <= 1.0
        assert 0.5 <= result.best_accuracy <= 1.0
        assert -1.0 <= result.advantage <= 1.0

    def test_untrained_model_gives_chance_level(self):
        """Before training, members and non-members are exchangeable."""
        config = configs.tiny_dlrm(num_tables=2, rows=32, dim=8, lookups=2)
        model = DLRM(config, seed=5)
        dataset = SyntheticClickDataset(config, seed=6, num_examples=4096)
        aucs = []
        for offset in range(0, 2048, 512):
            result = loss_threshold_attack(
                model,
                dataset.batch(np.arange(offset, offset + 256)),
                dataset.batch(np.arange(offset + 2048, offset + 2048 + 256)),
            )
            aucs.append(result.auc)
        assert abs(np.mean(aucs) - 0.5) < 0.06


class TestDPReducesLeakage:
    def test_overfit_nonprivate_model_leaks(self):
        result = overfit_and_attack("sgd", sigma=0.0)
        assert result.member_mean_loss < result.non_member_mean_loss
        assert result.auc > 0.6

    def test_heavy_noise_suppresses_the_attack(self):
        """Strong DP noise must shrink the attack's advantage."""
        non_private = overfit_and_attack("sgd", sigma=0.0)
        private = overfit_and_attack("lazydp", sigma=4.0)
        assert private.advantage < non_private.advantage

    def test_lazydp_leaks_no_more_than_eager(self):
        """Same model => same attack surface."""
        lazy = overfit_and_attack("lazydp_no_ans", sigma=1.0)
        eager = overfit_and_attack("dpsgd_f", sigma=1.0)
        assert lazy.auc == pytest.approx(eager.auc, abs=1e-9)


class TestDPBound:
    def test_zero_epsilon_zero_advantage(self):
        assert dp_advantage_bound(0.0) == 0.0

    def test_monotone_in_epsilon(self):
        bounds = [dp_advantage_bound(e) for e in (0.1, 0.5, 1.0, 4.0)]
        assert all(b > a for a, b in zip(bounds, bounds[1:]))

    def test_approaches_one(self):
        assert dp_advantage_bound(20.0) == pytest.approx(1.0, abs=1e-6)

    def test_delta_contributes(self):
        assert dp_advantage_bound(1.0, 1e-2) > dp_advantage_bound(1.0, 0.0)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            dp_advantage_bound(-1.0)
        with pytest.raises(ValueError):
            dp_advantage_bound(1.0, delta=2.0)
