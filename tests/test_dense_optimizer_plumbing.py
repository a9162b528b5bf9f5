"""Tests for pluggable dense-side optimizers in the trainers.

MLP parameters receive their noise eagerly every iteration, so any update
rule is legal for them — only the *embedding* path must stay linear for
LazyDP's deferral.  These tests exercise momentum on the dense side across
algorithms and confirm it leaves the equivalence story intact.
"""

import numpy as np
import pytest

from repro import configs
from repro.data import DataLoader, SyntheticClickDataset
from repro.nn import DLRM
from repro.session import make_trainer
from repro.train import DenseMomentum, DenseSGD, DPConfig

from repro.testing import max_param_diff


@pytest.fixture
def config():
    return configs.tiny_dlrm(num_tables=2, rows=48, dim=8, lookups=2)


def run(algorithm, config, dense_optimizer=None, noise_seed=99):
    model = DLRM(config, seed=7)
    dataset = SyntheticClickDataset(config, seed=3, num_examples=1 << 12)
    loader = DataLoader(dataset, batch_size=16, num_batches=6, seed=5)
    trainer = make_trainer(algorithm, model, DPConfig(),
                           noise_seed=noise_seed)
    if dense_optimizer is not None:
        trainer.dense_optimizer = dense_optimizer
    trainer.fit(loader)
    return model, trainer


class TestDenseOptimizerPlumbing:
    def test_default_is_plain_sgd(self, config):
        _, trainer = run("lazydp", config)
        assert isinstance(trainer.dense_optimizer, DenseSGD)
        assert trainer.dense_optimizer.learning_rate == pytest.approx(0.05)

    def test_momentum_changes_dense_but_respects_embeddings(self, config):
        plain_model, _ = run("lazydp_no_ans", config)
        momentum_model, _ = run(
            "lazydp_no_ans", config,
            dense_optimizer=DenseMomentum(0.05, momentum=0.9),
        )
        # Dense parameters diverge (momentum changes the trajectory) ...
        dense_diff = max(
            float(np.max(np.abs(
                plain_model.dense_parameters()[name].data
                - momentum_model.dense_parameters()[name].data
            )))
            for name in plain_model.dense_parameters()
        )
        assert dense_diff > 1e-8

    def test_lazydp_equivalence_holds_with_momentum(self, config):
        """Equivalence is an embedding-path property: it must survive any
        dense-side rule as long as both runs share it."""
        eager_model, _ = run(
            "dpsgd_f", config, dense_optimizer=DenseMomentum(0.05)
        )
        lazy_model, _ = run(
            "lazydp_no_ans", config, dense_optimizer=DenseMomentum(0.05)
        )
        assert max_param_diff(eager_model, lazy_model) < 1e-9

    def test_sgd_trainer_accepts_momentum(self, config):
        model, trainer = run(
            "sgd", config, dense_optimizer=DenseMomentum(0.05)
        )
        assert trainer.dense_optimizer.state_bytes() > 0

    def test_momentum_state_sized_to_dense_params(self, config):
        _, trainer = run(
            "dpsgd_f", config, dense_optimizer=DenseMomentum(0.05)
        )
        dense_bytes = sum(
            p.data.nbytes for p in trainer.model.dense_parameters().values()
        )
        assert trainer.dense_optimizer.state_bytes() == dense_bytes
