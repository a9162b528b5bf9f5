"""Tests for the LazyDP trainer, engine plumbing and the make_private API."""

import numpy as np
import pytest

from repro import configs, make_private
from repro.data import DataLoader, SyntheticClickDataset
from repro.lazydp import ANSEngine, LazyDPTrainer, ShardState
from repro.nn import DLRM
from repro.rng import NoiseStream
from repro.shard import shard_windows
from repro.train import DPConfig

from repro.testing import train_algorithm


@pytest.fixture
def config():
    return configs.tiny_dlrm(num_tables=2, rows=64, dim=8, lookups=2)


class TestLazyDPTrainer:
    def test_name_reflects_ans_flag(self, config):
        _, result_ans, _ = train_algorithm("lazydp", config, num_batches=2)
        _, result_plain, _ = train_algorithm(
            "lazydp_no_ans", config, num_batches=2
        )
        assert result_ans.algorithm == "lazydp"
        assert result_plain.algorithm == "lazydp_no_ans"

    def test_history_fully_caught_up_after_fit(self, config):
        _, _, trainer = train_algorithm("lazydp", config, num_batches=6)
        for history in trainer.engine.histories:
            assert history.pending_rows(6).size == 0

    def test_plan_sample_continues_past_a_flush(self, config):
        """Training past a flush is supported (``current_iteration``):
        the next catch-up simply owes the iterations since the flush."""
        _, _, trainer = train_algorithm("lazydp", config, num_batches=3)
        assert trainer.engine.flushed_through == 3
        rows = np.array([1])
        noise = trainer.engine.states[0].plan_sample(0, rows, rows, 5, 0.1)
        np.testing.assert_array_equal(noise.delays, [2])

    def test_overhead_stages_timed(self, config):
        _, _, trainer = train_algorithm("lazydp", config, num_batches=3)
        stages = trainer.timer.as_dict()
        for stage in ("lazydp_dedup", "lazydp_history_read",
                      "lazydp_history_update"):
            assert stages[stage] > 0
        assert trainer.timer.lazydp_overhead_total() > 0

    def test_sparse_updates_only(self, config):
        """Mid-run (pre-flush), untouched rows must hold their init value —
        that is precisely the deferred work."""
        dp = DPConfig()
        model = DLRM(config, seed=7)
        reference = DLRM(config, seed=7)
        from repro.session import make_trainer
        trainer = make_trainer("lazydp", model, dp, noise_seed=99)
        dataset = SyntheticClickDataset(config, seed=3)
        loader = DataLoader(dataset, batch_size=4, num_batches=2, seed=5)
        trainer.expected_batch_size = 4
        from repro.data import LookaheadLoader
        for index, batch, next_batch in LookaheadLoader(loader):
            trainer.train_step(index + 1, batch, next_batch)
        for t, bag in enumerate(model.embeddings):
            unchanged = np.all(
                bag.table.data == reference.embeddings[t].table.data, axis=1
            )
            assert unchanged.sum() > bag.num_rows // 2

    def test_flush_chunking(self, config):
        """Flush with a tiny chunk size must agree with one-shot flush."""
        dp = DPConfig()

        def run(chunk):
            model = DLRM(config, seed=7)
            from repro.session import make_trainer
            trainer = make_trainer("lazydp_no_ans", model, dp, noise_seed=99)
            trainer.engine.states[0].flush_chunk_rows = chunk
            dataset = SyntheticClickDataset(config, seed=3)
            loader = DataLoader(dataset, batch_size=8, num_batches=4, seed=5)
            trainer.fit(loader)
            return model

        model_small = run(chunk=7)
        model_large = run(chunk=1 << 16)
        for name, param in model_small.parameters().items():
            np.testing.assert_allclose(
                param.data, model_large.parameters()[name].data, atol=1e-12
            )

    def test_finalize_before_any_step(self, config):
        """finalize() with no training step must flush with a sane std.

        Regression test: the fallback used to read ``expected_batch_size``
        without guarding against it being unset (None) or zero.
        """
        for expected in (None, 0, 16):
            model = DLRM(config, seed=7)
            trainer = LazyDPTrainer(model, DPConfig(), noise_seed=99)
            trainer.expected_batch_size = expected
            denominator = max(int(expected or 0), 1)
            assert trainer._flush_noise_std() == pytest.approx(
                DPConfig().noise_std(denominator)
            )
            trainer.finalize(3)  # must not raise
            assert trainer.engine.flushed_through == 3
            for history in trainer.engine.histories:
                assert history.pending_rows(3).size == 0

    def test_flush_std_prefers_last_observed(self, config):
        _, _, trainer = train_algorithm("lazydp", config, num_batches=2)
        assert trainer._last_noise_std is not None
        assert trainer._flush_noise_std() == trainer._last_noise_std

    def test_loss_finite_and_learns(self, config):
        _, result, _ = train_algorithm(
            "lazydp", config, batch_size=64, num_batches=25,
            dp=DPConfig(noise_multiplier=0.2, max_grad_norm=5.0,
                        learning_rate=0.05),
        )
        assert np.all(np.isfinite(result.mean_losses))
        assert np.mean(result.mean_losses[-5:]) < np.mean(result.mean_losses[:5])

    def test_zero_iterations(self, config):
        model = DLRM(config, seed=7)
        dataset = SyntheticClickDataset(config, seed=3)
        loader = DataLoader(dataset, batch_size=8, num_batches=1, seed=5)
        from repro.session import make_trainer
        trainer = make_trainer("lazydp", model, DPConfig(), noise_seed=99)
        result = trainer.fit(loader)
        assert result.iterations == 1


class TestShardState:
    """The one-shard state over whole tables (the flat engine)."""

    def state(self, config):
        model = DLRM(config, seed=0)
        (windows,), histories, _, router = shard_windows(model)
        assert router is None
        return ShardState(windows, ANSEngine(NoiseStream(1))), histories

    def test_history_bytes(self, config):
        trainer = LazyDPTrainer(DLRM(config, seed=0), DPConfig())
        assert trainer.engine.history_bytes() == sum(config.table_rows) * 4

    def test_plan_sample_advances_history(self, config):
        state, histories = self.state(config)
        rows = np.array([3, 9])
        noise = state.plan_sample(0, rows, rows, iteration=4, std=0.1)
        np.testing.assert_array_equal(noise.rows, rows)
        np.testing.assert_array_equal(noise.local, rows)
        np.testing.assert_array_equal(noise.delays, [4, 4])
        assert noise.values.shape == (2, 8)
        np.testing.assert_array_equal(
            histories[0].last_updated(rows), [4, 4]
        )

    def test_plan_sample_of_no_rows_touches_nothing(self, config):
        state, histories = self.state(config)
        empty = np.empty(0, dtype=np.int64)
        noise = state.plan_sample(0, empty, empty, iteration=4, std=0.1)
        assert noise.values.shape == (0, 8)
        assert histories[0].pending_rows(1).size == config.table_rows[0]
        assert state.samples_drawn == 0

    def test_flush_returns_pending_count(self, config):
        state, _ = self.state(config)
        rows = np.array([0, 1])
        state.plan_sample(0, rows, rows, 3, 0.1)
        caught = state.flush_all(3, lr=0.1, std=0.1)
        total_rows = sum(config.table_rows)
        assert caught == total_rows - 2
        assert state.flush_all(3, lr=0.1, std=0.1) == 0


class TestMakePrivateAPI:
    def test_quickstart_path(self, config):
        """The paper's Figure 9a usage pattern end-to-end."""
        model = DLRM(config, seed=0)
        dataset = SyntheticClickDataset(config, seed=1)
        loader = DataLoader(dataset, batch_size=32, num_batches=5, seed=2)
        session = make_private(
            model, loader, noise_multiplier=1.1, max_gradient_norm=1.0
        )
        result = session.fit()
        assert result.iterations == 5
        assert session.epsilon() > 0
        assert session.epsilon(delta=1e-7) > session.epsilon(delta=1e-3)

    def test_returns_the_session_with_the_loader_bound(self, config):
        """One constructor: the wrapper is ``TrainSession.build`` plus the
        loader a no-argument ``fit()`` trains on."""
        from repro.session import TrainSession

        loader = DataLoader(SyntheticClickDataset(config, seed=1),
                            batch_size=8, num_batches=2)
        session = make_private(DLRM(config, seed=0), loader)
        assert isinstance(session, TrainSession)
        assert session.data_loader is loader
        assert session.plan.to_spec() == "ans=on"
        unbound = TrainSession.build(DLRM(config, seed=0), DPConfig())
        with pytest.raises(ValueError, match="needs a loader"):
            unbound.fit()

    def test_epsilon_before_training_raises(self, config):
        model = DLRM(config, seed=0)
        dataset = SyntheticClickDataset(config, seed=1)
        loader = DataLoader(dataset, batch_size=8, num_batches=2)
        session = make_private(model, loader)
        with pytest.raises(RuntimeError):
            session.epsilon()

    def test_ans_ablation_flag(self, config):
        model = DLRM(config, seed=0)
        dataset = SyntheticClickDataset(config, seed=1)
        loader = DataLoader(dataset, batch_size=8, num_batches=2)
        session = make_private(model, loader, use_ans=False)
        assert session.trainer.use_ans is False
        assert session.trainer.engine.use_ans is False

    def test_hyperparameters_forwarded(self, config):
        model = DLRM(config, seed=0)
        dataset = SyntheticClickDataset(config, seed=1)
        loader = DataLoader(dataset, batch_size=8, num_batches=2)
        session = make_private(
            model, loader, noise_multiplier=2.5, max_gradient_norm=0.3,
            learning_rate=0.01, delta=1e-6,
        )
        assert session.trainer.config.noise_multiplier == 2.5
        assert session.trainer.config.max_grad_norm == 0.3
        assert session.trainer.config.learning_rate == 0.01
        assert session.trainer.config.delta == 1e-6
