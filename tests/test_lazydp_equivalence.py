"""The paper's central claim, tested exactly.

Section 5.1: "as long as we make sure that any delayed noise updates are
conducted before the actual embedding access occurs, the exact timing of
when those delayed noise updates were performed have no impact".  Because
our noise stream keys every value by (table, row, iteration), LazyDP with
ANS disabled consumes the *same* noise values as eager DP-SGD(B), just
later — so trained models must agree to floating-point tolerance, not just
in distribution.  These tests are the machine-checkable version of the
paper's Figure 7 argument.
"""

import numpy as np
import pytest

from repro import configs
from repro.data import DataLoader, LookaheadLoader, SkewSpec, SyntheticClickDataset
from repro.nn import DLRM
from repro.session import make_trainer
from repro.train import DPConfig

from repro.testing import max_param_diff, train_algorithm

TOLERANCE = 1e-9


@pytest.fixture
def config():
    return configs.tiny_dlrm(num_tables=3, rows=64, dim=8, lookups=2)


class TestExactEquivalence:
    """LazyDP (ANS off) == eager DP-SGD(B), bit-for-bit up to float order."""

    def test_final_model_matches_dpsgd_b(self, config):
        model_eager, _, _ = train_algorithm("dpsgd_b", config, num_batches=10)
        model_lazy, _, _ = train_algorithm(
            "lazydp_no_ans", config, num_batches=10
        )
        assert max_param_diff(model_eager, model_lazy) < TOLERANCE

    def test_final_model_matches_dpsgd_f(self, config):
        model_eager, _, _ = train_algorithm("dpsgd_f", config, num_batches=10)
        model_lazy, _, _ = train_algorithm(
            "lazydp_no_ans", config, num_batches=10
        )
        assert max_param_diff(model_eager, model_lazy) < TOLERANCE

    def test_equivalence_under_skewed_access(self, config):
        skew = SkewSpec(kind="zipf", exponent=1.3)
        model_eager, _, _ = train_algorithm(
            "dpsgd_f", config, num_batches=8, skew=skew
        )
        model_lazy, _, _ = train_algorithm(
            "lazydp_no_ans", config, num_batches=8, skew=skew
        )
        assert max_param_diff(model_eager, model_lazy) < TOLERANCE

    def test_equivalence_under_poisson_sampling(self, config):
        model_eager, _, _ = train_algorithm(
            "dpsgd_f", config, num_batches=8, sampling="poisson"
        )
        model_lazy, _, _ = train_algorithm(
            "lazydp_no_ans", config, num_batches=8, sampling="poisson"
        )
        assert max_param_diff(model_eager, model_lazy) < TOLERANCE

    def test_equivalence_single_iteration(self, config):
        model_eager, _, _ = train_algorithm("dpsgd_f", config, num_batches=1)
        model_lazy, _, _ = train_algorithm(
            "lazydp_no_ans", config, num_batches=1
        )
        assert max_param_diff(model_eager, model_lazy) < TOLERANCE

    def test_equivalence_with_large_pooling(self):
        config = configs.tiny_dlrm(num_tables=2, rows=32, dim=4, lookups=6)
        model_eager, _, _ = train_algorithm("dpsgd_f", config, num_batches=6)
        model_lazy, _, _ = train_algorithm(
            "lazydp_no_ans", config, num_batches=6
        )
        assert max_param_diff(model_eager, model_lazy) < TOLERANCE

    def test_losses_identical_along_trajectory(self, config):
        """Figure 7: gradients derived at access time must be identical,
        which implies the observed losses agree at every iteration."""
        _, result_eager, _ = train_algorithm("dpsgd_f", config, num_batches=8)
        _, result_lazy, _ = train_algorithm(
            "lazydp_no_ans", config, num_batches=8
        )
        np.testing.assert_allclose(
            result_eager.mean_losses, result_lazy.mean_losses, rtol=1e-9
        )


class TestVisibleValueInvariant:
    """Mid-training: rows are caught up by the time they are gathered."""

    def test_rows_current_before_every_access(self, config):
        dp = DPConfig(noise_multiplier=1.1, max_grad_norm=1.0,
                      learning_rate=0.05)
        eager_model = DLRM(config, seed=7)
        lazy_model = DLRM(config, seed=7)
        eager = make_trainer("dpsgd_f", eager_model, dp, noise_seed=99)
        lazy = make_trainer("lazydp_no_ans", lazy_model, dp, noise_seed=99)

        dataset = SyntheticClickDataset(config, seed=3)
        loader = DataLoader(dataset, batch_size=16, num_batches=6, seed=5)
        eager.expected_batch_size = loader.batch_size
        lazy.expected_batch_size = loader.batch_size

        for index, batch, next_batch in LookaheadLoader(loader):
            iteration = index + 1
            # Before stepping, rows this batch gathers must be identical in
            # both models: eager applied noise eagerly, LazyDP caught them
            # up during the previous iteration.
            for t in range(config.num_tables):
                rows = batch.accessed_rows(t)
                np.testing.assert_allclose(
                    lazy_model.embeddings[t].table.data[rows],
                    eager_model.embeddings[t].table.data[rows],
                    atol=TOLERANCE,
                )
            eager.train_step(iteration, batch, next_batch)
            lazy.train_step(iteration, batch, next_batch)

    def test_unaccessed_rows_differ_mid_training(self, config):
        """Before the flush, deferred rows intentionally lag eager DP-SGD —
        the whole point of laziness.  (They are never read, so it's safe.)"""
        dp = DPConfig()
        eager_model = DLRM(config, seed=7)
        lazy_model = DLRM(config, seed=7)
        eager = make_trainer("dpsgd_f", eager_model, dp, noise_seed=99)
        lazy = make_trainer("lazydp_no_ans", lazy_model, dp, noise_seed=99)
        dataset = SyntheticClickDataset(config, seed=3)
        loader = DataLoader(dataset, batch_size=8, num_batches=3, seed=5)
        eager.expected_batch_size = loader.batch_size
        lazy.expected_batch_size = loader.batch_size
        for index, batch, next_batch in LookaheadLoader(loader):
            eager.train_step(index + 1, batch, next_batch)
            lazy.train_step(index + 1, batch, next_batch)
        # Without the flush, some rows must still differ.
        assert max_param_diff(eager_model, lazy_model) > 1e-6
        # After the flush, everything matches.
        lazy.finalize(3)
        assert max_param_diff(eager_model, lazy_model) < TOLERANCE


class TestANSDistributionalEquivalence:
    """With ANS the values differ but the law does not."""

    def test_ans_final_noise_variance(self, config):
        """Untouched rows after N iterations hold N-fold accumulated noise
        whose std must match sqrt(N) * sigma*C/B under both schedules."""
        iterations = 20
        dp = DPConfig(noise_multiplier=1.0, max_grad_norm=1.0,
                      learning_rate=1.0)
        reference = DLRM(config, seed=7)

        def untouched_noise(algorithm):
            model, _, trainer = train_algorithm(
                algorithm, config, batch_size=4, num_batches=iterations,
                dp=dp,
            )
            diffs = []
            for t, bag in enumerate(model.embeddings):
                init = reference.embeddings[t].table.data
                delta = bag.table.data - init
                # Rows whose delta is pure noise: those never accessed.
                # With batch 4 and 64 rows most rows qualify; filter via
                # the loader's trace.
                diffs.append(delta)
            return np.concatenate([d.ravel() for d in diffs])

        lazy = untouched_noise("lazydp")
        eager = untouched_noise("dpsgd_f")
        # Gradient-bearing rows add signal; compare robust scale (IQR).
        iqr_lazy = np.subtract(*np.percentile(lazy, [75, 25]))
        iqr_eager = np.subtract(*np.percentile(eager, [75, 25]))
        assert iqr_lazy == pytest.approx(iqr_eager, rel=0.1)

    def test_ans_accumulated_variance_exact_bookkeeping(self):
        """Pure-noise setting: lr=1, zero gradient influence via sigma-only
        check on a row that is never accessed until the flush."""
        config = configs.tiny_dlrm(num_tables=1, rows=512, dim=16, lookups=1)
        iterations = 9
        dp = DPConfig(noise_multiplier=2.0, max_grad_norm=1.0,
                      learning_rate=1.0)
        reference = DLRM(config, seed=7)
        model, _, trainer = train_algorithm(
            "lazydp", config, batch_size=2, num_batches=iterations, dp=dp,
        )
        init = reference.embeddings[0].table.data
        final = model.embeddings[0].table.data
        history = trainer.engine.histories[0]
        # Every row must be caught up through the final iteration.
        assert history.pending_rows(iterations).size == 0
        noise = (final - init).ravel()
        expected_std = 2.0 * 1.0 / 2 * np.sqrt(iterations)
        observed = np.subtract(*np.percentile(noise, [75, 25])) / 1.349
        assert observed == pytest.approx(expected_std, rel=0.1)

    def test_epsilon_identical_to_eager(self, config):
        """LazyDP consumes exactly the privacy budget of DP-SGD."""
        _, lazy_result, _ = train_algorithm("lazydp", config, num_batches=7)
        _, eager_result, _ = train_algorithm("dpsgd_b", config, num_batches=7)
        assert lazy_result.epsilon == pytest.approx(eager_result.epsilon)
