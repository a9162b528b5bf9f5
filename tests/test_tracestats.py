"""Tests for trace statistics and their agreement with the perf model."""

import numpy as np
import pytest

from repro import configs
from repro.data import DataLoader, SkewSpec, SyntheticClickDataset
from repro.data.skew import expected_unique_rows, paper_skew_spec
from repro.data.tracestats import analyze_trace, collect_trace, loader_stats


def make_loader(rows=512, lookups=2, batches=10, batch_size=64, skew=None,
                seed=0):
    config = configs.tiny_dlrm(num_tables=2, rows=rows, dim=4,
                               lookups=lookups)
    dataset = SyntheticClickDataset(config, seed=seed, skew=skew)
    return DataLoader(dataset, batch_size=batch_size, num_batches=batches,
                      seed=seed + 1)


class TestBasicStats:
    def test_lookup_counts(self):
        stats = loader_stats(make_loader(batch_size=32, lookups=3))
        assert stats.lookups_per_iteration == pytest.approx(32 * 3)
        assert stats.unique_per_iteration <= stats.lookups_per_iteration

    def test_iterations_counted(self):
        stats = loader_stats(make_loader(batches=7))
        assert stats.iterations == 7

    def test_coverage_bounds(self):
        stats = loader_stats(make_loader())
        assert 0.0 < stats.coverage <= 1.0

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            analyze_trace([], num_rows=10)

    def test_unique_matches_expectation(self):
        """Empirical unique footprint ~ the closed-form the perf model uses."""
        rows, batch, lookups = 512, 64, 2
        stats = loader_stats(make_loader(rows=rows, batch_size=batch,
                                         lookups=lookups, batches=20))
        expected = expected_unique_rows(rows, batch * lookups)
        assert stats.unique_per_iteration == pytest.approx(expected, rel=0.05)


class TestSkewStats:
    def test_top_fraction_mass_reflects_skew(self):
        uniform = loader_stats(make_loader(skew=None, batches=20))
        skewed = loader_stats(make_loader(
            skew=SkewSpec(kind="zipf", exponent=1.5), batches=20
        ))
        assert skewed.top_fraction_mass[0.1] > uniform.top_fraction_mass[0.1]

    def test_calibrated_skew_hits_paper_point(self):
        """A 'medium' trace should put ~90% of accesses on ~10% of rows."""
        rows = 2048
        spec = paper_skew_spec("medium", rows)
        config = configs.tiny_dlrm(num_tables=1, rows=rows, dim=4, lookups=4)
        dataset = SyntheticClickDataset(config, seed=3, skew=spec)
        loader = DataLoader(dataset, batch_size=256, num_batches=40, seed=4)
        stats = loader_stats(loader)
        assert stats.top_fraction_mass[0.1] == pytest.approx(0.9, abs=0.05)


class TestLazyDPDelayAccounting:
    def test_total_draws_equals_iterations_times_rows(self):
        """Conservation law: every (row, iteration) noise value is drawn
        exactly once — during catch-up or at the flush.  So the no-ANS
        draw count is exactly rows x iterations."""
        loader = make_loader(rows=256, batches=8)
        stats = loader_stats(loader)
        assert stats.total_deferred_draws == 256 * 8

    def test_mean_delay_positive_for_sparse_access(self):
        stats = loader_stats(make_loader(rows=2048, batch_size=16,
                                         batches=12))
        assert stats.mean_catchup_delay >= 1.0

    def test_delay_agrees_with_trainer_history(self):
        """The replayed HistoryTable discipline matches the real trainer."""
        from repro.session import make_trainer
        from repro.nn import DLRM
        from repro.train import DPConfig

        config = configs.tiny_dlrm(num_tables=1, rows=128, dim=4, lookups=2)
        dataset = SyntheticClickDataset(config, seed=5)
        loader = DataLoader(dataset, batch_size=16, num_batches=6, seed=6)
        stats = loader_stats(loader)

        model = DLRM(config, seed=7)
        trainer = make_trainer("lazydp_no_ans", model, DPConfig(),
                               noise_seed=8)
        trainer.fit(loader)
        # samples_drawn counts scalars: draws * dim.
        draws = trainer.engine.samples_drawn / config.embedding_dim
        assert draws == pytest.approx(stats.total_deferred_draws)

    def test_skew_reduces_unique_but_not_total_draws(self):
        uniform = loader_stats(make_loader(rows=1024, batches=10, seed=1))
        skewed = loader_stats(make_loader(
            rows=1024, batches=10, seed=1,
            skew=SkewSpec(kind="zipf", exponent=1.5),
        ))
        assert skewed.unique_per_iteration < uniform.unique_per_iteration
        # Conservation: total deferred draws depend only on rows x iters.
        assert skewed.total_deferred_draws == uniform.total_deferred_draws


class TestCollectTrace:
    def test_raw_lookups_preserved(self):
        loader = make_loader(batch_size=32, lookups=3)
        trace = collect_trace(loader, table=0)
        for rows in trace:
            assert rows.size == 32 * 3  # duplicates kept

    def test_matches_batch_contents(self):
        loader = make_loader(batch_size=8, lookups=2, batches=2)
        trace = collect_trace(loader, table=1)
        batches = list(loader)
        for rows, batch in zip(trace, batches):
            np.testing.assert_array_equal(
                np.sort(rows), np.sort(batch.sparse[:, 1, :].ravel())
            )
