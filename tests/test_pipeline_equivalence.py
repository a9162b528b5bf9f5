"""The prefetching scheduler's headline guarantee: bitwise equivalence.

A plan with the ``pipeline`` axis on must release exactly the parameters
the serial plan releases — same seed, same trace, same bits — for every
prefetch depth, sampling scheme, ANS mode and shard count.  Noise values
are keyed by ``(seed, table, row, iteration)``, so moving the
plan+sample stages onto a background worker cannot change them; these
tests pin that.
"""

import numpy as np
import pytest

from repro import configs
from repro.data.skew import paper_skew_spec
from repro.data import LookaheadLoader
from repro.lazydp import LazyDPTrainer, Scheduler, export_private_model
from repro.nn import DLRM
from repro.session import ExecutionPlan, TrainSession
from repro.testing import make_loader, max_param_diff, train_algorithm
from repro.train import DPConfig

DP = DPConfig(noise_multiplier=1.1, max_grad_norm=1.0, learning_rate=0.05)


@pytest.fixture
def config():
    return configs.tiny_dlrm(num_tables=3, rows=64, dim=8, lookups=2)


def pipeline_spec(*, use_ans=True, prefetch_depth=2, num_shards=0,
                  backend="numpy"):
    spec = f"ans={'on' if use_ans else 'off'},pipeline={prefetch_depth}"
    if num_shards:
        spec += f",shards={num_shards}"
    return f"{spec},backend={backend}"


def train_pipelined(config, *, sampling="fixed", num_batches=6, skew=None, **kwargs):
    model, result, trainer = train_algorithm(
        pipeline_spec(**kwargs), config, num_batches=num_batches,
        sampling=sampling, skew=skew,
    )
    trainer.close()
    return model, result, trainer


def build_pipelined(config, spec="pipeline=2"):
    model = DLRM(config, seed=7)
    trainer = TrainSession.build(
        model, DP, ExecutionPlan.from_spec(spec), noise_seed=99
    ).trainer
    return model, trainer


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("prefetch_depth", [1, 2, 4])
    @pytest.mark.parametrize("sampling", ["fixed", "poisson"])
    def test_released_params_identical(self, config, prefetch_depth,
                                       sampling):
        flat_model, _, _ = train_algorithm(
            "lazydp", config, num_batches=6, sampling=sampling
        )
        pipelined_model, _, _ = train_pipelined(
            config, sampling=sampling, prefetch_depth=prefetch_depth
        )
        assert max_param_diff(flat_model, pipelined_model) == 0.0

    @pytest.mark.parametrize("use_ans", [True, False])
    def test_identical_with_and_without_ans(self, config, use_ans):
        algorithm = "lazydp" if use_ans else "lazydp_no_ans"
        flat_model, _, _ = train_algorithm(algorithm, config, num_batches=5)
        pipelined_model, _, _ = train_pipelined(
            config, use_ans=use_ans, num_batches=5
        )
        assert max_param_diff(flat_model, pipelined_model) == 0.0

    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    @pytest.mark.parametrize("sampling", ["fixed", "poisson"])
    def test_sharded_pipelined_identical(self, config, num_shards, sampling):
        flat_model, _, _ = train_algorithm(
            "lazydp", config, num_batches=6, sampling=sampling
        )
        pipelined_model, _, _ = train_pipelined(
            config, sampling=sampling, num_shards=num_shards,
        )
        assert max_param_diff(flat_model, pipelined_model) == 0.0

    def test_sharded_pipelined_threads_no_ans(self):
        """The heaviest combination: threads, seven uneven row ranges
        (61 rows) under Zipf skew, exact replay."""
        config = configs.tiny_dlrm(num_tables=3, rows=61, dim=8, lookups=2)
        skew = paper_skew_spec("high", 61)
        flat_model, _, _ = train_algorithm(
            "lazydp_no_ans", config, num_batches=5, skew=skew
        )
        pipelined_model, _, _ = train_pipelined(
            config, use_ans=False, num_batches=5, num_shards=7, skew=skew,
            backend="threads", prefetch_depth=3,
        )
        assert max_param_diff(flat_model, pipelined_model) == 0.0

    @pytest.mark.parametrize("backend", ["numpy", "threads"])
    def test_more_shards_than_rows_pipelined(self, backend):
        """Seven shards on three-row tables, four of them empty, with
        the prefetch worker planning every range."""
        config = configs.tiny_dlrm(num_tables=2, rows=3, dim=4, lookups=2)
        flat_model, _, _ = train_algorithm("lazydp", config, num_batches=3)
        pipelined_model, _, _ = train_pipelined(
            config, num_batches=3, num_shards=7, backend=backend,
        )
        assert max_param_diff(flat_model, pipelined_model) == 0.0

    def test_histories_match_serial_after_fit(self, config):
        _, _, flat_trainer = train_algorithm("lazydp", config, num_batches=6)
        _, _, pipelined_trainer = train_pipelined(config)
        for flat, pipelined in zip(flat_trainer.engine.histories,
                                   pipelined_trainer.engine.histories):
            np.testing.assert_array_equal(
                flat.snapshot(), pipelined.snapshot()
            )

    def test_same_draw_count_as_serial(self, config):
        """Prefetching changes when noise is drawn, never how much."""
        _, _, flat_trainer = train_algorithm("lazydp", config, num_batches=6)
        _, _, pipelined_trainer = train_pipelined(config)
        assert pipelined_trainer.engine.samples_drawn == \
            flat_trainer.engine.samples_drawn > 0


class TestTrainerBehaviour:
    def test_algorithm_names(self, config):
        _, result, _ = train_pipelined(config)
        assert result.algorithm == "pipelined_lazydp"
        _, result, _ = train_pipelined(config, use_ans=False)
        assert result.algorithm == "pipelined_lazydp_no_ans"
        _, result, _ = train_pipelined(config, num_shards=2)
        assert result.algorithm == "pipelined_sharded_lazydp"

    def test_rejects_bad_depth(self, config):
        with pytest.raises(ValueError, match="prefetch_depth"):
            Scheduler(prefetch_depth=0)

    def test_pipeline_stats_and_wait_stage(self, config):
        _, result, trainer = train_pipelined(config)
        tree = trainer.stats()
        stats = tree["pipeline"]
        assert stats["plans_computed"] == 5  # 6 batches -> 5 lookaheads
        assert stats["prefetch_busy_seconds"] > 0.0
        assert 0.0 <= stats["hidden_fraction"] <= 1.0
        assert stats["hidden_seconds"] + stats["exposed_wait_seconds"] >= 0.0
        # The worker did the dedup/history/sampling work, not the trainer.
        assert stats["worker_stage_seconds"]["lazydp_dedup"] > 0.0
        (shard_stages,) = tree["shards"]["per_shard"]
        assert shard_stages["noise_sampling"] > 0.0
        assert shard_stages["lazydp_history_read"] >= 0.0
        # The embedding catch-up stages moved off the trainer timer
        # entirely (dense MLP noise still samples inline, so
        # ``noise_sampling`` itself may appear there).
        assert "lazydp_dedup" not in result.stage_times
        assert "lazydp_history_read" not in result.stage_times
        assert "pipeline_wait" in result.stage_times

    def test_manual_stepping_falls_back_to_serial(self, config):
        """Outside fit() the pipeline is inactive: inline path, still
        bitwise-identical to the serial trainer."""
        flat_model, _, _ = train_algorithm("lazydp", config, num_batches=4)
        model, trainer = build_pipelined(config)
        trainer.expected_batch_size = 16
        loader = make_loader(config, batch_size=16, num_batches=4)
        for index, batch, upcoming in LookaheadLoader(loader):
            trainer.train_step(index + 1, batch, upcoming)
        trainer.finalize(4)
        assert max_param_diff(flat_model, model) == 0.0

    def test_pipeline_session_resets_worker_stats(self, config):
        """Each pipeline session gets fresh worker timers, so
        the ``pipeline`` stats stay per-run like the buffer/worker
        counters: a second fit must not inherit stale stage times."""
        _, trainer = build_pipelined(config)
        scheduler = trainer.scheduler
        loader = make_loader(config, batch_size=16, num_batches=3)
        trainer.fit(loader)
        assert not scheduler.running
        first_timer = scheduler.worker_timer
        assert first_timer.total() > 0.0
        scheduler.start(loader)
        try:
            assert scheduler.worker_timer is not first_timer
            assert scheduler.worker_timer.total() == 0.0
        finally:
            scheduler.shutdown()

    def test_sharded_stats_expose_per_shard_stage_split(self, config):
        """The Figure-11-style dedup/history/sampling attribution must
        survive pipelining: per-shard timers are surfaced, and the
        lumped fan-out wall-clock is named shard_prefetch (not
        noise_sampling)."""
        _, _, trainer = train_pipelined(config, num_shards=3)
        tree = trainer.stats()
        stats = tree["pipeline"]
        assert "shard_prefetch" in stats["worker_stage_seconds"]
        assert "noise_sampling" not in stats["worker_stage_seconds"]
        per_shard = tree["shards"]["per_shard"]
        assert len(per_shard) == 3
        for stages in per_shard:
            assert stages["noise_sampling"] >= 0.0
            assert stages["lazydp_history_read"] >= 0.0
            assert stages["lazydp_history_update"] >= 0.0

    def test_worker_error_propagates(self, config):
        _, trainer = build_pipelined(config)

        def boom(iteration, batch):
            raise RuntimeError("prefetch exploded")

        trainer._prefetch = boom
        with pytest.raises(RuntimeError, match="noise-prefetch worker"):
            trainer.fit(make_loader(config, batch_size=16, num_batches=4))
        assert not trainer.scheduler.running


class TestReleaseAndCheckpoint:
    def test_export_private_model_works_pipelined(self, config):
        """Mid-training release from a pipelined trainer == serial."""
        def drive(trainer, steps):
            loader = make_loader(config, batch_size=16, num_batches=steps)
            trainer.expected_batch_size = 16
            for index, batch, upcoming in LookaheadLoader(loader):
                trainer.train_step(index + 1, batch, upcoming)

        flat_model = DLRM(config, seed=7)
        flat_trainer = LazyDPTrainer(flat_model, DPConfig(), noise_seed=99)
        drive(flat_trainer, 4)
        flat_release = export_private_model(flat_trainer, iteration=4)

        _, pipelined_trainer = build_pipelined(config)
        drive(pipelined_trainer, 4)
        pipelined_release = export_private_model(
            pipelined_trainer, iteration=4
        )

        assert flat_release.keys() == pipelined_release.keys()
        for name in flat_release:
            np.testing.assert_array_equal(
                flat_release[name], pipelined_release[name]
            )

    def test_terminal_flush_complete(self, config):
        _, _, trainer = train_pipelined(config, num_batches=4)
        assert trainer.engine.flushed_through == 4
        for history in trainer.engine.histories:
            assert history.pending_rows(4).size == 0
