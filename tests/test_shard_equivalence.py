"""The sharded engine's headline guarantee: bitwise equivalence.

A plan with the ``shards`` axis on must release exactly the parameters
the serial plan releases — same seed, same trace, same bits — for every
shard count, partition strategy, backend, ANS mode and sampling scheme.
The per-row Philox noise keying makes this testable as strict equality
rather than a tolerance check.
"""

import numpy as np
import pytest

from repro import configs
from repro.data import LookaheadLoader
from repro.lazydp import LazyDPTrainer, export_private_model
from repro.nn import DLRM
from repro.session import ExecutionPlan, TrainSession
from repro.shard import ShardedEmbeddingBag, build_partition_plan
from repro.testing import make_loader, max_param_diff, train_algorithm
from repro.train import DPConfig

#: The pre-plan spelling of the schedule -> the backend axis.
BACKEND = {"serial": "numpy", "threads": "threads"}


@pytest.fixture
def config():
    return configs.tiny_dlrm(num_tables=3, rows=64, dim=8, lookups=2)


def shard_spec(*, use_ans=True, num_shards=2, partition="row_range",
               executor="serial"):
    return (f"ans={'on' if use_ans else 'off'},shards={num_shards},"
            f"partition={partition},backend={BACKEND[executor]}")


def train_sharded(config, *, sampling="fixed", num_batches=6, **kwargs):
    model, result, trainer = train_algorithm(
        shard_spec(**kwargs), config, num_batches=num_batches,
        sampling=sampling,
    )
    trainer.close()
    return model, result, trainer


def build_sharded(config, num_shards, partition="row_range", model=None):
    model = model if model is not None else DLRM(config, seed=7)
    plan = ExecutionPlan.from_spec(
        f"shards={num_shards},partition={partition}"
    )
    trainer = TrainSession.build(model, DPConfig(), plan,
                                 noise_seed=99).trainer
    return model, trainer


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    @pytest.mark.parametrize("sampling", ["fixed", "poisson"])
    def test_released_params_identical(self, config, num_shards, sampling):
        flat_model, _, _ = train_algorithm(
            "lazydp", config, num_batches=6, sampling=sampling
        )
        sharded_model, _, _ = train_sharded(
            config, sampling=sampling, num_shards=num_shards
        )
        assert max_param_diff(flat_model, sharded_model) == 0.0

    @pytest.mark.parametrize("partition", ["row_range", "frequency", "hash"])
    @pytest.mark.parametrize("executor", ["serial", "threads"])
    def test_identical_across_partitions_and_executors(self, config,
                                                       partition, executor):
        flat_model, _, _ = train_algorithm("lazydp", config, num_batches=6)
        sharded_model, _, _ = train_sharded(
            config, num_shards=4, partition=partition, executor=executor
        )
        assert max_param_diff(flat_model, sharded_model) == 0.0

    def test_identical_without_ans(self, config):
        """No-ANS mode replays *eager DP-SGD's own draws* — still exact."""
        flat_model, _, _ = train_algorithm(
            "lazydp_no_ans", config, num_batches=5
        )
        sharded_model, _, _ = train_sharded(
            config, use_ans=False, num_batches=5, num_shards=7,
            partition="hash", executor="threads",
        )
        assert max_param_diff(flat_model, sharded_model) == 0.0

    def test_histories_match_flat_after_fit(self, config):
        _, _, flat_trainer = train_algorithm("lazydp", config, num_batches=6)
        _, _, sharded_trainer = train_sharded(config, num_shards=7)
        for flat, sharded in zip(flat_trainer.engine.histories,
                                 sharded_trainer.engine.histories):
            np.testing.assert_array_equal(
                flat.snapshot(), sharded.snapshot()
            )

    def test_flush_equivalence_per_shard(self, config):
        """The terminal flush catches up the same rows to the same bits."""
        _, _, flat_trainer = train_algorithm("lazydp", config, num_batches=4)
        _, _, sharded_trainer = train_sharded(
            config, num_batches=4, num_shards=7
        )
        assert sharded_trainer.engine.flushed_through == \
            flat_trainer.engine.flushed_through == 4
        for history in sharded_trainer.engine.histories:
            assert history.pending_rows(4).size == 0
            for s in range(history.num_shards):
                assert history.shard_pending_rows(s, 4).size == 0


class TestOneShardIsFlat:
    def test_one_shard_builds_no_partition_router_or_executor(self, config):
        """Flat is the one-shard case, decided from the shard count."""
        model, trainer = build_sharded(config, num_shards=1)
        assert trainer.plan is None
        assert trainer.engine.router is None
        assert trainer.scheduler.executor is None
        assert len(trainer.engine.states) == 1
        assert not isinstance(model.embeddings[0], ShardedEmbeddingBag)
        # The one shard reports into the trainer's own stage breakdown.
        assert trainer.engine.states[0].timer is trainer.timer
        trainer.close()

    def test_many_shards_route_and_fan_out(self, config):
        model, trainer = build_sharded(config, num_shards=3)
        assert trainer.plan.num_shards == 3
        assert trainer.engine.router is not None
        assert trainer.scheduler.executor.name == "serial"
        assert len(trainer.engine.states) == 3
        assert isinstance(model.embeddings[0], ShardedEmbeddingBag)
        trainer.close()


class TestTrainerBehaviour:
    def test_algorithm_name(self, config):
        _, result, _ = train_sharded(config, num_shards=2)
        assert result.algorithm == "sharded_lazydp"
        _, result, _ = train_sharded(config, num_shards=2, use_ans=False)
        assert result.algorithm == "sharded_lazydp_no_ans"

    def test_shard_stage_times_recorded(self, config):
        _, result, trainer = train_sharded(
            config, num_shards=3, executor="threads"
        )
        assert result.stage_times["shard_routing"] > 0.0
        assert result.stage_times["shard_model_update"] > 0.0
        breakdown = trainer.per_shard_breakdown()
        assert len(breakdown) == 3
        for stages in breakdown:
            assert stages["noise_sampling"] >= 0.0
            assert stages["noisy_grad_update"] >= 0.0
        assert len(trainer.shard_update_seconds()) == 3

    def test_prebuilt_plan_accepted(self, config):
        plan = build_partition_plan(config, 2, strategy="hash")
        flat_model, _, _ = train_algorithm("lazydp", config, num_batches=4)
        sharded_model, _, trainer = train_algorithm(
            "shards=2", config, num_batches=4, partition_plan=plan,
        )
        assert trainer.plan is plan
        assert max_param_diff(flat_model, sharded_model) == 0.0

    def test_rebuilding_trainer_readopts_bags(self, config):
        """A second trainer with a different plan must replace the first
        trainer's slabs, not write through stale shard windows."""
        model, first = build_sharded(config, 2, "row_range")
        _, second = build_sharded(config, 7, "hash", model=model)
        for t, bag in enumerate(model.embeddings):
            assert bag.partition is second.plan.table(t)
        second.expected_batch_size = 16
        loader = make_loader(config, batch_size=16, num_batches=4)
        for index, batch, upcoming in LookaheadLoader(loader):
            second.train_step(index + 1, batch, upcoming)
        second.finalize(4)

        flat_model, _, _ = train_algorithm(
            "lazydp", config, num_batches=4, dp=DPConfig()
        )
        assert max_param_diff(flat_model, model) == 0.0
        first.close()
        second.close()

    def test_mismatched_plan_rejected(self, config):
        other = configs.tiny_dlrm(num_tables=3, rows=32, dim=8, lookups=2)
        plan = build_partition_plan(other, 2)
        with pytest.raises(ValueError, match="rows"):
            LazyDPTrainer(DLRM(config, seed=7), DPConfig(), partition=plan)
        small_plan = build_partition_plan(
            configs.tiny_dlrm(num_tables=2, rows=64, dim=8, lookups=2), 2
        )
        with pytest.raises(ValueError, match="tables"):
            LazyDPTrainer(
                DLRM(config, seed=7), DPConfig(), partition=small_plan
            )

    def test_engine_draw_accounting(self, config):
        """ANS draws one Gaussian row per caught-up row, across shards."""
        _, _, ans_trainer = train_sharded(config, num_shards=3)
        _, _, no_ans_trainer = train_sharded(
            config, num_shards=3, use_ans=False
        )
        assert 0 < ans_trainer.engine.samples_drawn < \
            no_ans_trainer.engine.samples_drawn
        _, _, flat_trainer = train_algorithm("lazydp", config, num_batches=6)
        assert ans_trainer.engine.samples_drawn == \
            flat_trainer.engine.samples_drawn

    def test_history_bytes_independent_of_sharding(self, config):
        _, _, flat_trainer = train_algorithm("lazydp", config, num_batches=2)
        _, _, sharded_trainer = train_sharded(config, num_shards=7)
        assert sharded_trainer.engine.history_bytes() == \
            flat_trainer.engine.history_bytes()


class TestReleaseAndCheckpoint:
    def test_export_private_model_works_sharded(self, config):
        """Mid-training release from a sharded trainer == flat release."""
        def drive(trainer, steps):
            loader = make_loader(config, batch_size=16, num_batches=steps)
            for index, batch, upcoming in LookaheadLoader(loader):
                trainer.train_step(index + 1, batch, upcoming)

        flat_model = DLRM(config, seed=7)
        flat_trainer = LazyDPTrainer(flat_model, DPConfig(), noise_seed=99)
        flat_trainer.expected_batch_size = 16
        drive(flat_trainer, 4)
        flat_release = export_private_model(flat_trainer, iteration=4)

        _, sharded_trainer = build_sharded(config, 7, "hash")
        sharded_trainer.expected_batch_size = 16
        drive(sharded_trainer, 4)
        sharded_release = export_private_model(sharded_trainer, iteration=4)
        sharded_trainer.close()

        assert flat_release.keys() == sharded_release.keys()
        for name in flat_release:
            np.testing.assert_array_equal(
                flat_release[name], sharded_release[name]
            )

    def test_checkpoint_roundtrip_sharded(self, config, tmp_path):
        from repro.lazydp import load_checkpoint, save_checkpoint

        model, trainer = build_sharded(config, 2)
        trainer.engine.histories[0].mark_updated(np.array([1, 5, 40]), 2)
        path = tmp_path / "sharded.npz"
        save_checkpoint(path, trainer, iteration=2)

        fresh_model, fresh = build_sharded(config, 7, "hash")
        assert load_checkpoint(path, fresh) == 2
        assert max_param_diff(model, fresh_model) == 0.0
        for original, restored in zip(trainer.engine.histories,
                                      fresh.engine.histories):
            np.testing.assert_array_equal(
                original.snapshot(), restored.snapshot()
            )
        trainer.close()
        fresh.close()
