"""The sharded engine's headline guarantee: bitwise equivalence.

A plan with the ``shards`` axis on must release exactly the parameters
the serial plan releases — same seed, same trace, same bits — for every
shard count (even and uneven row ranges), backend, ANS mode and
sampling scheme.
The per-row Philox noise keying makes this testable as strict equality
rather than a tolerance check.
"""

import numpy as np
import pytest

from repro import configs
from repro.data import LookaheadLoader
from repro.data.skew import paper_skew_spec
from repro.lazydp import LazyDPTrainer, export_private_model
from repro.nn import DLRM
from repro.nn.layers import EmbeddingBag
from repro.session import ExecutionPlan, TrainSession
from repro.testing import make_loader, max_param_diff, train_algorithm
from repro.train import DPConfig

#: The pre-plan spelling of the schedule -> the backend axis.
BACKEND = {"serial": "numpy", "threads": "threads"}


@pytest.fixture
def config():
    return configs.tiny_dlrm(num_tables=3, rows=64, dim=8, lookups=2)


def shard_spec(*, use_ans=True, num_shards=2, executor="serial"):
    return (f"ans={'on' if use_ans else 'off'},shards={num_shards},"
            f"backend={BACKEND[executor]}")


def train_sharded(config, *, sampling="fixed", num_batches=6, **kwargs):
    model, result, trainer = train_algorithm(
        shard_spec(**kwargs), config, num_batches=num_batches,
        sampling=sampling,
    )
    trainer.close()
    return model, result, trainer


def build_sharded(config, num_shards, model=None):
    model = model if model is not None else DLRM(config, seed=7)
    plan = ExecutionPlan.from_spec(f"shards={num_shards}")
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

    @pytest.mark.parametrize("num_rows", [64, 61])
    @pytest.mark.parametrize("executor", ["serial", "threads"])
    def test_identical_across_row_counts_and_executors(self, num_rows,
                                                       executor):
        """Four equal ranges, and four uneven ones (61 rows)."""
        config = configs.tiny_dlrm(num_tables=3, rows=num_rows, dim=8, lookups=2)
        flat_model, _, _ = train_algorithm("lazydp", config, num_batches=6)
        sharded_model, _, trainer = train_sharded(
            config, num_shards=4, executor=executor
        )
        sizes = np.diff(trainer.engine.router.bounds[0])
        assert bool(sizes.max() > sizes.min()) == (num_rows % 4 != 0)
        assert max_param_diff(flat_model, sharded_model) == 0.0

    def test_identical_without_ans(self):
        """No-ANS mode replays *eager DP-SGD's own draws* — still exact,
        on seven uneven ranges (61 rows) under Zipf skew."""
        config = configs.tiny_dlrm(num_tables=3, rows=61, dim=8, lookups=2)
        skew = paper_skew_spec("high", 61)
        flat_model, _, _ = train_algorithm(
            "lazydp_no_ans", config, num_batches=5, skew=skew
        )
        sharded_model, _, trainer = train_algorithm(
            shard_spec(use_ans=False, num_shards=7, executor="threads"),
            config, num_batches=5, skew=skew,
        )
        trainer.close()
        sizes = np.diff(trainer.engine.router.bounds[0])
        assert sizes.tolist() == [9, 8, 9, 9, 9, 8, 9]
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
        for state in sharded_trainer.engine.states:
            for window in state.windows:
                assert window.history.pending_rows(4).size == 0


class TestOneShardIsFlat:
    def test_one_shard_builds_no_router_or_executor(self, config):
        """Flat is the one-shard case, decided from the shard count."""
        model, trainer = build_sharded(config, num_shards=1)
        assert trainer.num_shards == 1
        assert trainer.engine.router is None
        assert trainer.scheduler.executor is None
        assert len(trainer.engine.states) == 1
        assert type(model.embeddings[0]) is EmbeddingBag
        # The one shard reports into the trainer's own stage breakdown.
        assert trainer.engine.states[0].timer is trainer.timer
        trainer.close()

    def test_many_shards_route_and_fan_out(self, config):
        model, trainer = build_sharded(config, num_shards=3)
        assert trainer.num_shards == 3
        assert trainer.engine.router is not None
        assert trainer.scheduler.executor.name == "serial"
        assert len(trainer.engine.states) == 3
        # The layout is slices of the model's own tables: nothing re-adopted.
        assert type(model.embeddings[0]) is EmbeddingBag
        for state in trainer.engine.states:
            assert state.windows[0].target.base is model.embeddings[0].table.data
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
        shards = trainer.stats()["shards"]
        assert len(shards["per_shard"]) == 3
        for stages in shards["per_shard"]:
            assert stages["noise_sampling"] >= 0.0
            assert stages["noisy_grad_update"] >= 0.0
        assert len(shards["update_seconds"]) == 3

    def test_rebuilding_trainer_readopts_bags(self, config):
        """A second trainer with a different shard count over the same
        model slices the same tables afresh; the first trainer's windows
        are neither reused nor written through."""
        model, first = build_sharded(config, 2)
        bags = list(model.embeddings)
        _, second = build_sharded(config, 7, model=model)
        assert list(model.embeddings) == bags
        for t, bag in enumerate(model.embeddings):
            bounds = second.engine.router.bounds[t]
            for s, state in enumerate(second.engine.states):
                lo, hi = bounds[s], bounds[s + 1]
                assert state.windows[t].row_base == lo
                assert state.windows[t].target.shape[0] == hi - lo
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

        _, sharded_trainer = build_sharded(config, 7)
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

        fresh_model, fresh = build_sharded(config, 7)
        assert load_checkpoint(path, fresh) == 2
        assert max_param_diff(model, fresh_model) == 0.0
        for original, restored in zip(trainer.engine.histories,
                                      fresh.engine.histories):
            np.testing.assert_array_equal(
                original.snapshot(), restored.snapshot()
            )
        trainer.close()
        fresh.close()


class TestMoreShardsThanRows:
    @pytest.mark.parametrize("backend", ["numpy", "threads", "process"])
    def test_empty_ranges_step_and_flush_bitwise(self, backend):
        """Seven shards on three-row tables: four shards own empty
        ranges, and a step plus the flush still release the serial bits."""
        config = configs.tiny_dlrm(num_tables=2, rows=3, dim=4, lookups=2)
        flat_model, _, _ = train_algorithm("lazydp", config, num_batches=2)
        model, _, trainer = train_algorithm(
            f"shards=7,backend={backend}", config, num_batches=2
        )
        trainer.close()
        bounds = trainer.engine.router.bounds[0]
        assert bounds.tolist() == [0, 1, 2, 3, 3, 3, 3, 3]
        assert max_param_diff(flat_model, model) == 0.0
