"""The session API: plan axes, serialization round trips, building.

``ExecutionPlan`` must round-trip through both serialized forms
(``to_dict``/``from_dict`` and the ``--plan`` spec mini-language) and
reject contradictory specs with messages naming the contradiction;
``TrainSession.build`` must turn every plan into the one
``LazyDPTrainer`` with the matching partition, scheduler and executor;
``make_trainer`` names the paper's seven algorithms and nothing else.
"""

import pytest

from repro import configs
from repro.configs import AsyncConfig, PipelineConfig, ShardConfig
from repro.nn import DLRM
from repro.lazydp import LazyDPTrainer
from repro.session import ExecutionPlan, TrainSession, make_trainer
from repro.train import DPConfig


@pytest.fixture
def config():
    return configs.tiny_dlrm(num_tables=2, rows=48, dim=8, lookups=2)


def plan_matrix():
    """A representative plan per engine shape, plus non-default axes."""
    return [
        ExecutionPlan(),
        ExecutionPlan(ans=False),
        ExecutionPlan(shards=ShardConfig(num_shards=3)),
        ExecutionPlan(shards=ShardConfig(num_shards=4,
                                         partition="frequency"),
                      backend="threads:2"),
        ExecutionPlan(pipeline=PipelineConfig(prefetch_depth=3)),
        ExecutionPlan(async_=AsyncConfig(max_in_flight=4,
                                         staleness="bounded:2")),
        ExecutionPlan(
            ans=False,
            shards=ShardConfig(num_shards=2, partition="frequency"),
            pipeline=PipelineConfig(prefetch_depth=4),
            async_=AsyncConfig(max_in_flight=3),
        ),
    ]


class TestPlanValidation:
    def test_default_plan_is_serial_flat(self):
        plan = ExecutionPlan()
        assert plan.ans
        assert not plan.is_sharded
        assert not plan.is_pipelined
        assert not plan.is_async
        assert plan.legacy_name() == "lazydp"

    def test_async_implies_pipelined(self):
        plan = ExecutionPlan(async_=AsyncConfig())
        assert plan.is_pipelined
        assert plan.pipeline is None       # depth defaults at build time
        assert plan.legacy_name() == "async_lazydp"

    def test_rejects_disabled_axis_configs(self):
        """Presence on the plan is the switch: a config has no
        ``enabled`` field to turn it off with."""
        with pytest.raises(TypeError, match="enabled"):
            PipelineConfig(enabled=False)
        with pytest.raises(TypeError, match="enabled"):
            AsyncConfig(enabled=False)
        with pytest.raises(ValueError, match="unknown PipelineConfig keys"):
            ExecutionPlan.from_dict({"pipeline": {"enabled": False}})
        assert not hasattr(ShardConfig(), "is_sharded")

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ExecutionPlan(backend="cuda")

    def test_rejects_wrong_axis_types(self):
        with pytest.raises(ValueError, match="ShardConfig"):
            ExecutionPlan(shards=4)

    def test_labels_cover_the_cross_product(self):
        labels = {
            ExecutionPlan.from_spec(
                f"ans={ans},shards={shards},{engine}"
            ).legacy_name()
            for ans in ("on", "off")
            for shards in (0, 2)
            for engine in ("pipeline=0", "pipeline=2", "async=strict")
        }
        assert len(labels) == 12
        for plan in plan_matrix():
            assert plan.legacy_name() in labels


class TestDictRoundTrip:
    @pytest.mark.parametrize("plan", plan_matrix(),
                             ids=lambda plan: plan.canonical())
    def test_round_trip(self, plan):
        assert ExecutionPlan.from_dict(plan.to_dict()) == plan

    def test_dict_is_json_serializable(self):
        import json

        for plan in plan_matrix():
            encoded = json.dumps(plan.to_dict())
            assert ExecutionPlan.from_dict(json.loads(encoded)) == plan

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown ExecutionPlan keys"):
            ExecutionPlan.from_dict({"ans": True, "sharding": {}})
        with pytest.raises(ValueError, match="unknown ShardConfig keys"):
            ExecutionPlan.from_dict({"shards": {"count": 2}})


class TestSpecRoundTrip:
    @pytest.mark.parametrize("plan", plan_matrix(),
                             ids=lambda plan: plan.canonical())
    def test_round_trip(self, plan):
        assert ExecutionPlan.from_spec(plan.to_spec()) == plan
        assert plan.canonical() == plan.to_spec()

    def test_issue_example_spec(self):
        plan = ExecutionPlan.from_spec(
            "shards=4,pipeline=2,async=bounded:2,ans=off"
        )
        assert not plan.ans
        assert plan.shards.num_shards == 4
        assert plan.pipeline.prefetch_depth == 2
        assert plan.async_.staleness == "bounded:2"
        assert plan.legacy_name() == "async_sharded_lazydp_no_ans"

    def test_empty_spec_is_default_plan(self):
        assert ExecutionPlan.from_spec("") == ExecutionPlan()

    def test_axis_zero_switches_off(self):
        assert ExecutionPlan.from_spec("shards=0,pipeline=0") == \
            ExecutionPlan()
        for word in ("off", "false", "no", "0", "none"):
            assert ExecutionPlan.from_spec(f"async={word}") == ExecutionPlan()

    @pytest.mark.parametrize("spec, message", [
        ("async=strict,pipeline=0", "contradictory"),
        ("async=bounded:1,pipeline=0", "contradictory"),
        ("partition=hash", "shards>=1"),
        ("shards=2,partition=hash", r"\('row_range', 'frequency'\)"),
        ("shards=2,executor=threads", "unknown key 'executor'"),
        ("shards=2,workers=2", "unknown key 'workers'"),
        ("inflight=4", "async"),
        ("inflight=4,async=off", "async"),
        ("shards=two", "integer"),
        ("ans=maybe", "boolean"),
        ("turbo=on", "unknown key"),
        ("shards", "key=value"),
        ("ans=on,ans=off", "duplicate"),
        ("async=eventual", "staleness"),
        ("async=bounded:-1", "bound"),
        ("pipeline=-1", ">= 0"),
        ("shards=2,backend=threads:0", "worker count"),
        ("backend=cuda", "backend"),
    ])
    def test_rejections_name_the_problem(self, spec, message):
        with pytest.raises(ValueError, match=message):
            ExecutionPlan.from_spec(spec)


class TestBuild:
    """Plans become data — a partition, a scheduler, an executor — on
    the one trainer class; nothing is picked or assembled per shape."""

    @pytest.mark.parametrize("plan", plan_matrix(),
                             ids=lambda plan: plan.canonical())
    def test_every_plan_builds_the_one_trainer(self, config, plan):
        session = TrainSession.build(DLRM(config, seed=7), DPConfig(), plan)
        trainer = session.trainer
        assert type(trainer) is LazyDPTrainer
        shards = plan.shards.num_shards if plan.is_sharded else 1
        assert trainer.num_shards == len(trainer.engine.states) == shards
        scheduler = trainer.scheduler
        assert scheduler.prefetches == plan.is_pipelined
        assert scheduler.defers_apply == plan.is_async
        assert bool(trainer.ledger) == plan.is_async
        if shards > 1:
            assert scheduler.executor.name == (
                "threads" if plan.backend.startswith("threads") else "serial"
            )
        else:
            assert scheduler.executor is None
        session.close()

    def test_backend_worker_count_caps_the_pool(self, config):
        plan = ExecutionPlan.from_spec("shards=4,backend=threads:2")
        session = TrainSession.build(DLRM(config, seed=7), DPConfig(), plan)
        assert session.trainer.scheduler.executor.max_workers == 2
        session.close()

    def test_process_backend_builds_its_subclass(self, config):
        from repro.procshard import ProcessShardedLazyDPTrainer

        plan = ExecutionPlan.from_spec("shards=2,backend=process")
        with TrainSession.build(DLRM(config, seed=7), DPConfig(),
                                plan) as session:
            assert type(session.trainer) is ProcessShardedLazyDPTrainer
            assert hasattr(session.trainer, "procshard_stats")
        serial = TrainSession.build(DLRM(config, seed=7), DPConfig())
        assert not hasattr(serial.trainer, "procshard_stats")

    def test_async_gets_default_prefetch_runway(self, config):
        plan = ExecutionPlan(async_=AsyncConfig(max_in_flight=4))
        session = TrainSession.build(DLRM(config, seed=7), DPConfig(), plan)
        assert session.trainer.scheduler.prefetch_depth == 4
        assert session.trainer.scheduler.max_in_flight == 4
        session.close()

    def test_trainer_carries_plan_and_label(self, config):
        plan = ExecutionPlan(shards=ShardConfig(num_shards=2), ans=False)
        session = TrainSession.build(DLRM(config, seed=7), DPConfig(), plan)
        assert session.trainer.execution_plan is plan
        assert session.trainer.name == "sharded_lazydp_no_ans"
        session.close()

    def test_live_inputs_require_sharded_plan(self, config):
        with pytest.raises(ValueError, match="sharded"):
            TrainSession.build(DLRM(config, seed=7), DPConfig(),
                               ExecutionPlan(), skew="SKEW")

    @pytest.mark.parametrize("spec", ["shards=3", "shards=3,backend=threads",
                                      "shards=3,backend=process"])
    def test_partition_plan_must_match_the_shard_count(self, config, spec):
        """The plan's label, pool size and process:K check read its own
        shard count, so a prebuilt partition must cut that many."""
        from repro.shard import build_partition_plan

        for other in (1, 2, 4):
            with pytest.raises(ValueError, match=f"has {other} shard.*plan has 3"):
                TrainSession.build(
                    DLRM(config, seed=7), DPConfig(),
                    ExecutionPlan.from_spec(spec),
                    partition_plan=build_partition_plan(config, other),
                )

    def test_build_takes_no_live_executor(self, config):
        with pytest.raises(TypeError, match="executor"):
            TrainSession.build(
                DLRM(config, seed=7), DPConfig(),
                ExecutionPlan.from_spec("shards=2"), executor=object(),
            )


class TestSessionLifecycle:
    def test_fit_reports_under_the_plan_label(self, config):
        from repro.testing import make_loader

        plan = ExecutionPlan.from_spec("shards=2,pipeline=2")
        with TrainSession.build(DLRM(config, seed=7), DPConfig(),
                                plan, noise_seed=99) as session:
            result = session.fit(
                make_loader(config, batch_size=16, num_batches=3)
            )
            assert result.algorithm == "pipelined_sharded_lazydp"
            assert session.current_iteration() == 3
            assert session.epsilon() > 0.0
            stats = session.stats()
            assert stats["plan"] == plan.canonical()
            assert "pipeline" in stats
            assert "shard_update_seconds" in stats

    @pytest.mark.parametrize("plan", plan_matrix(),
                             ids=lambda plan: plan.canonical())
    def test_every_plan_fits_under_its_own_label(self, config, plan):
        from repro.testing import make_loader

        with TrainSession.build(DLRM(config, seed=7), DPConfig(),
                                plan, noise_seed=99) as session:
            result = session.fit(
                make_loader(config, batch_size=16, num_batches=2)
            )
        assert result.iterations == 2
        assert result.algorithm == plan.legacy_name()

    def test_current_iteration_tracks_resumed_training(self, config):
        """Resuming past a flush must advance the release point: serving
        or exporting at the stale flushed_through would drop the resumed
        steps' deferred-noise accounting."""
        import numpy as np

        from repro.data import LookaheadLoader
        from repro.lazydp import export_private_model
        from repro.testing import make_loader

        session = TrainSession.build(DLRM(config, seed=7), DPConfig(),
                                     ExecutionPlan(), noise_seed=99)
        session.fit(make_loader(config, batch_size=16, num_batches=3))
        assert session.current_iteration() == 3
        loader = make_loader(config, batch_size=16, num_batches=2, seed=123)
        for index, batch, upcoming in LookaheadLoader(loader):
            session.train_step(4 + index, batch, upcoming)
        assert session.current_iteration() == 5
        released = session.export_private_model()
        reference = export_private_model(session.trainer, iteration=5)
        for name in reference:
            np.testing.assert_array_equal(released[name], reference[name])
        handle = session.serve()          # must not raise "serve the past"
        assert handle.stats()["iteration"] == 5
        session.close()

    def test_export_matches_trainer_export(self, config):
        import numpy as np

        from repro.lazydp import export_private_model
        from repro.testing import make_loader

        session = TrainSession.build(DLRM(config, seed=7), DPConfig(),
                                     ExecutionPlan(), noise_seed=99)
        session.fit(make_loader(config, batch_size=16, num_batches=3))
        released = session.export_private_model()
        reference = export_private_model(session.trainer, iteration=3)
        for name in reference:
            np.testing.assert_array_equal(released[name], reference[name])


class TestMakeTrainer:
    @pytest.mark.parametrize("algorithm, use_ans", [
        ("lazydp", True), ("lazydp_no_ans", False),
    ])
    def test_lazydp_names_are_the_serial_plan(self, config, algorithm,
                                              use_ans):
        trainer = make_trainer(algorithm, DLRM(config, seed=7), DPConfig(),
                               noise_seed=99)
        assert trainer.name == algorithm
        assert trainer.execution_plan == ExecutionPlan(ans=use_ans)

    def test_baseline_algorithms(self, config):
        trainer = make_trainer("dpsgd_f", DLRM(config, seed=7), DPConfig(),
                               noise_seed=99)
        assert trainer.name == "dpsgd_f"

    @pytest.mark.parametrize("algorithm", [
        "adam", "sharded_lazydp", "pipelined_lazydp", "async_lazydp",
        "async_sharded_lazydp_no_ans",
    ])
    def test_engine_strings_are_not_algorithms(self, config, algorithm):
        with pytest.raises(ValueError, match="unknown algorithm"):
            make_trainer(algorithm, DLRM(config, seed=7), DPConfig())

    def test_seven_algorithms(self, config):
        from repro.perfmodel import ALGORITHMS

        assert len(ALGORITHMS) == 7
        for algorithm in ALGORITHMS:
            trainer = make_trainer(algorithm, DLRM(config, seed=7),
                                   DPConfig())
            assert trainer.name == algorithm
