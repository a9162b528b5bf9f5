"""The session API: plan fields, the spec round trip, building.

``ExecutionPlan`` must round-trip through the ``--plan`` spec
mini-language and reject contradictory specs — including the backend
rules — with messages naming the contradiction;
``TrainSession.build`` must turn every plan into the one
``LazyDPTrainer`` with the matching shard count, scheduler and executor;
``make_trainer`` names the paper's seven algorithms and nothing else.
"""

import pytest

from repro import configs
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
        ExecutionPlan(shards=3),
        ExecutionPlan(shards=4, backend="threads:2"),
        ExecutionPlan(pipeline=3),
        ExecutionPlan(async_=True, inflight=4),
        ExecutionPlan(ans=False, shards=2, pipeline=4, async_=True,
                      inflight=3),
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
        plan = ExecutionPlan(async_=True)
        assert plan.is_pipelined
        assert plan.pipeline == 0          # depth defaults at build time
        assert plan.legacy_name() == "async_lazydp"

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend") as excinfo:
            ExecutionPlan(backend="cuda")
        for name in ("numpy", "threads", "process"):
            assert name in str(excinfo.value)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(shards=-1), "shards must be >= 0"),
        (dict(pipeline=-1), "pipeline must be >= 0"),
        (dict(async_="strict"), "async_ is a bool"),
        (dict(async_=True, inflight=0), "inflight"),
        (dict(obs="perfetto"), "unknown obs mode"),
        (dict(serve=-3), "serve must be >= 0"),
        (dict(shards=3, backend="process:3"), "admits no worker count"),
        (dict(backend="threads"), "requires the shards axis"),
        (dict(shards=2, backend="process", pipeline=2), "pipeline"),
        (dict(shards=2, backend="process", async_=True), "async"),
        (dict(backend="numpy:2"), "admits no worker count"),
        (dict(shards=3, backend="process:4"), "admits no worker count"),
    ])
    def test_the_constructor_validates_every_field(self, kwargs, message):
        """Validation lives once, on the plan: a field set directly is
        checked exactly as the spec parser's result is."""
        with pytest.raises(ValueError, match=message):
            ExecutionPlan(**kwargs)

    @pytest.mark.parametrize("backend", [
        "numpy", "threads", "threads:2", "process", "threads:3",
    ])
    def test_every_constructible_plan_round_trips(self, backend):
        """``from_spec(to_spec(p)) == p`` over a grid of every field."""
        import itertools

        grid = itertools.product(
            (True, False), (0, 1, 3), (0, 2), (False, True), (2, 4),
            (None, "trace+metrics"), (0, 64),
        )
        built = 0
        for values in grid:
            try:
                plan = ExecutionPlan(*values, backend=backend)
            except ValueError:
                continue
            assert ExecutionPlan.from_spec(plan.to_spec()) == plan
            built += 1
        assert built > 0

    def test_rejects_sub_keys_without_their_axis(self):
        """A sub-key away from its default with its axis off has no
        spec spelling, so ``from_spec(to_spec(p)) == p`` would break."""
        with pytest.raises(ValueError, match="inflight=4 requires the async"):
            ExecutionPlan(inflight=4)

    @pytest.mark.parametrize("field", ["partition", "admission"])
    def test_removed_fields_are_not_constructor_arguments(self, field):
        with pytest.raises(TypeError, match=field):
            ExecutionPlan(**{field: 3})

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


class TestSpecRoundTrip:
    @pytest.mark.parametrize("plan", plan_matrix(),
                             ids=lambda plan: plan.to_spec())
    def test_round_trip(self, plan):
        assert ExecutionPlan.from_spec(plan.to_spec()) == plan

    def test_issue_example_spec(self):
        plan = ExecutionPlan.from_spec(
            "shards=4,pipeline=2,async=strict,ans=off"
        )
        assert not plan.ans
        assert plan.shards == 4
        assert plan.pipeline == 2
        assert plan.async_ is True
        assert plan.legacy_name() == "async_sharded_lazydp_no_ans"

    @pytest.mark.parametrize("spec", [
        "ans=on,shards=2,backend=process",
        "ans=off,shards=7,backend=process",
        "ans=on,shards=2,backend=threads:2",
    ])
    def test_backend_specs_round_trip(self, spec):
        plan = ExecutionPlan.from_spec(spec)
        assert plan.to_spec() == spec
        assert ExecutionPlan.from_spec(plan.to_spec()) == plan

    def test_split_backend(self):
        assert ExecutionPlan().split_backend() == ("numpy", None)
        assert ExecutionPlan(shards=2, backend="threads").split_backend() == (
            "threads", None)
        assert ExecutionPlan(shards=3, backend="threads:3").split_backend() == (
            "threads", 3)
        assert ExecutionPlan(shards=3, backend="process").split_backend() == (
            "process", None)

    def test_empty_spec_is_default_plan(self):
        assert ExecutionPlan.from_spec("") == ExecutionPlan()

    def test_axis_zero_switches_off(self):
        assert ExecutionPlan.from_spec("shards=0,pipeline=0") == \
            ExecutionPlan()
        for word in ("off", "false", "no", "0", "none"):
            assert ExecutionPlan.from_spec(f"async={word}") == ExecutionPlan()

    @pytest.mark.parametrize("spec, message", [
        ("async=strict,pipeline=0", "contradictory"),
        ("async=bounded:1,pipeline=0", "accepts only strict"),
        # Removed keys read as unknown, with the eight that remain.
        ("partition=hash", "unknown key 'partition'"),
        ("shards=2,partition=row_range",
         "known keys: ans, shards, pipeline, async, inflight, obs, serve, "
         "backend"),
        ("serve=64,admission=3", "unknown key 'admission'"),
        ("shards=2,executor=threads", "unknown key 'executor'"),
        ("shards=2,workers=2", "unknown key 'workers'"),
        ("inflight=4", "async"),
        ("inflight=4,async=off", "async"),
        ("shards=two", "integer"),
        ("ans=maybe", "boolean"),
        ("turbo=on", "unknown key"),
        ("shards", "key=value"),
        ("ans=on,ans=off", "duplicate"),
        ("async=eventual", "accepts only strict"),
        ("async=bounded:-1", "accepts only strict"),
        ("async=bounded:2,inflight=4", "accepts only strict"),
        ("pipeline=-1", ">= 0"),
        ("shards=2,backend=threads:0", "worker count"),
        ("shards=2,backend=threads:zero", "worker count"),
        ("backend=cuda", "unknown backend"),
        ("backend=numba", "unknown backend"),
        # The backend rules: threads and process need the shards axis,
        ("backend=threads", "requires the shards axis"),
        ("backend=process", "requires the shards axis"),
        ("shards=0,backend=threads:2", "requires the shards axis"),
        # process composes with neither pipeline nor async,
        ("shards=2,backend=process,pipeline=2", "pipeline"),
        ("shards=2,backend=process,async=strict", "async"),
        # :K only on threads: process runs one worker per shard.
        ("backend=numpy:2", "admits no worker count"),
        ("shards=2,backend=numpy:2", "admits no worker count"),
        ("shards=3,backend=process:4", "admits no worker count"),
        ("shards=3,backend=process:3", "admits no worker count"),
    ])
    def test_rejections_name_the_problem(self, spec, message):
        with pytest.raises(ValueError, match=message):
            ExecutionPlan.from_spec(spec)


class TestBuild:
    """Plans become data — a shard count, a scheduler, an executor — on
    the one trainer class; nothing is picked or assembled per shape."""

    @pytest.mark.parametrize("plan", plan_matrix(),
                             ids=lambda plan: plan.to_spec())
    def test_every_plan_builds_the_one_trainer(self, config, plan):
        session = TrainSession.build(DLRM(config, seed=7), DPConfig(), plan)
        trainer = session.trainer
        assert type(trainer) is LazyDPTrainer
        shards = max(plan.shards, 1)
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

    def test_process_backend_builds_its_subclass(self, config):
        from repro.procshard import ProcessShardedLazyDPTrainer

        plan = ExecutionPlan.from_spec("shards=2,backend=process")
        with TrainSession.build(DLRM(config, seed=7), DPConfig(),
                                plan) as session:
            assert type(session.trainer) is ProcessShardedLazyDPTrainer
            assert hasattr(session.trainer, "procshard_stats")
        serial = TrainSession.build(DLRM(config, seed=7), DPConfig())
        assert not hasattr(serial.trainer, "procshard_stats")

    def test_each_backend_binds_its_executor(self, config):
        from repro.procshard import ProcessShardedLazyDPTrainer

        for spec, executor in (("shards=2", "serial"),
                               ("shards=2,backend=threads", "threads"),
                               ("shards=2,backend=threads:3", "threads")):
            plan = ExecutionPlan.from_spec(spec)
            with TrainSession.build(DLRM(config, seed=7), DPConfig(),
                                    plan) as session:
                assert type(session.trainer) is LazyDPTrainer
                assert session.trainer.scheduler.executor.name == executor
        plan = ExecutionPlan.from_spec("shards=2,backend=process")
        with TrainSession.build(DLRM(config, seed=7), DPConfig(),
                                plan) as session:
            assert type(session.trainer) is ProcessShardedLazyDPTrainer
            assert session.trainer.scheduler.executor.name == "process"

    def test_async_gets_default_prefetch_runway(self, config):
        plan = ExecutionPlan(async_=True, inflight=4)
        session = TrainSession.build(DLRM(config, seed=7), DPConfig(), plan)
        assert session.trainer.scheduler.prefetch_depth == 4
        assert session.trainer.scheduler.max_in_flight == 4
        session.close()

    def test_trainer_carries_plan_and_label(self, config):
        plan = ExecutionPlan(shards=2, ans=False)
        session = TrainSession.build(DLRM(config, seed=7), DPConfig(), plan)
        assert session.trainer.execution_plan is plan
        assert session.trainer.name == "sharded_lazydp_no_ans"
        session.close()

    @pytest.mark.parametrize("name", ["skew", "partition_plan"])
    def test_build_takes_no_partition_inputs(self, config, name):
        """The shard count is the whole cut: nothing else is handed in."""
        with pytest.raises(TypeError, match=name):
            TrainSession.build(DLRM(config, seed=7), DPConfig(),
                               ExecutionPlan(shards=2), **{name: None})

    @pytest.mark.parametrize("spec", ["shards=5", "shards=5,backend=threads",
                                      "shards=5,backend=process"])
    def test_every_backend_cuts_equal_row_ranges(self, config, spec):
        """48 rows over five shards: the same uneven cut on every
        backend, the router's and the shard windows' alike."""
        from repro.shard import row_range_bounds

        with TrainSession.build(DLRM(config, seed=7), DPConfig(),
                                ExecutionPlan.from_spec(spec)) as session:
            engine = session.trainer.engine
            for t, bounds in enumerate(engine.router.bounds):
                expected = row_range_bounds(config.table_rows[t], 5)
                assert bounds.tolist() == expected.tolist() == [
                    0, 10, 19, 29, 38, 48
                ]
                for s, state in enumerate(engine.states):
                    if hasattr(state, "windows"):  # process workers hold theirs
                        assert state.windows[t].row_base == bounds[s]

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
            assert stats["plan"] == plan.to_spec()
            assert "pipeline" in stats
            assert len(stats["shards"]["update_seconds"]) == 2

    @pytest.mark.parametrize("plan", plan_matrix(),
                             ids=lambda plan: plan.to_spec())
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
