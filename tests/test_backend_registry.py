"""The execution-backend registry.

The registry (``repro.session.registry``) is the single source of truth
for what ``ExecutionPlan.backend`` may name: plan validation, the
session builder and the ``repro backends`` table all iterate it, and
``register_backend`` is the extension point third-party backends use —
a backend resolves to *how shard tasks run*, bound into the one
trainer.
"""

import pytest

from repro import configs
from repro.session import (
    BACKEND_CAPABILITIES,
    BackendInfo,
    ExecutionPlan,
    TrainSession,
    available_backends,
    backend_info,
    parse_backend_spec,
    register_backend,
)
from repro.session.registry import _REGISTRY


@pytest.fixture
def scratch_backend():
    """Register-and-clean-up helper for tests that extend the registry."""
    registered = []

    def _register(name, factory, capabilities=(), description=""):
        register_backend(name, factory, capabilities=capabilities,
                         description=description)
        registered.append(name)
        return backend_info(name)

    yield _register
    for name in registered:
        _REGISTRY.pop(name, None)


class TestRegistry:
    def test_builtins_are_registered(self):
        assert available_backends() == ("numpy", "threads", "process")

    def test_backend_info_fields(self):
        info = backend_info("threads")
        assert isinstance(info, BackendInfo)
        assert info.name == "threads"
        assert info.supports("workers")
        assert not info.supports("flat")
        assert backend_info("numpy").supports("flat")
        assert backend_info("process").supports("shards")
        assert not backend_info("process").supports("pipeline")

    def test_a_backend_is_how_shard_tasks_run_and_nothing_else(self):
        # No kernel-table name, no availability probe: every backend
        # runs the one kernel set and none depends on an optional extra.
        fields = set(BackendInfo.__dataclass_fields__)
        assert fields == {"name", "factory", "capabilities", "description"}
        info = backend_info("numpy")
        assert not hasattr(info, "kernels")
        assert not hasattr(info, "availability")
        assert not hasattr(info, "available")

    def test_numba_is_an_ordinary_unknown_backend_name(self):
        with pytest.raises(ValueError, match="unknown backend") as excinfo:
            ExecutionPlan.from_spec("backend=numba")
        assert "registered: numpy, threads, process;" in str(excinfo.value)

    def test_unknown_backend_error_lists_registered_names(self):
        with pytest.raises(ValueError) as excinfo:
            backend_info("cuda")
        message = str(excinfo.value)
        for name in available_backends():
            assert name in message
        assert "register_backend" in message

    def test_register_backend_extends_plan_validation(self, scratch_backend):
        scratch_backend(
            "scratch", lambda **kwargs: object,
            capabilities=("flat", "shards"),
        )
        assert "scratch" in available_backends()
        plan = ExecutionPlan(backend="scratch")
        assert plan.backend == "scratch"
        unknown_error = None
        try:
            ExecutionPlan(backend="still_unknown")
        except ValueError as error:
            unknown_error = str(error)
        assert unknown_error is not None and "scratch" in unknown_error

    def test_register_rejects_duplicates_and_bad_input(self, scratch_backend):
        scratch_backend("dupe", lambda **kwargs: object,
                        capabilities=("flat",))
        with pytest.raises(ValueError, match="already registered"):
            register_backend("dupe", lambda **kwargs: object)
        with pytest.raises(ValueError, match="name"):
            register_backend("bad name!", lambda **kwargs: object)
        with pytest.raises(ValueError, match="callable"):
            register_backend("notafactory", "nope")
        with pytest.raises(ValueError, match="capabilit"):
            register_backend("badcaps", lambda **kwargs: object,
                             capabilities=("time_travel",))

    def test_capability_vocabulary_is_closed(self):
        for name in available_backends():
            assert backend_info(name).capabilities <= set(BACKEND_CAPABILITIES)


class TestBackendSpecs:
    def test_parse_forms(self):
        assert parse_backend_spec("threads") == ("threads", None)
        assert parse_backend_spec("threads:4") == ("threads", 4)
        assert parse_backend_spec("process") == ("process", None)

    def test_parse_rejects_bad_worker_counts(self):
        with pytest.raises(ValueError, match="worker"):
            parse_backend_spec("threads:zero")
        with pytest.raises(ValueError, match="worker"):
            parse_backend_spec("threads:0")
        # numpy has no "workers" capability: a count is meaningless.
        with pytest.raises(ValueError, match="worker"):
            ExecutionPlan(backend="numpy:2")

    def test_flat_plan_requires_flat_capability(self):
        with pytest.raises(ValueError, match="shards"):
            ExecutionPlan(backend="threads")
        with pytest.raises(ValueError, match="shards"):
            ExecutionPlan.from_spec("backend=process")

    def test_process_pins_one_worker_per_shard(self):
        plan = ExecutionPlan.from_spec("shards=3,backend=process:3")
        assert parse_backend_spec(plan.backend) == ("process", 3)
        with pytest.raises(ValueError, match="process:4"):
            ExecutionPlan.from_spec("shards=3,backend=process:4")

    def test_process_composes_with_neither_pipeline_nor_async(self):
        with pytest.raises(ValueError, match="pipeline"):
            ExecutionPlan.from_spec("shards=2,backend=process,pipeline=2")
        with pytest.raises(ValueError, match="async"):
            ExecutionPlan.from_spec("shards=2,backend=process,async=strict")

    def test_process_spec_round_trips(self):
        for spec in ("ans=on,shards=2,partition=row_range,backend=process",
                     "ans=off,shards=7,partition=frequency,backend=process:7"):
            plan = ExecutionPlan.from_spec(spec)
            assert plan.to_spec() == spec
            assert ExecutionPlan.from_dict(plan.to_dict()) == plan


class TestRemovedExecutorSpelling:
    def test_shard_config_has_no_executor_fields(self):
        fields = {field for field in configs.ShardConfig.__dataclass_fields__}
        assert fields == {"num_shards", "partition"}
        with pytest.raises(TypeError):
            configs.ShardConfig(num_shards=4, executor="threads")
        with pytest.raises(ValueError, match="unknown ShardConfig keys"):
            configs.ShardConfig.from_dict({"num_shards": 2, "max_workers": 2})

    def test_spec_keys_are_unknown(self):
        with pytest.raises(ValueError, match="unknown key 'executor'"):
            ExecutionPlan.from_spec("shards=2,executor=threads")
        with pytest.raises(ValueError, match="unknown key 'workers'"):
            ExecutionPlan.from_spec("shards=2,workers=2")

    def test_backend_axis_says_the_same(self):
        plan = ExecutionPlan.from_spec("shards=2,backend=threads:2")
        assert plan.to_spec() == (
            "ans=on,shards=2,partition=row_range,backend=threads:2"
        )


class TestBuildResolvesThroughRegistry:
    @pytest.fixture
    def model(self):
        from repro.nn import DLRM

        return DLRM(configs.tiny_dlrm(num_tables=2, rows=32, dim=4), seed=7)

    def build(self, model, spec):
        from repro.train import DPConfig

        return TrainSession.build(
            model, DPConfig(), ExecutionPlan.from_spec(spec)
        )

    def test_builtin_backends_bind_their_executor(self, model):
        from repro.lazydp import LazyDPTrainer
        from repro.procshard import ProcessShardedLazyDPTrainer

        for spec, executor in (("shards=2", "serial"),
                               ("shards=2,backend=threads", "threads"),
                               ("shards=2,backend=threads:3", "threads")):
            with self.build(model, spec) as session:
                assert type(session.trainer) is LazyDPTrainer
                assert session.trainer.scheduler.executor.name == executor
        with self.build(model, "shards=2,backend=process") as session:
            assert type(session.trainer) is ProcessShardedLazyDPTrainer
            assert session.trainer.scheduler.executor.name == "process"

    def test_custom_backend_runs_the_shard_tasks(self, model,
                                                 scratch_backend):
        from functools import partial

        from repro.lazydp import LazyDPTrainer
        from repro.shard import SerialExecutor
        from repro.testing import make_loader

        class CountingExecutor(SerialExecutor):
            name = "counting"
            runs = 0

            def run(self, tasks):
                CountingExecutor.runs += 1
                return super().run(tasks)

        scratch_backend(
            "counting",
            lambda *, num_shards, workers: partial(
                LazyDPTrainer, executors=CountingExecutor
            ),
            capabilities=("shards",),
        )
        with self.build(model, "shards=2,backend=counting") as session:
            assert isinstance(
                session.trainer.scheduler.executor, CountingExecutor
            )
            session.fit(make_loader(model.config, batch_size=8, num_batches=3))
        # One fan-out per step (every table) plus the terminal flush.
        assert CountingExecutor.runs == 3 + 1
