"""Property-based equivalence: LazyDP == DP-SGD on *random* geometries,
and every execution plan == the serial plan.

The handwritten equivalence tests pin one configuration; these let
hypothesis pick the model geometry, batch size, iteration count, pooling
factor and seeds — if any corner of the configuration space broke the
lazy-schedule argument (tiny tables, pooling larger than the table,
single-iteration runs, batch bigger than unique rows, ...), this is where
it would surface.  The plan-space tests at the end do the same for the
``ExecutionPlan.from_spec`` language: a generated plan must release the
serial plan's bits (or, under ``bounded:k``, audit clean) — under a
generated learning-rate schedule too, since the origin weighting of
deferred noise lives in the one sample-stage mechanism every plan forks
— and a failure shrinks to a minimal canonical spec.
"""

import numpy as np
from hypothesis import HealthCheck, given, note, settings
from hypothesis import strategies as st

from repro.configs import DLRMConfig
from repro.data import DataLoader, LookaheadLoader, SyntheticClickDataset
from repro.lazydp.checkpoint import load_checkpoint, save_checkpoint
from repro.nn import DLRM
from repro.session import ExecutionPlan, TrainSession, make_trainer
from repro.train import DPConfig
from repro.train.schedules import LinearWarmupLR, StepDecayLR

from repro.testing import max_param_diff


geometries = st.fixed_dictionaries({
    "num_tables": st.integers(min_value=1, max_value=4),
    "rows": st.integers(min_value=4, max_value=96),
    "dim": st.sampled_from([2, 4, 8]),
    "lookups": st.integers(min_value=1, max_value=6),
    "batch": st.integers(min_value=1, max_value=24),
    "iterations": st.integers(min_value=1, max_value=7),
    "seed": st.integers(min_value=0, max_value=10_000),
})


def build_config(params) -> DLRMConfig:
    return DLRMConfig(
        name="prop",
        dense_features=3,
        bottom_mlp=(4, params["dim"]),
        embedding_dim=params["dim"],
        table_rows=(params["rows"],) * params["num_tables"],
        lookups_per_table=params["lookups"],
        top_mlp=(4, 1),
    )


def train(algorithm, params, dp=None):
    config = build_config(params)
    model = DLRM(config, seed=params["seed"] + 1)
    dataset = SyntheticClickDataset(
        config, seed=params["seed"] + 2, num_examples=512
    )
    loader = DataLoader(
        dataset, batch_size=min(params["batch"], 512),
        num_batches=params["iterations"], seed=params["seed"] + 3,
    )
    trainer = make_trainer(
        algorithm, model, dp or DPConfig(), noise_seed=params["seed"] + 4
    )
    trainer.fit(loader)
    return model, trainer


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(geometries)
def test_lazydp_exactly_matches_eager_dpsgd(params):
    """The central theorem, quantified over geometry."""
    eager, _ = train("dpsgd_f", params)
    lazy, _ = train("lazydp_no_ans", params)
    assert max_param_diff(eager, lazy) < 1e-9


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(geometries)
def test_variant_family_agrees(params):
    """B == F for arbitrary geometry (R == B is covered elsewhere)."""
    model_b, _ = train("dpsgd_b", params)
    model_f, _ = train("dpsgd_f", params)
    assert max_param_diff(model_b, model_f) < 1e-9


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(geometries)
def test_history_fully_flushed(params):
    """After fit(), no row owes noise, for any geometry."""
    _, trainer = train("lazydp", params)
    for history in trainer.engine.histories:
        assert history.pending_rows(params["iterations"]).size == 0


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(geometries, st.floats(min_value=0.0, max_value=3.0))
def test_equivalence_across_noise_levels(params, noise_multiplier):
    """Equivalence cannot depend on sigma (including sigma = 0)."""
    dp = DPConfig(noise_multiplier=noise_multiplier, max_grad_norm=1.0,
                  learning_rate=0.05)
    eager, _ = train("dpsgd_f", params, dp)
    lazy, _ = train("lazydp_no_ans", params, dp)
    assert max_param_diff(eager, lazy) < 1e-9


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(geometries)
def test_visible_rows_current_at_access(params):
    """Invariant form: every gathered row agrees with eager at gather time."""
    config = build_config(params)
    dp = DPConfig()
    eager_model = DLRM(config, seed=params["seed"] + 1)
    lazy_model = DLRM(config, seed=params["seed"] + 1)
    eager = make_trainer("dpsgd_f", eager_model, dp,
                         noise_seed=params["seed"] + 4)
    lazy = make_trainer("lazydp_no_ans", lazy_model, dp,
                        noise_seed=params["seed"] + 4)
    dataset = SyntheticClickDataset(
        config, seed=params["seed"] + 2, num_examples=512
    )
    loader = DataLoader(
        dataset, batch_size=min(params["batch"], 512),
        num_batches=params["iterations"], seed=params["seed"] + 3,
    )
    eager.expected_batch_size = loader.batch_size
    lazy.expected_batch_size = loader.batch_size
    for index, batch, upcoming in LookaheadLoader(loader):
        for table in range(config.num_tables):
            rows = batch.accessed_rows(table)
            np.testing.assert_allclose(
                lazy_model.embeddings[table].table.data[rows],
                eager_model.embeddings[table].table.data[rows],
                atol=1e-9,
            )
        eager.train_step(index + 1, batch, upcoming)
        lazy.train_step(index + 1, batch, upcoming)


# -- the plan space ----------------------------------------------------------

def _join(*parts) -> str:
    return ",".join(part for part in parts if part)


shard_axis = st.one_of(
    st.just(""),
    st.builds(
        "shards={},partition={}".format,
        st.integers(min_value=1, max_value=7),
        st.sampled_from(["row_range", "frequency", "hash"]),
    ),
)
pipeline_axis = st.sampled_from(["", "pipeline=1", "pipeline=2", "pipeline=4"])
async_axis = st.one_of(
    st.just(""),
    st.builds(
        "async={},inflight={}".format,
        st.sampled_from(["strict", "bounded:0", "bounded:1", "bounded:3"]),
        st.integers(min_value=1, max_value=4),
    ),
)
in_process_backends = st.sampled_from(
    ["", "backend=numpy", "backend=threads", "backend=threads:2"]
)


@st.composite
def in_process_plans(draw):
    """Any plan the spec language expresses on the in-process backends."""
    shards = draw(shard_axis)
    backend = draw(in_process_backends)
    if not shards and "threads" in backend:
        backend = ""  # the thread pool needs the shards axis
    return ExecutionPlan.from_spec(_join(
        draw(st.sampled_from(["ans=on", "ans=off"])), shards,
        draw(pipeline_axis), draw(async_axis), backend,
    ))


#: None (the constant ``DPConfig.learning_rate``) or a schedule whose
#: rate moves inside the 1-7 iterations a geometry trains.
schedules = st.one_of(
    st.none(),
    st.builds(
        StepDecayLR, st.just(0.1),
        factor=st.sampled_from([0.25, 0.5, 0.9]),
        step_size=st.integers(min_value=1, max_value=3),
    ),
    st.builds(
        LinearWarmupLR, st.just(0.08),
        warmup=st.integers(min_value=1, max_value=5),
    ),
)


def describe(schedule) -> str:
    if schedule is None:
        return "no schedule"
    fields = {k: v for k, v in vars(schedule).items() if not k.startswith("_")}
    return f"{type(schedule).__name__}{fields}"


def plan_loader(config, params, sampling):
    dataset = SyntheticClickDataset(
        config, seed=params["seed"] + 2, num_examples=512
    )
    return DataLoader(
        dataset, batch_size=min(params["batch"], 512),
        num_batches=params["iterations"], sampling=sampling,
        seed=params["seed"] + 3,
    )


def train_plan(plan, params, sampling, schedule=None):
    config = build_config(params)
    model = DLRM(config, seed=params["seed"] + 1)
    loader = plan_loader(config, params, sampling)
    with TrainSession.build(model, DPConfig(), plan,
                            noise_seed=params["seed"] + 4,
                            schedule=schedule) as session:
        session.fit(loader)
    return model, session.trainer


def check_plan_against_serial(plan, params, sampling, schedule=None):
    note(f"plan spec: {plan.canonical()} ({sampling} sampling, "
         f"{describe(schedule)})")
    model, trainer = train_plan(plan, params, sampling, schedule)
    if plan.is_async and not trainer.scheduler.staleness.is_strict:
        # bounded:k legitimately reorders reads around writes; the
        # ledger is what vouches for the noise accounting.
        assert trainer.ledger
    else:
        serial, _ = train_plan(ExecutionPlan(ans=plan.ans), params, sampling,
                               schedule)
        assert max_param_diff(serial, model) == 0.0, plan.canonical()
    trainer.audit_noise_ledger(params["iterations"])
    for history in trainer.engine.histories:
        assert history.pending_rows(params["iterations"]).size == 0


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(in_process_plans(), geometries, st.sampled_from(["fixed", "poisson"]),
       schedules)
def test_any_plan_releases_the_serial_plans_bits(plan, params, sampling,
                                                 schedule):
    """The ``engine == serial`` matrix, generated instead of enumerated."""
    check_plan_against_serial(plan, params, sampling, schedule)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.builds(
        "ans={},shards={},partition={},backend=process".format,
        st.sampled_from(["on", "off"]),
        st.integers(min_value=1, max_value=4),
        st.sampled_from(["row_range", "frequency", "hash"]),
    ),
    geometries,
    st.sampled_from(["fixed", "poisson"]),
    schedules,
)
def test_process_plans_release_the_serial_plans_bits(spec, params, sampling,
                                                     schedule):
    """Same bar across the process boundary, where the schedule travels
    pickled inside the mechanism (few examples: each one spawns a worker
    per shard)."""
    check_plan_against_serial(ExecutionPlan.from_spec(spec), params, sampling,
                              schedule)


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(geometries, st.data(), st.sampled_from(["fixed", "poisson"]))
def test_process_plan_resumes_bitwise_between_steps(tmp_path, params, data,
                                                    sampling):
    """save -> load -> continue under the per-step message order: a
    step's plan is sent at that step's entry, so a checkpoint taken
    between two steps finds no successor plan in flight, and the resumed
    run releases the serial plan's bits."""
    total = params["iterations"]
    cut = data.draw(st.integers(min_value=1, max_value=total), label="cut")
    serial, _ = train_plan(ExecutionPlan(), params, sampling)
    config = build_config(params)
    loader = plan_loader(config, params, sampling)
    entries = list(LookaheadLoader(loader))
    plan = ExecutionPlan.from_spec("shards=2,backend=process")
    path = tmp_path / f"cut-{cut}-of-{total}.npz"

    def session_for(model):
        session = TrainSession.build(model, DPConfig(), plan,
                                     noise_seed=params["seed"] + 4)
        session.trainer.expected_batch_size = loader.batch_size
        return session

    with session_for(DLRM(config, seed=params["seed"] + 1)) as first:
        for index, batch, upcoming in entries[:cut]:
            first.train_step(index + 1, batch, upcoming)
        for worker in first.trainer.procshard_stats()["workers"]:
            assert worker["staged"] == 0
        save_checkpoint(path, first.trainer, iteration=cut)
    # A differently-seeded model: every bit must come from the archive.
    model = DLRM(config, seed=params["seed"] + 99)
    with session_for(model) as resumed:
        assert load_checkpoint(path, resumed.trainer) == cut
        for index, batch, upcoming in entries[cut:]:
            resumed.train_step(index + 1, batch, upcoming)
        resumed.finalize(total)
        resumed.trainer.audit_noise_ledger(total)
    assert max_param_diff(serial, model) == 0.0
