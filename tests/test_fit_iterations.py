"""Iterations belong to the trainer: noise keys never repeat.

Noise is a pure function of ``(seed, domain, table or parameter, row,
iteration)``, so a step at an iteration some earlier step already ran
would draw that step's noise again.  ``fit`` numbers its steps on from
``current_iteration()``, and every trainer refuses a step at or below
it before any array moves.
"""

import numpy as np
import pytest

from repro import configs
from repro.data import LookaheadLoader
from repro.nn import DLRM
from repro.rng import NoiseStream
from repro.session import ExecutionPlan, TrainSession, make_trainer
from repro.testing import make_loader, max_param_diff
from repro.train import DPConfig

ALGORITHMS = ("sgd", "dpsgd_b", "dpsgd_r", "dpsgd_f", "eana", "lazydp",
              "lazydp_no_ans")
PLANS = ("async=strict,inflight=2", "shards=2,backend=process")
BATCH = 16


@pytest.fixture
def config():
    return configs.tiny_dlrm(num_tables=2, rows=48, dim=8, lookups=2)


def loaders(config):
    """Two loaders over different batches: the two fits' data."""
    return (make_loader(config, batch_size=BATCH, num_batches=3, seed=5),
            make_loader(config, batch_size=BATCH, num_batches=2, seed=6))


def build(config, algorithm):
    model = DLRM(config, seed=7)
    if "=" in algorithm:
        plan = ExecutionPlan.from_spec(algorithm)
        session = TrainSession.build(model, DPConfig(), plan, noise_seed=99)
        return session.trainer
    return make_trainer(algorithm, model, DPConfig(), noise_seed=99)


def state_of(trainer) -> dict:
    """Every array a step may move: parameters, histories, ledgers."""
    state = {
        name: param.data.copy()
        for name, param in trainer.model.parameters().items()
    }
    engine = getattr(trainer, "engine", None)
    if engine is not None:
        for t, history in enumerate(engine.histories):
            state[f"history/{t}"] = history.snapshot().copy()
        for t, vector in enumerate(engine.ledger):
            state[f"ledger/{t}"] = vector.snapshot().copy()
    return state


def assert_same_state(before: dict, after: dict) -> None:
    assert before.keys() == after.keys()
    for name, data in before.items():
        assert np.array_equal(data, after[name]), name


@pytest.fixture
def draws(monkeypatch):
    """Every keyed noise coordinate drawn, as ``(key, row, iteration)``
    sets, one per :func:`start` call."""
    kernel = NoiseStream.__dict__["_keyed_gaussians"].__func__
    spans: list = [set()]  # what is drawn before the first start()

    def recording(raw_key, rows, iteration, scale, out):
        ids = np.asarray(rows, dtype=np.int64)
        iterations = np.broadcast_to(
            np.asarray(iteration, dtype=np.int64), ids.shape
        )
        key = raw_key.tobytes()
        spans[-1].update(
            (key, row, it)
            for row, it in zip(ids.tolist(), iterations.tolist())
        )
        return kernel(raw_key, rows, iteration, scale, out)

    monkeypatch.setattr(
        NoiseStream, "_keyed_gaussians", staticmethod(recording)
    )

    def start() -> set:
        spans.append(set())
        return spans[-1]

    return start


@pytest.mark.parametrize("algorithm", ["dpsgd_f", "eana"])
def test_two_fits_are_one_run(config, algorithm):
    """fit(a) then fit(b) == manual steps 1..|a|+|b| over the same
    batches, plus finalize, bitwise; the accountant charges each once."""
    first, second = loaders(config)
    fitted = build(config, algorithm)
    results = [fitted.fit(first), fitted.fit(second)]
    assert [result.iterations for result in results] == [3, 2]
    assert fitted.current_iteration() == 5
    assert fitted.accountant.steps == 5

    stepped = build(config, algorithm)
    stepped.expected_batch_size = BATCH
    iteration = 0
    for loader in loaders(config):
        for _, batch, upcoming in LookaheadLoader(loader):
            iteration += 1
            stepped.train_step(iteration, batch, upcoming)
    stepped.finalize(iteration)
    assert_same_state(state_of(stepped), state_of(fitted))


@pytest.mark.parametrize("algorithm", ALGORITHMS + PLANS)
def test_a_second_fit_draws_no_coordinate_again(config, algorithm, draws):
    trainer = build(config, algorithm)
    try:
        first, second = loaders(config)
        drawn_first = draws()
        trainer.fit(first)
        drawn_second = draws()
        trainer.fit(second)
        assert trainer.current_iteration() == 5
        assert not drawn_first & drawn_second
        if algorithm != "sgd":
            assert drawn_second
    finally:
        getattr(trainer, "close", lambda: None)()


@pytest.mark.parametrize("algorithm", ALGORITHMS + PLANS)
@pytest.mark.parametrize("replay", [2, 3])
def test_a_refused_step_moves_nothing(config, algorithm, replay):
    trainer = build(config, algorithm)
    try:
        trainer.expected_batch_size = BATCH
        entries = list(LookaheadLoader(loaders(config)[0]))
        for index, batch, upcoming in entries:
            trainer.train_step(index + 1, batch, upcoming)
        before = state_of(trainer)
        _, batch, upcoming = entries[0]
        with pytest.raises(ValueError, match="not after the trainer's"):
            trainer.train_step(replay, batch, upcoming)
        assert_same_state(before, state_of(trainer))
        assert trainer.current_iteration() == 3
        if hasattr(trainer, "procshard_stats"):
            # Refused before the plan went out: nothing is staged.
            for worker in trainer.procshard_stats()["workers"]:
                assert worker["staged"] == 0
    finally:
        getattr(trainer, "close", lambda: None)()


def step_manually(trainer, loader) -> None:
    trainer.expected_batch_size = BATCH
    for index, batch, upcoming in LookaheadLoader(loader):
        trainer.train_step(index + 1, batch, upcoming)


@pytest.mark.parametrize("algorithm", ("lazydp", "lazydp_no_ans") + PLANS)
def test_a_fit_after_manual_steps_is_a_fit_after_a_fit(config, algorithm):
    """A step catches up only the next batch's rows, so a LazyDP fit on
    unflushed state first flushes what the manual steps deferred: manual
    steps then fit(b) is fit(a) then fit(b), bitwise."""
    fitted, stepped = build(config, algorithm), build(config, algorithm)
    try:
        first, second = loaders(config)
        fitted.fit(first)
        fitted.fit(second)
        first, second = loaders(config)
        step_manually(stepped, first)
        stepped.fit(second)
        assert_same_state(state_of(fitted), state_of(stepped))
    finally:
        for trainer in (fitted, stepped):
            getattr(trainer, "close", lambda: None)()


def test_a_fit_after_manual_steps_trains_on_current_rows(config):
    """Without ANS, LazyDP is eager DP-SGD(F) within rounding — also
    when a fit follows manual steps whose deferred noise is unflushed."""
    models = []
    for algorithm in ("lazydp_no_ans", "dpsgd_f"):
        trainer = build(config, algorithm)
        first, second = loaders(config)
        step_manually(trainer, first)
        trainer.fit(second)
        models.append(trainer.model)
    assert max_param_diff(*models) < 1e-9
