"""Tests for learning-rate schedules under lazy noise.

The critical property: a deferred noise value must carry its *origin*
iteration's learning rate.  LazyDP under a schedule (ANS off) must
therefore match eager scheduled DP-SGD exactly, for any schedule — and
because the origin weighting lives inside the one sample-stage mechanism
(``repro.lazydp.ans.ANSEngine``), every execution plan, the flush,
``export_private_model`` and the serving engine must agree bitwise with
each other under that schedule.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import configs
from repro.data import DataLoader, LookaheadLoader, SyntheticClickDataset
from repro.lazydp import export_private_model, load_checkpoint, save_checkpoint
from repro.nn import DLRM
from repro.serve import PrivateServingEngine
from repro.session import ExecutionPlan, TrainSession
from repro.train import DPConfig, DPSGDFTrainer
from repro.train.schedules import (
    ConstantLR,
    LinearWarmupLR,
    StepDecayLR,
)

from repro.testing import max_param_diff


@pytest.fixture
def config():
    return configs.tiny_dlrm(num_tables=2, rows=48, dim=8, lookups=2)


DP = DPConfig(noise_multiplier=1.1, max_grad_norm=1.0, learning_rate=0.05)


def make_loader(config, iterations=8):
    dataset = SyntheticClickDataset(config, seed=3, num_examples=1 << 12)
    return DataLoader(dataset, batch_size=16, num_batches=iterations, seed=5)


def run_eager(config, schedule, iterations=8, noise_seed=99):
    """Eager DP-SGD(F) under ``schedule``: iteration ``k`` applies
    ``- rate(k) * (grad + n_k)``."""
    model = DLRM(config, seed=7)
    trainer = DPSGDFTrainer(model, DP, noise_seed=noise_seed,
                            schedule=schedule)
    result = trainer.fit(make_loader(config, iterations))
    return model, result, trainer


def lazy_session(config, schedule, spec="", noise_seed=99, model_seed=7):
    return TrainSession.build(
        DLRM(config, seed=model_seed), DP, ExecutionPlan.from_spec(spec),
        noise_seed=noise_seed, schedule=schedule,
    )


def run_lazy(config, schedule, spec="", iterations=8, noise_seed=99):
    """LazyDP under ``schedule`` and the plan ``spec`` (default serial)."""
    with lazy_session(config, schedule, spec, noise_seed) as session:
        result = session.fit(make_loader(config, iterations))
    return session.model, result, session.trainer


def step_manually(session, entries):
    """Train ``entries`` of a LookaheadLoader without finalizing."""
    session.trainer.expected_batch_size = 16
    for index, batch, upcoming in entries:
        session.train_step(index + 1, batch, upcoming)


class TestScheduleValues:
    def test_constant(self):
        schedule = ConstantLR(0.1)
        assert schedule.rate(1) == schedule.rate(100) == 0.1

    def test_step_decay(self):
        schedule = StepDecayLR(0.2, factor=0.5, step_size=3)
        assert schedule.rate(1) == 0.2
        assert schedule.rate(3) == 0.2
        assert schedule.rate(4) == 0.1
        assert schedule.rate(7) == 0.05

    def test_linear_warmup(self):
        schedule = LinearWarmupLR(0.1, warmup=4)
        assert schedule.rate(1) == pytest.approx(0.025)
        assert schedule.rate(4) == pytest.approx(0.1)
        assert schedule.rate(9) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantLR(0.0)
        with pytest.raises(ValueError):
            StepDecayLR(0.1, factor=1.5)
        with pytest.raises(ValueError):
            LinearWarmupLR(0.1, warmup=0)
        with pytest.raises(ValueError):
            StepDecayLR(0.1).rate(0)


class TestSumSquaresWindow:
    def test_matches_direct_sum(self):
        schedule = StepDecayLR(0.3, factor=0.7, step_size=2)
        delays = np.array([0, 1, 3, 7])
        window = schedule.sum_squares_window(7, delays)
        for delay, value in zip(delays, window):
            direct = sum(
                schedule.rate(k) ** 2 for k in range(7 - delay + 1, 8)
            )
            assert value == pytest.approx(direct)

    def test_zero_delay_is_zero(self):
        schedule = ConstantLR(0.1)
        assert schedule.sum_squares_window(5, np.array([0]))[0] == 0.0

    def test_rejects_overlong_delay(self):
        schedule = ConstantLR(0.1)
        with pytest.raises(ValueError):
            schedule.sum_squares_window(3, np.array([4]))

    def test_constant_reduces_to_delay_scaling(self):
        schedule = ConstantLR(0.2)
        window = schedule.sum_squares_window(10, np.array([5]))
        assert window[0] == pytest.approx(5 * 0.2 ** 2)


class TestScheduledEquivalence:
    @pytest.mark.parametrize("make_schedule", [
        lambda: ConstantLR(0.05),
        lambda: StepDecayLR(0.1, factor=0.5, step_size=3),
        lambda: LinearWarmupLR(0.08, warmup=4),
    ])
    def test_lazy_matches_eager_exactly(self, config, make_schedule):
        """The headline: origin-scaled lazy noise == eager, per schedule."""
        eager, _, _ = run_eager(config, make_schedule())
        lazy, _, _ = run_lazy(config, make_schedule(), "ans=off")
        assert max_param_diff(eager, lazy) < 1e-9

    def test_constant_schedule_matches_plain_trainers(self, config):
        """ConstantLR(lr) must reproduce the unscheduled implementation —
        bitwise: the eager update reads the same rate either way."""
        from repro.testing import train_algorithm

        plain, _, _ = train_algorithm("dpsgd_f", config, num_batches=8)
        scheduled, _, _ = run_eager(config, ConstantLR(0.05))
        assert max_param_diff(plain, scheduled) == 0.0

    def test_constant_lazy_matches_plain_lazy(self, config):
        """Bitwise now (was ``< 1e-12`` against the forked trainer):
        under a constant schedule every origin weight is exactly 1 and
        the weighted walk sums the draws in the unweighted order."""
        from repro.testing import train_algorithm

        plain, _, _ = train_algorithm("lazydp_no_ans", config, num_batches=8)
        scheduled, _, _ = run_lazy(config, ConstantLR(0.05), "ans=off")
        assert max_param_diff(plain, scheduled) == 0.0

    @settings(max_examples=10, deadline=None)
    @given(
        st.floats(min_value=0.3, max_value=0.9),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=500),
    )
    def test_equivalence_property_over_schedules(self, factor, step, seed):
        config = configs.tiny_dlrm(num_tables=2, rows=32, dim=4, lookups=2)
        schedule_a = StepDecayLR(0.1, factor=factor, step_size=step)
        schedule_b = StepDecayLR(0.1, factor=factor, step_size=step)
        eager, _, _ = run_eager(config, schedule_a, iterations=6,
                                noise_seed=seed)
        lazy, _, _ = run_lazy(config, schedule_b, "ans=off", iterations=6,
                              noise_seed=seed)
        assert max_param_diff(eager, lazy) < 1e-9

    def test_wrong_scaling_would_differ(self, config):
        """Sanity: the distinction matters — applying catch-up noise at the
        *current* rate diverges from eager under a decaying schedule."""
        schedule = StepDecayLR(0.1, factor=0.25, step_size=2)
        eager, _, _ = run_eager(config, schedule)
        # Plain LazyDP with a naive constant-lr config at the final rate —
        # the "obvious wrong implementation".
        from repro.testing import train_algorithm
        wrong, _, _ = train_algorithm(
            "lazydp_no_ans", config, num_batches=8,
            dp=DPConfig(noise_multiplier=1.1, max_grad_norm=1.0,
                        learning_rate=0.1),
        )
        assert max_param_diff(eager, wrong) > 1e-6


class TestScheduledANS:
    def test_ans_variance_uses_window_sum(self):
        """Untouched-row noise std must equal std * sqrt(sum eta_k^2)."""
        config = configs.tiny_dlrm(num_tables=1, rows=512, dim=16, lookups=1)
        iterations = 9
        schedule = StepDecayLR(1.0, factor=0.5, step_size=3)
        dp = DPConfig(noise_multiplier=2.0, max_grad_norm=1.0,
                      learning_rate=1.0)
        reference = DLRM(config, seed=7)

        model = DLRM(config, seed=7)
        dataset = SyntheticClickDataset(config, seed=3, num_examples=1 << 12)
        loader = DataLoader(dataset, batch_size=2, num_batches=iterations,
                            seed=5)
        with TrainSession.build(model, dp, noise_seed=99,
                                schedule=schedule) as session:
            session.fit(loader)

        noise = (
            model.embeddings[0].table.data
            - reference.embeddings[0].table.data
        ).ravel()
        base_std = 2.0 * 1.0 / 2  # sigma * C / B
        window = schedule.sum_squares_window(
            iterations, np.array([iterations])
        )[0]
        expected_std = base_std * np.sqrt(window)
        observed = np.subtract(*np.percentile(noise, [75, 25])) / 1.349
        assert observed == pytest.approx(expected_std, rel=0.1)

    def test_history_flushed(self, config):
        _, _, trainer = run_lazy(config, LinearWarmupLR(0.05, warmup=3))
        for history in trainer.engine.histories:
            assert history.pending_rows(8).size == 0


def decay():
    """The schedule of the parent-commit repro (ISSUE 21): fast enough
    a decay that a release at the current rate is 1e-2 off."""
    return StepDecayLR(0.1, factor=0.25, step_size=2)


class TestOneSpellingUnderASchedule:
    """Every consumer of the mechanism agrees bitwise under a schedule."""

    @pytest.mark.parametrize("ans", ["ans=on", "ans=off"])
    @pytest.mark.parametrize("spec", [
        "shards=5",  # uneven: 48 rows over five ranges
        "shards=2,backend=threads:2,pipeline=2",
        "pipeline=2,async=strict,inflight=2",
        "shards=2,backend=process",
    ])
    def test_every_plan_releases_the_serial_bits(self, config, spec, ans):
        serial, _, _ = run_lazy(config, decay(), ans)
        model, _, trainer = run_lazy(config, decay(), f"{ans},{spec}")
        assert max_param_diff(serial, model) == 0.0
        trainer.audit_noise_ledger(8)

    @pytest.mark.parametrize("spec", ["ans=on", "ans=off", "ans=off,shards=2"])
    def test_export_and_serve_equal_the_flush(self, config, spec):
        """``export_private_model(i)`` and the served rows are a twin
        trainer's ``finalize(i)``, bitwise (1.4e-2 apart on the parent:
        both released at ``config.learning_rate`` through an unweighted
        sampler)."""
        entries = list(LookaheadLoader(make_loader(config)))
        with lazy_session(config, decay(), spec) as twin:
            step_manually(twin, entries)
            twin.finalize(8)
        with lazy_session(config, decay(), spec) as live:
            step_manually(live, entries)
            exported = export_private_model(live.trainer, 8)
            engine = PrivateServingEngine.from_trainer(live.trainer, iteration=8)
            rows = np.array([5, 0, 47, 5])
            looked_up = [engine.lookup(t, rows) for t in range(2)]
            served = engine.export()
        flushed = twin.model.parameters()
        assert exported.keys() == served.keys() == flushed.keys()
        for name, param in flushed.items():
            np.testing.assert_array_equal(exported[name], param.data)
            np.testing.assert_array_equal(served[name], param.data)
        for t, name in enumerate(twin.model.embedding_param_names):
            np.testing.assert_array_equal(looked_up[t], flushed[name].data[rows])

    def test_attached_engine_follows_the_rate(self, config):
        """A refresh re-reads the rate of the iteration it lands on."""
        entries = list(LookaheadLoader(make_loader(config)))
        with lazy_session(config, decay(), "ans=off") as live:
            step_manually(live, entries[:3])
            engine = live.serve()
            assert engine.learning_rate == decay().rate(3)
            with engine.quiesce():
                step_manually(live, entries[3:6])
            served = engine.export()
            assert engine.learning_rate == decay().rate(6)
            exported = export_private_model(live.trainer, 6)
        for name, released in exported.items():
            np.testing.assert_array_equal(served[name], released)

    @pytest.mark.parametrize("spec", ["ans=on", "ans=off,shards=2"])
    def test_resume_equals_uninterrupted_run(self, config, spec, tmp_path):
        """save -> load -> resume under a schedule is bitwise the
        uninterrupted run: the archive carries histories and progress,
        the resuming session is built with the same schedule."""
        whole, _, _ = run_lazy(config, decay(), spec)
        entries = list(LookaheadLoader(make_loader(config)))
        path = tmp_path / "cut.npz"
        with lazy_session(config, decay(), spec) as first:
            step_manually(first, entries[:5])
            save_checkpoint(path, first.trainer, iteration=5)
        # A differently-seeded model: every bit must come from the archive.
        with lazy_session(config, decay(), spec, model_seed=70) as resumed:
            assert load_checkpoint(path, resumed.trainer) == 5
            step_manually(resumed, entries[5:])
            resumed.finalize(8)
        assert max_param_diff(whole, resumed.model) == 0.0

    def test_mechanism_survives_pickling(self):
        """What a spawn-started worker receives in ``WorkerInit`` draws
        the prototype's bits."""
        import pickle

        from repro.lazydp import ANSEngine
        from repro.rng import NoiseStream

        rows, delays = np.array([2, 9, 30]), np.array([1, 4, 6])
        for enabled in (True, False):
            mechanism = ANSEngine(NoiseStream(7), enabled, decay())
            shipped = pickle.loads(pickle.dumps(mechanism))
            np.testing.assert_array_equal(
                shipped.catchup_noise(1, rows, delays, 6, 8, 0.3),
                mechanism.fork().catchup_noise(1, rows, delays, 6, 8, 0.3),
            )

    def test_forks_share_the_schedule_but_not_its_cache(self, config):
        with lazy_session(config, decay(), "shards=2") as session:
            trainer = session.trainer
            forks = [state.ans for state in trainer.engine.states]
            forks.append(trainer.engine.ans)
        for fork in forks:
            assert fork is not trainer.mechanism
            assert fork.enabled and fork.noise_stream is trainer.noise_stream
            assert fork.schedule is not trainer.schedule
            assert fork.schedule.rate(3) == decay().rate(3)
            assert fork.samples_drawn == 0
