"""Async shutdown edge cases: failures must propagate, never deadlock.

Three moving parts can die mid-training — the noise-prefetch worker
(plan/sample), the staging buffer between it and the trainer, and the
async apply worker — and each failure mode must surface as an exception
on the trainer thread's next step rather than leaving a producer or
consumer parked on a condition variable forever.  These are regression
tests with injected failures (a sampler that raises mid-prefetch, an
apply task that raises mid-write); every ``fit`` here is wrapped in a
timeout-free assertion precisely because the historical failure mode is
a hang, not a wrong answer.
"""

import threading
import time

import numpy as np
import pytest

from repro import configs
from repro.async_.apply import ApplyWorker
from repro.data import LookaheadLoader
from repro.lazydp import LedgerError
from repro.nn import DLRM
from repro.session import ExecutionPlan, TrainSession
from repro.testing import make_loader
from repro.train import DPConfig


@pytest.fixture
def config():
    return configs.tiny_dlrm(num_tables=2, rows=32, dim=8, lookups=2)


def spec_trainer(spec, config):
    return TrainSession.build(
        DLRM(config, seed=7),
        DPConfig(noise_multiplier=1.1, max_grad_norm=1.0,
                 learning_rate=0.05),
        ExecutionPlan.from_spec(spec), noise_seed=99,
    ).trainer


def fail_stage(trainer, stage, fail_at_iteration, message):
    """Make every shard's ``stage`` (``plan_sample`` / ``apply``) raise
    from ``fail_at_iteration`` on; both take the iteration as their
    second-to-last / last positional argument."""
    position = {"plan_sample": 3, "apply": 5}[stage]
    for state in trainer.engine.states:
        original = getattr(state, stage)

        def failing(*args, _original=original):
            if args[position] >= fail_at_iteration:
                raise RuntimeError(message)
            return _original(*args)

        setattr(state, stage, failing)


class TestFailingSamplerPropagates:
    """The satellite regression: a sampler exploding mid-prefetch must
    reach ``train_step`` as an exception, not deadlock the pipeline."""

    def _install_failing_sampler(self, trainer, fail_at_iteration=2):
        fail_stage(trainer, "plan_sample", fail_at_iteration,
                   "injected sampler failure")

    def test_pipelined_trainer_raises(self, config):
        trainer = spec_trainer("pipeline=2", config)
        self._install_failing_sampler(trainer)
        with pytest.raises(RuntimeError, match="noise-prefetch worker"):
            trainer.fit(make_loader(config, batch_size=16, num_batches=6))
        assert not trainer.scheduler.running
        trainer.close()

    def test_async_trainer_raises(self, config):
        trainer = spec_trainer("async=strict,inflight=2", config)
        self._install_failing_sampler(trainer)
        with pytest.raises(RuntimeError, match="noise-prefetch worker"):
            trainer.fit(make_loader(config, batch_size=16, num_batches=6))
        assert not trainer.scheduler.running
        trainer.close()

    def test_async_trainer_survives_failure_on_first_plan(self, config):
        trainer = spec_trainer("async=strict,inflight=4", config)
        self._install_failing_sampler(trainer, fail_at_iteration=1)
        with pytest.raises(RuntimeError, match="noise-prefetch worker"):
            trainer.fit(make_loader(config, batch_size=16, num_batches=6))
        trainer.close()


class TestFailingApplyPropagates:
    def _install_failing_apply(self, trainer, fail_at_iteration=2):
        fail_stage(trainer, "apply", fail_at_iteration,
                   "injected apply failure")

    @pytest.mark.parametrize("staleness", ["strict", "bounded:2"])
    def test_flat_apply_failure_raises(self, config, staleness):
        trainer = spec_trainer(f"async={staleness},inflight=2", config)
        self._install_failing_apply(trainer)
        with pytest.raises(RuntimeError, match="apply worker"):
            trainer.fit(make_loader(config, batch_size=16, num_batches=8))
        trainer.close()

    def test_sharded_apply_failure_raises(self, config):
        trainer = spec_trainer(
            "shards=2,async=strict,inflight=2,backend=threads", config
        )
        self._install_failing_apply(trainer)
        with pytest.raises(RuntimeError, match="apply worker"):
            trainer.fit(make_loader(config, batch_size=16, num_batches=8))
        trainer.close()

    def test_failure_with_deep_in_flight_window_no_deadlock(self, config):
        """With the cap far above the iteration count, the failing apply
        must still unblock every later submit (the semaphore-release
        regression)."""
        trainer = spec_trainer("async=bounded:4,inflight=1", config)
        self._install_failing_apply(trainer, fail_at_iteration=1)
        with pytest.raises(RuntimeError, match="apply worker"):
            trainer.fit(make_loader(config, batch_size=16, num_batches=8))
        trainer.close()


class TestApplyWorkerUnit:
    def test_fifo_watermark(self):
        worker = ApplyWorker(max_in_flight=2)
        worker.start()
        landed = []
        for iteration in (1, 2, 3):
            worker.submit(iteration, lambda i=iteration: landed.append(i))
        worker.wait_for(3)
        assert landed == [1, 2, 3]
        assert worker.applied_through == 3
        assert worker.applies_completed == 3
        worker.close()

    def test_failure_reraised_on_submit_and_wait(self):
        worker = ApplyWorker(max_in_flight=2)
        worker.start()

        def boom():
            raise ValueError("task exploded")

        worker.submit(1, boom)
        with pytest.raises(RuntimeError, match="apply worker failed"):
            worker.wait_for(1)
        with pytest.raises(RuntimeError, match="apply worker failed"):
            worker.submit(2, lambda: None)
        worker.close()

    def test_failure_frees_blocked_producer(self):
        """A producer blocked on the in-flight cap must wake (and raise)
        after a task failure instead of deadlocking on the semaphore."""
        worker = ApplyWorker(max_in_flight=1)
        worker.start()
        release = threading.Event()

        def slow_boom():
            release.wait(5.0)
            raise ValueError("late explosion")

        worker.submit(1, slow_boom)
        outcome = {}

        def producer():
            try:
                # Blocks on the cap until the failing task finishes.
                worker.submit(2, lambda: None)
                # The error may land after this submit slipped through;
                # the next interaction must still raise.
                worker.wait_for(2)
                outcome["error"] = None
            except RuntimeError as error:
                outcome["error"] = error

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        time.sleep(0.05)
        release.set()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert outcome["error"] is not None
        worker.close()

    def test_wait_for_timeout(self):
        worker = ApplyWorker(max_in_flight=1)
        worker.start()
        gate = threading.Event()
        worker.submit(1, lambda: gate.wait(10.0))
        with pytest.raises(RuntimeError, match="did not reach"):
            worker.wait_for(1, timeout=0.1)
        gate.set()
        worker.close()

    def test_close_idempotent_and_drains_pending(self):
        worker = ApplyWorker(max_in_flight=4)
        worker.start()
        ran = []
        worker.submit(1, lambda: ran.append(1))
        worker.wait_for(1)
        worker.close()
        worker.close()
        assert ran == [1]
        assert not worker.is_alive

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError, match="max_in_flight"):
            ApplyWorker(max_in_flight=0)


class TestShutdownLeavesNoThreads:
    def test_fit_failure_leaves_no_stray_threads(self, config):
        baseline = threading.active_count()
        trainer = spec_trainer("async=strict,inflight=2", config)
        fail_stage(trainer, "apply", 1, "injected apply failure")
        with pytest.raises(RuntimeError):
            trainer.fit(make_loader(config, batch_size=16, num_batches=6))
        trainer.close()
        deadline = time.time() + 5.0
        while threading.active_count() > baseline and time.time() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= baseline

    def test_ledger_not_advanced_when_write_itself_fails(self, config,
                                                         monkeypatch):
        """The ledger records a span only after its slab write landed;
        a write that explodes mid-apply must leave the ledger behind so
        the audit reports the lost noise instead of vouching for it."""
        from repro.lazydp import optimizer

        trainer = spec_trainer("async=strict,inflight=2", config)

        def failing_write(*args, **kwargs):
            raise RuntimeError("injected write failure")

        monkeypatch.setattr(optimizer, "fused_noisy_update", failing_write)
        with pytest.raises(RuntimeError, match="apply worker"):
            trainer.fit(make_loader(config, batch_size=16, num_batches=6))
        trainer.close()
        assert trainer.ledger
        for vector in trainer.ledger:
            assert np.all(vector.snapshot() == 0)

    def test_ledger_untouched_after_apply_failure(self, config):
        """A failed apply never advances the ledger for its iteration —
        the audit correctly reports the gap instead of lying."""
        trainer = spec_trainer("async=strict,inflight=2", config)
        fail_stage(trainer, "apply", 3, "injected apply failure")
        with pytest.raises(RuntimeError):
            trainer.fit(make_loader(config, batch_size=16, num_batches=6))
        trainer.close()
        with pytest.raises(LedgerError):
            trainer.audit_noise_ledger(6)
        for vector in trainer.ledger:
            assert np.all(vector.snapshot() <= 2)

    @pytest.mark.parametrize("spec", [
        "async=strict,inflight=2",
        "shards=3,partition=hash,async=bounded:1,inflight=2",
    ])
    def test_manually_stepped_async_plan_is_auditable(self, config, spec):
        """Outside fit() the apply runs inline on the trainer thread; the
        ledger advance travels with the apply (and the flush), so the
        exactly-once audit holds wherever they ran."""
        trainer = spec_trainer(spec, config)
        trainer.expected_batch_size = 16
        loader = make_loader(config, batch_size=16, num_batches=8)
        for index, batch, upcoming in LookaheadLoader(loader):
            trainer.train_step(index + 1, batch, upcoming)
        with pytest.raises(LedgerError, match="still owe"):
            trainer.audit_noise_ledger(8)     # not flushed yet
        trainer.finalize(8)
        trainer.audit_noise_ledger(8)
        for vector in trainer.ledger:
            np.testing.assert_array_equal(
                vector.snapshot(), np.full(vector.num_rows, 8)
            )
        trainer.close()
