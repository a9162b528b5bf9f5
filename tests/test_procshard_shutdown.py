"""Worker-death and shutdown semantics of the process backend.

The contract under failure: a worker dying mid-step surfaces as a named
:class:`ShardWorkerError` in ``train_step``, the router terminates the
surviving workers, every shared-memory segment is freed (no
``/dev/shm`` entries, no ``resource_tracker`` warnings at interpreter
exit) and no child processes are left behind.  The orderly path —
``close()`` — must be idempotent and leave the model readable.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import configs
from repro.lazydp.ledger import LedgerError
from repro.nn.dlrm import DLRM
from repro.procshard import ProcessShardedLazyDPTrainer, ShardWorkerError
from repro.session import ExecutionPlan, TrainSession
from repro.testing import make_loader
from repro.train.common import DPConfig


@pytest.fixture
def config():
    return configs.tiny_dlrm(num_tables=2, rows=32, dim=4, lookups=2)


def build(config, num_shards=2):
    dp = DPConfig(noise_multiplier=1.1, max_grad_norm=1.0,
                  learning_rate=0.05)
    model = DLRM(config, seed=7)
    plan = ExecutionPlan.from_spec(f"shards={num_shards},backend=process")
    session = TrainSession.build(model, dp, plan, noise_seed=99)
    loader = make_loader(config, batch_size=8, num_batches=6)
    return model, session.trainer, list(loader)


def shm_segment_names():
    try:
        return sorted(
            name for name in os.listdir("/dev/shm") if name.startswith("psm_")
        )
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return []


def worker_pids(trainer):
    return [handle.pid for handle in trainer._workers]


class TestWorkerDeath:
    def test_sigkill_mid_step_raises_named_error(self, config):
        _, trainer, batches = build(config)
        trainer.train_step(1, batches[0], batches[1])
        victim = worker_pids(trainer)[1]
        os.kill(victim, signal.SIGKILL)
        time.sleep(0.2)
        with pytest.raises(ShardWorkerError) as excinfo:
            trainer.train_step(2, batches[1], batches[2])
        message = str(excinfo.value)
        assert "shard worker 1" in message
        assert str(victim) in message
        assert "shared-memory" in message

    def test_death_terminates_siblings_and_frees_segments(self, config):
        before = shm_segment_names()
        _, trainer, batches = build(config, num_shards=3)
        trainer.train_step(1, batches[0], batches[1])
        pids = worker_pids(trainer)
        os.kill(pids[0], signal.SIGKILL)
        time.sleep(0.2)
        with pytest.raises(ShardWorkerError):
            trainer.train_step(2, batches[1], batches[2])
        deadline = time.monotonic() + 5.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []
        assert shm_segment_names() == before
        # Subsequent steps and close stay safe.
        with pytest.raises(ShardWorkerError, match="closed"):
            trainer.train_step(3, batches[2], None)
        trainer.close()

    def test_worker_exception_propagates_with_traceback(self, config):
        """A worker-side exception (not just death) also surfaces as a
        ShardWorkerError carrying the worker's traceback."""
        _, trainer, batches = build(config)
        trainer.train_step(1, batches[0], batches[1])
        # Poison the protocol: an apply for an iteration nothing staged.
        handle = trainer._workers[0]
        handle.conn.send(("apply", 999, [], 0.05))
        with pytest.raises(ShardWorkerError, match="worker traceback"):
            trainer._collect_ok(handle, "apply")

    def test_model_remains_readable_after_abort(self, config):
        model, trainer, batches = build(config)
        trainer.train_step(1, batches[0], batches[1])
        os.kill(worker_pids(trainer)[0], signal.SIGKILL)
        time.sleep(0.2)
        with pytest.raises(ShardWorkerError):
            trainer.train_step(2, batches[1], batches[2])
        # Private copies were rematerialized on abort.
        for bag in model.embeddings:
            assert bag.table.data.flags.writeable
            assert np.isfinite(bag.table.data).all()


class TestLostNoiseWindow:
    """The step's plan leaves before forward/backward, its apply after:
    a failure in between strands sampled noise in the workers with the
    histories already advanced.  That must never pass silently."""

    def test_router_failure_between_plan_and_apply(self, config, monkeypatch):
        before = shm_segment_names()
        model, trainer, batches = build(config)
        trainer.train_step(1, batches[0], batches[1])

        def failing_backward(dlogits):
            raise RuntimeError("injected backward failure")

        with monkeypatch.context() as patch:
            patch.setattr(model, "backward", failing_backward)
            with pytest.raises(RuntimeError, match="injected backward"):
                trainer.train_step(2, batches[1], batches[2])
        for worker in trainer.procshard_stats()["workers"]:
            assert worker["staged"] == 1
        # No further step may build on the torn state...
        with pytest.raises(RuntimeError, match="plan reached the workers"):
            trainer.train_step(3, batches[2], batches[3])
        # ...and the ledger names the gap: the flush skips the rows the
        # orphaned plan already marked current, so they never receive
        # the noise it sampled.
        trainer.finalize(2)
        with pytest.raises(LedgerError, match="still owe noise"):
            trainer.audit_noise_ledger(2)
        trainer.close()
        assert multiprocessing.active_children() == []
        assert shm_segment_names() == before

    def test_worker_killed_between_plan_and_apply(self, config, monkeypatch):
        before = shm_segment_names()
        model, trainer, batches = build(config)
        trainer.train_step(1, batches[0], batches[1])
        victim = worker_pids(trainer)[1]
        backward = model.backward

        def kill_then_backward(dlogits):
            os.kill(victim, signal.SIGKILL)
            time.sleep(0.2)
            return backward(dlogits)

        monkeypatch.setattr(model, "backward", kill_then_backward)
        with pytest.raises(ShardWorkerError) as excinfo:
            trainer.train_step(2, batches[1], batches[2])
        message = str(excinfo.value)
        assert "shard worker 1" in message
        assert str(victim) in message
        trainer.close()
        assert multiprocessing.active_children() == []
        assert shm_segment_names() == before


class TestOrderlyShutdown:
    def test_close_is_idempotent_and_leaves_no_children(self, config):
        before = shm_segment_names()
        _, trainer, batches = build(config)
        trainer.train_step(1, batches[0], batches[1])
        trainer.close()
        trainer.close()
        assert multiprocessing.active_children() == []
        assert shm_segment_names() == before

    def test_segments_are_unlinked_at_startup(self, config):
        """Names disappear once workers attach, so even SIGKILL of the
        whole tree cannot leak /dev/shm entries."""
        before = shm_segment_names()
        _, trainer, _ = build(config)
        try:
            assert shm_segment_names() == before
        finally:
            trainer.close()

    def test_finalizer_backstop_reaps_unclosed_trainer(self, config):
        import gc

        _, trainer, batches = build(config)
        trainer.train_step(1, batches[0], batches[1])
        pids = worker_pids(trainer)
        del trainer, batches
        gc.collect()
        deadline = time.monotonic() + 5.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestConstructionGuards:
    def test_construction_failure_leaks_no_segments(self, config, monkeypatch):
        """A worker that cannot attach at startup — after the tables
        moved into shared memory — must still leave every segment name
        unlinked and no child behind."""
        from dataclasses import replace

        from repro.procshard import ShardWorkerError

        real_init = ProcessShardedLazyDPTrainer._worker_init

        def unattachable(self, shard):
            init = real_init(self, shard)
            missing = ("repro-missing-slab",) * 3
            tables = tuple(replace(t, segments=missing) for t in init.tables)
            return replace(init, tables=tables)

        monkeypatch.setattr(
            ProcessShardedLazyDPTrainer, "_worker_init", unattachable
        )
        before = shm_segment_names()
        with pytest.raises(ShardWorkerError, match="during startup"):
            ProcessShardedLazyDPTrainer(
                DLRM(config, seed=7), DPConfig(), num_shards=2
            )
        assert shm_segment_names() == before
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("spec", ["shards=2,backend=process:3",
                                      "shards=2,backend=process:2"])
    def test_process_takes_no_worker_count(self, spec):
        """One worker per shard: a ``:K`` suffix carries nothing."""
        with pytest.raises(ValueError, match="admits no worker count"):
            ExecutionPlan.from_spec(spec)


class TestCleanStderr:
    def test_no_resource_tracker_warnings_on_any_path(self, tmp_path):
        """Full run in a subprocess: train, kill a worker, abort, train
        again, close, exit — stderr must show no resource_tracker leak
        warnings and no BufferError spam from SharedMemory.__del__."""
        script = tmp_path / "procshard_stderr_probe.py"
        script.write_text(
            "\n".join([
                "import os, signal, time",
                "from repro import configs",
                "from repro.nn.dlrm import DLRM",
                "from repro.procshard import ShardWorkerError",
                "from repro.session import ExecutionPlan, TrainSession",
                "from repro.testing import make_loader",
                "from repro.train.common import DPConfig",
                "config = configs.tiny_dlrm(num_tables=2, rows=32, dim=4,"
                " lookups=2)",
                "dp = DPConfig()",
                "plan = ExecutionPlan.from_spec('shards=2,backend=process')",
                "loader = make_loader(config, batch_size=8, num_batches=4)",
                "session = TrainSession.build(DLRM(config, seed=7), dp, plan)",
                "session.fit(loader)",
                "session.close()",
                "session = TrainSession.build(DLRM(config, seed=7), dp, plan)",
                "trainer = session.trainer",
                "batches = list(loader)",
                "trainer.train_step(1, batches[0], batches[1])",
                "os.kill(trainer._workers[1].pid, signal.SIGKILL)",
                "time.sleep(0.2)",
                "try:",
                "    trainer.train_step(2, batches[1], batches[2])",
                "except ShardWorkerError:",
                "    pass",
                "print('probe done')",
            ])
        )
        env = dict(os.environ)
        repo_src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = repo_src
        completed = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True,
            text=True, timeout=180,
        )
        assert completed.returncode == 0, completed.stderr
        assert "probe done" in completed.stdout
        assert "resource_tracker" not in completed.stderr, completed.stderr
        assert "BufferError" not in completed.stderr, completed.stderr
        assert "Traceback" not in completed.stderr, completed.stderr
