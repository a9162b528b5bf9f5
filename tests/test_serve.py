"""The serving engine's guarantee: read-through catch-up == full flush.

``PrivateServingEngine`` serves privatized embeddings by applying each
row's pending deferred noise at first lookup (memoized) instead of the
stop-the-world flush ``export_private_model`` performs.  Because noise
bits are keyed by ``(seed, table, row, iteration)``, *when* a row is
caught up cannot change its released value — so any mix of lookups
followed by :meth:`export` must produce, row for row, the same arrays
as the one-shot flush at the same iteration.
"""

import threading
import time

import numpy as np
import pytest

from repro import configs
from repro.data import LookaheadLoader
from repro.lazydp import LazyDPTrainer, export_private_model, save_checkpoint
from repro.nn import DLRM
from repro.serve import PrivateServingEngine
from repro.testing import make_loader
from repro.train import DPConfig


@pytest.fixture
def config():
    return configs.tiny_dlrm(num_tables=3, rows=64, dim=8, lookups=2)


def drive(trainer, config, steps, batch_size=16):
    """Manually step a trainer ``steps`` iterations (no terminal flush),
    leaving rows genuinely behind on noise — the serving scenario."""
    trainer.expected_batch_size = batch_size
    loader = make_loader(config, batch_size=batch_size, num_batches=steps)
    for index, batch, upcoming in LookaheadLoader(loader):
        trainer.train_step(index + 1, batch, upcoming)
    return trainer


@pytest.fixture
def trainer(config):
    model = DLRM(config, seed=7)
    return drive(LazyDPTrainer(model, DPConfig(), noise_seed=99), config, 4)


class TestExportEquivalence:
    def test_export_matches_flush_row_for_row(self, config, trainer):
        flushed = export_private_model(trainer, iteration=4)
        engine = PrivateServingEngine.from_trainer(trainer, iteration=4)
        served = engine.export()
        assert flushed.keys() == served.keys()
        for name in flushed:
            np.testing.assert_array_equal(flushed[name], served[name])

    def test_partial_lookups_then_export(self, config, trainer):
        """Rows caught up lazily at lookup time and rows caught up by
        the final export land on identical bits."""
        flushed = export_private_model(trainer, iteration=4)
        engine = PrivateServingEngine.from_trainer(trainer, iteration=4)
        engine.lookup(0, np.arange(10))
        engine.lookup(1, np.array([3, 3, 5]))
        served = engine.export()
        for name in flushed:
            np.testing.assert_array_equal(flushed[name], served[name])

    def test_lookup_serves_flushed_bits(self, config, trainer):
        flushed = export_private_model(trainer, iteration=4)
        engine = PrivateServingEngine.from_trainer(trainer, iteration=4)
        rows = np.array([0, 5, 17, 5])
        for table_index, name in enumerate(engine.embedding_names):
            np.testing.assert_array_equal(
                engine.lookup(table_index, rows), flushed[name][rows]
            )

    def test_live_trainer_unaffected(self, config, trainer):
        """Serving must not mutate the live model or its histories."""
        before = {
            name: param.data.copy()
            for name, param in trainer.model.parameters().items()
        }
        histories_before = [
            history.snapshot().copy()
            for history in trainer.engine.histories
        ]
        engine = PrivateServingEngine.from_trainer(
            trainer, iteration=4, snapshot=True
        )
        engine.lookup(0, np.arange(20))
        engine.export()
        for name, param in trainer.model.parameters().items():
            np.testing.assert_array_equal(before[name], param.data)
        for snap, history in zip(histories_before,
                                 trainer.engine.histories):
            np.testing.assert_array_equal(snap, history.snapshot())

    def test_serve_finalized_trainer(self, config):
        """After fit() + terminal flush nothing is pending; serving is a
        plain (but still exact) read."""
        from repro.testing import train_algorithm

        _, _, trainer = train_algorithm("lazydp", config, num_batches=4)
        engine = PrivateServingEngine.from_trainer(trainer)
        assert engine.iteration == 4
        flushed = export_private_model(trainer, iteration=4)
        served = engine.export()
        for name in flushed:
            np.testing.assert_array_equal(flushed[name], served[name])
        assert engine.rows_caught_up == 0   # flush left nothing pending

    def test_sharded_trainer_served_identically(self, config):
        """The sharded engine exposes the flat history/parameter API, so
        serving it matches serving the flat trainer bit for bit."""
        from repro.session import ExecutionPlan, TrainSession

        flat = drive(
            LazyDPTrainer(DLRM(config, seed=7), DPConfig(), noise_seed=99),
            config, 4,
        )
        sharded = drive(
            TrainSession.build(
                DLRM(config, seed=7), DPConfig(),
                ExecutionPlan.from_spec("shards=3"), noise_seed=99,
            ).trainer,
            config, 4,
        )
        flat_served = PrivateServingEngine.from_trainer(
            flat, iteration=4
        ).export()
        sharded_served = PrivateServingEngine.from_trainer(
            sharded, iteration=4
        ).export()
        for name in flat_served:
            np.testing.assert_array_equal(
                flat_served[name], sharded_served[name]
            )


class TestReadThroughSemantics:
    def test_memoization_counters(self, config, trainer):
        engine = PrivateServingEngine.from_trainer(trainer, iteration=4)
        rows = np.array([1, 2, 3])
        engine.lookup(0, rows)
        first = engine.rows_caught_up
        engine.lookup(0, rows)          # pure memo read
        stats = engine.stats()
        assert engine.rows_caught_up == first
        assert stats["memo_hits"] == 3
        assert stats["rows_served"] == 6

    def test_served_memo_allocated_per_touched_table(self, config, trainer):
        """An engine over a many-table model must not pay a dense copy
        for tables nobody queries."""
        engine = PrivateServingEngine.from_trainer(trainer, iteration=4)
        assert all(served is None for served in engine._served)
        engine.lookup(0, np.array([1, 2]))
        assert engine._served[0] is not None
        assert all(served is None for served in engine._served[1:])
        engine.export()
        assert all(served is not None for served in engine._served)

    def test_duplicate_rows_caught_up_once(self, config, trainer):
        engine = PrivateServingEngine.from_trainer(trainer, iteration=4)
        pending = engine.pending_rows(0)
        row = int(pending[0])
        engine.lookup(0, np.array([row, row, row]))
        assert engine.rows_caught_up == 1

    def test_pending_rows_shrink_as_served(self, config, trainer):
        engine = PrivateServingEngine.from_trainer(trainer, iteration=4)
        before = engine.pending_rows(0)
        assert before.size > 0          # manual stepping left rows behind
        engine.lookup(0, before[:4])
        after = engine.pending_rows(0)
        assert after.size == before.size - 4
        engine.export()
        assert engine.pending_rows(0).size == 0
        assert engine.stats()["rows_still_pending"] == 0

    def test_lookup_batch_covers_all_tables(self, config, trainer):
        engine = PrivateServingEngine.from_trainer(trainer, iteration=4)
        loader = make_loader(config, batch_size=8, num_batches=1)
        batch = loader.batch_for(0)
        outputs = engine.lookup_batch(batch)
        assert len(outputs) == engine.num_tables
        for table_index, values in enumerate(outputs):
            rows = batch.accessed_rows(table_index)
            assert values.shape == (rows.size, config.embedding_dim)

    def test_concurrent_lookups_consistent(self, config, trainer):
        """Racing readers of overlapping rows must all see the same
        (exactly-once caught up) bits."""
        engine = PrivateServingEngine.from_trainer(trainer, iteration=4)
        reference = export_private_model(trainer, iteration=4)
        name = engine.embedding_names[0]
        rows = np.arange(32)
        errors = []

        def reader():
            try:
                for _ in range(10):
                    np.testing.assert_array_equal(
                        engine.lookup(0, rows), reference[name][rows]
                    )
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not errors
        assert engine.rows_caught_up <= rows.size


class TestAttachedServing:
    """The staleness fix: an attached engine tracks the live trainer.

    Train -> serve -> train -> serve must agree row-for-row with
    ``export_private_model`` at each point; a frozen (detached) engine
    keeps the old behaviour.
    """

    def continue_drive(self, trainer, config, start, steps, batch_size=16):
        """Step ``steps`` more iterations, numbered after ``start``."""
        loader = make_loader(config, batch_size=batch_size,
                             num_batches=steps, seed=start + 31)
        for index, batch, upcoming in LookaheadLoader(loader):
            trainer.train_step(start + index + 1, batch, upcoming)

    def test_train_serve_train_serve_row_for_row(self, config, trainer):
        engine = PrivateServingEngine.from_trainer(trainer, iteration=4)
        engine.attach(trainer)

        reference = export_private_model(trainer, iteration=4)
        rows = np.arange(16)
        for table_index, name in enumerate(engine.embedding_names):
            np.testing.assert_array_equal(
                engine.lookup(table_index, rows), reference[name][rows]
            )
        assert engine.stats()["iteration"] == 4

        # Training resumes: the memo must invalidate, not go stale.
        self.continue_drive(trainer, config, start=4, steps=2)
        reference = export_private_model(trainer, iteration=6)
        for table_index, name in enumerate(engine.embedding_names):
            np.testing.assert_array_equal(
                engine.lookup(table_index, rows), reference[name][rows]
            )
        stats = engine.stats()
        assert stats["iteration"] == 6
        assert stats["refreshes"] == 1
        assert stats["attached"]

        served = engine.export()
        for name in reference:
            np.testing.assert_array_equal(served[name], reference[name])

    def test_refresh_covers_dense_parameters(self, config, trainer):
        engine = PrivateServingEngine.from_trainer(trainer, iteration=4)
        engine.attach(trainer)
        engine.lookup(0, np.arange(4))
        self.continue_drive(trainer, config, start=4, steps=1)
        served = engine.export()
        reference = export_private_model(trainer, iteration=5)
        dense = [name for name in reference
                 if name not in engine.embedding_names]
        assert dense
        for name in dense:
            np.testing.assert_array_equal(served[name], reference[name])

    def test_detached_engine_stays_frozen(self, config, trainer):
        engine = PrivateServingEngine.from_trainer(
            trainer, iteration=4, snapshot=True
        )
        engine.attach(trainer)
        engine.detach()
        frozen = export_private_model(trainer, iteration=4)
        self.continue_drive(trainer, config, start=4, steps=1)
        served = engine.export()
        for name in frozen:
            np.testing.assert_array_equal(served[name], frozen[name])
        assert engine.stats()["refreshes"] == 0
        assert not engine.stats()["attached"]

    def test_attach_requires_matching_trainer(self, config, trainer):
        other_config = configs.tiny_dlrm(num_tables=2, rows=32, dim=8)
        other = LazyDPTrainer(DLRM(other_config, seed=3), DPConfig(),
                              noise_seed=5)
        engine = PrivateServingEngine.from_trainer(trainer, iteration=4)
        with pytest.raises(ValueError, match="attach"):
            engine.attach(other)

    def test_pending_rows_reflect_refresh(self, config, trainer):
        engine = PrivateServingEngine.from_trainer(trainer, iteration=4)
        engine.attach(trainer)
        engine.lookup(0, engine.pending_rows(0))
        assert engine.pending_rows(0).size == 0
        self.continue_drive(trainer, config, start=4, steps=1)
        # New deferred noise accrued; the refreshed memo owes it again.
        assert engine.pending_rows(0).size > 0

    def test_unsnapshotted_engines_share_base_slabs(self, config, trainer):
        """``snapshot=False`` engines over one trainer read its slabs
        zero-copy; only their memos (and so their noise) differ."""
        faithful = PrivateServingEngine.from_trainer(trainer, iteration=4)
        noisier = PrivateServingEngine.from_trainer(trainer, iteration=4, noise_std=5.0)
        for table_index in range(faithful.num_tables):
            assert np.shares_memory(
                faithful._tables[table_index], noisier._tables[table_index]
            )

    def test_pinned_std_changes_served_bits(self, config, trainer):
        """Over the same slabs, the faithful engine serves the flush's
        bits and one pinned at ``noise_std=5.0`` does not."""
        faithful = PrivateServingEngine.from_trainer(trainer, iteration=4)
        noisier = PrivateServingEngine.from_trainer(trainer, iteration=4, noise_std=5.0)
        assert noisier.noise_std == 5.0
        rows = np.arange(12)
        name = faithful.embedding_names[0]
        reference = export_private_model(trainer, iteration=4)
        np.testing.assert_array_equal(faithful.lookup(0, rows), reference[name][rows])
        assert not np.array_equal(noisier.lookup(0, rows), reference[name][rows])

    def test_pinned_noise_std_survives_the_writers_step(self, config, trainer):
        """Regression: a refresh used to overwrite a caller's std with
        the training std (0.06875 here), so an engine built at
        ``noise_std=5.0`` served 70x less noise than it asked for after
        the writer's next step."""
        engine = PrivateServingEngine.from_trainer(trainer, iteration=4, noise_std=5.0)
        engine.attach(trainer)
        with engine.quiesce():
            self.continue_drive(trainer, config, start=4, steps=1)
        served = engine.export()
        assert engine.stats()["refreshes"] == 1
        assert engine.noise_std == 5.0
        reference = export_private_model(trainer, 5, noise_std=5.0)
        for name, released in reference.items():
            np.testing.assert_array_equal(served[name], released)

    def test_unpinned_noise_std_follows_the_trainer(self, config, trainer):
        """Without ``noise_std`` the engine re-reads the trainer's std
        at every refresh: halving the batch denominator doubles it."""
        engine = PrivateServingEngine.from_trainer(trainer, iteration=4)
        engine.attach(trainer)
        built_at = engine.noise_std
        assert built_at == trainer._last_noise_std
        trainer.expected_batch_size = 8
        with engine.quiesce():
            self.continue_drive(trainer, config, start=4, steps=1)
        served = engine.export()
        assert engine.noise_std == trainer._last_noise_std == 2 * built_at
        reference = export_private_model(trainer, 5)
        for name, released in reference.items():
            np.testing.assert_array_equal(served[name], released)

    def test_session_serve_attaches_and_detaches(self, config):
        """TrainSession.serve hands out attached handles; close detaches."""
        from repro.session import ExecutionPlan, TrainSession

        model = DLRM(config, seed=7)
        session = TrainSession.build(model, DPConfig(), ExecutionPlan(),
                                     noise_seed=99)
        drive(session.trainer, config, 3)
        engine = session.serve()
        assert engine.stats()["attached"]
        reference = session.export_private_model()
        served = engine.export()
        for name in reference:
            np.testing.assert_array_equal(served[name], reference[name])
        session.close()
        assert not engine.stats()["attached"]

    def test_a_flush_at_the_served_iteration_refreshes(self):
        """``finalize(k)`` after manual steps catches the live tables up
        at the iteration the engine already serves: the engine must
        re-snapshot the histories, not catch the rows up a second time."""
        from repro.session import ExecutionPlan, TrainSession

        config = configs.tiny_dlrm(num_tables=2, rows=48, dim=8, lookups=2)
        session = TrainSession.build(DLRM(config, seed=7), DPConfig(),
                                     ExecutionPlan(), noise_seed=99)
        drive(session.trainer, config, 3)
        engine = session.serve()
        session.finalize(3)
        served = engine.export()
        reference = session.export_private_model()
        assert served.keys() == reference.keys()
        for name in reference:
            np.testing.assert_array_equal(
                served[name].view(np.uint64), reference[name].view(np.uint64),
                err_msg=name,
            )
        assert engine.stats()["iteration"] == 3
        session.close()

    def test_session_serve_unfollowed_freezes(self, config):
        from repro.session import ExecutionPlan, TrainSession

        session = TrainSession.build(DLRM(config, seed=7), DPConfig(),
                                     ExecutionPlan(), noise_seed=99)
        drive(session.trainer, config, 3)
        engine = session.serve(follow=False)
        assert not engine.stats()["attached"]
        session.close()


class TestConsistentExport:
    """The torn-snapshot regression: one export, one iteration.

    ``export()`` used to re-acquire the engine lock per table, so a
    trainer stepping mid-export could leave tables caught up at
    different iterations.  The whole export now runs under a single
    write-lock acquisition: a concurrent training step (inside its
    ``quiesce`` window) waits, and every exported table stands at the
    same iteration.
    """

    def test_export_not_torn_by_concurrent_training(self, config, trainer):
        engine = PrivateServingEngine.from_trainer(
            trainer, iteration=4, snapshot=True
        )
        engine.attach(trainer)
        reference = export_private_model(trainer, iteration=4)

        first_table_done = threading.Event()
        original = engine._catch_up

        def paused_catch_up(table_index, rows):
            original(table_index, rows)
            if table_index == 0:
                # Signal the stepper, then dawdle between tables — the
                # window the old per-table locking exposed.
                first_table_done.set()
                time.sleep(0.05)

        engine._catch_up = paused_catch_up
        stepped = threading.Event()

        def stepper():
            first_table_done.wait(timeout=10.0)
            loader = make_loader(config, batch_size=16, num_batches=1,
                                 seed=77)
            for index, batch, upcoming in LookaheadLoader(loader):
                with engine.quiesce():
                    trainer.train_step(5, batch, upcoming)
            stepped.set()

        thread = threading.Thread(target=stepper)
        thread.start()
        served = engine.export()
        thread.join(timeout=10.0)
        engine._catch_up = original
        assert stepped.wait(timeout=10.0)
        # All-or-nothing: every table (and the dense parameters) must
        # come from iteration 4 — the step snuck in after the export,
        # never between its tables.
        for name in reference:
            np.testing.assert_array_equal(served[name], reference[name])
        # And the engine moves on cleanly: the next export serves 5.
        after = engine.export()
        reference5 = export_private_model(trainer, iteration=5)
        for name in reference5:
            np.testing.assert_array_equal(after[name], reference5[name])

    def test_export_audits_exactly_once(self, config, trainer):
        engine = PrivateServingEngine.from_trainer(trainer, iteration=4)
        engine.lookup(0, np.array([1, 5, 5, 9]))
        engine.lookup(2, np.arange(30))
        engine.export()
        engine.audit_exactly_once()

    def test_lookup_versioned_pairs_values_with_iteration(self, config,
                                                          trainer):
        engine = PrivateServingEngine.from_trainer(
            trainer, iteration=4, snapshot=True
        )
        engine.attach(trainer)
        rows = np.array([2, 7, 7, 11])
        name = engine.embedding_names[0]
        values, iteration = engine.lookup_versioned(0, rows)
        assert iteration == 4
        reference = export_private_model(trainer, iteration=4)
        np.testing.assert_array_equal(values, reference[name][rows])
        loader = make_loader(config, batch_size=16, num_batches=1, seed=41)
        for index, batch, upcoming in LookaheadLoader(loader):
            with engine.quiesce():
                trainer.train_step(5, batch, upcoming)
        values, iteration = engine.lookup_versioned(0, rows)
        assert iteration == 5
        reference = export_private_model(trainer, iteration=5)
        np.testing.assert_array_equal(values, reference[name][rows])

    def test_lookup_batch_serves_one_iteration(self, config, trainer):
        """The batch API's cross-table consistency: one read section,
        one iteration for every table in the batch."""
        engine = PrivateServingEngine.from_trainer(trainer, iteration=4)
        reference = export_private_model(trainer, iteration=4)
        rows = [np.array([1, 3, 3]), np.array([], dtype=np.int64),
                np.arange(16)]
        outputs, iteration = engine.lookup_batch_versioned(rows)
        assert iteration == 4
        for table_index, name in enumerate(engine.embedding_names):
            np.testing.assert_array_equal(
                outputs[table_index], reference[name][rows[table_index]]
            )

    def test_lookup_batch_rejects_wrong_arity(self, config, trainer):
        engine = PrivateServingEngine.from_trainer(trainer, iteration=4)
        with pytest.raises(ValueError, match="one row array per table"):
            engine.lookup_batch([np.array([0])])


class TestServePlanAxis:
    """The ``serve=`` plan axis sizes the hot-row cache per handle."""

    def test_spec_round_trip(self):
        from repro.session import ExecutionPlan

        plan = ExecutionPlan.from_spec("serve=256")
        assert plan.serve == 256
        assert plan.to_spec() == "ans=on,serve=256"
        assert ExecutionPlan.from_spec(plan.to_spec()) == plan
        assert ExecutionPlan.from_spec("serve=off").serve == 0
        assert ExecutionPlan.from_spec("serve=0").serve == 0
        assert "serve" not in ExecutionPlan().to_spec()

    def test_admission_is_not_a_plan_key(self):
        """The threshold is the cache's own; a caller who wants another
        passes a cache."""
        from repro.session import ExecutionPlan

        for spec in ("admission=3", "serve=0,admission=3",
                     "serve=128,admission=1"):
            with pytest.raises(ValueError, match="unknown key 'admission'"):
                ExecutionPlan.from_spec(spec)

    def test_session_serve_honours_axis(self, config):
        from repro.session import ExecutionPlan, TrainSession

        from repro.serve import HotRowCache

        plan = ExecutionPlan.from_spec("serve=128")
        session = TrainSession.build(DLRM(config, seed=7), DPConfig(),
                                     plan, noise_seed=99)
        drive(session.trainer, config, 3)
        cached = session.serve()
        assert cached.cache is not None
        assert cached.cache.capacity == 128
        assert cached.cache.admission_threshold == \
            HotRowCache(1).admission_threshold
        # Handles get their own cache — cached bits are per-engine.
        assert session.serve().cache is not cached.cache
        assert session.serve(cache=False).cache is None
        # Another threshold is a cache the caller passes.
        own = HotRowCache(64, admission_threshold=1)
        assert session.serve(cache=own).cache is own
        session.close()


class TestConstructionAndErrors:
    def test_from_checkpoint_round_trip(self, config, trainer, tmp_path):
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, trainer, iteration=4)
        noise_std = trainer._last_noise_std
        flushed = export_private_model(trainer, iteration=4)
        engine = PrivateServingEngine.from_checkpoint(
            path, config, noise_std=noise_std, dp=DPConfig()
        )
        served = engine.export()
        for name in flushed:
            np.testing.assert_array_equal(flushed[name], served[name])

    def test_from_checkpoint_serves_at_the_trained_rate(self, config, tmp_path):
        """Regression: without ``dp`` the engine fell back to
        ``DPConfig()``'s rate (0.05) and released a run trained at 0.2
        wrongly; ``dp`` is now required."""
        dp = DPConfig(learning_rate=0.2)
        trainer = drive(
            LazyDPTrainer(DLRM(config, seed=7), dp, noise_seed=99), config, 4
        )
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, trainer, iteration=4)
        noise_std = trainer._last_noise_std
        flushed = export_private_model(trainer, iteration=4)
        served = PrivateServingEngine.from_checkpoint(
            path, config, noise_std, dp
        ).export()
        for name in flushed:
            np.testing.assert_array_equal(flushed[name], served[name])
        with pytest.raises(TypeError):
            PrivateServingEngine.from_checkpoint(path, config, noise_std)

    def test_from_checkpoint_refuses_a_scheduled_run(self, config, tmp_path):
        """The archive stores no schedule, so the engine would release
        the pending noise at ``dp.learning_rate``: refused."""
        from repro.session import TrainSession
        from repro.train.schedules import StepDecayLR

        trainer = TrainSession.build(
            DLRM(config, seed=7), DPConfig(), noise_seed=99,
            schedule=StepDecayLR(0.1, factor=0.25, step_size=2),
        ).trainer
        drive(trainer, config, 4)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, trainer, iteration=4)
        with pytest.raises(ValueError, match="LR schedule"):
            PrivateServingEngine.from_checkpoint(
                path, config, trainer._last_noise_std, DPConfig()
            )

    def test_requires_iteration_for_unfinalized(self, config, trainer):
        with pytest.raises(ValueError, match="iteration"):
            PrivateServingEngine.from_trainer(trainer)

    def test_requires_noise_std(self, config):
        untrained = LazyDPTrainer(
            DLRM(config, seed=7), DPConfig(), noise_seed=99
        )
        with pytest.raises(ValueError, match="noise_std"):
            PrivateServingEngine.from_trainer(untrained, iteration=0)

    def test_rejects_history_ahead_of_iteration(self, config, trainer):
        with pytest.raises(ValueError, match="ahead"):
            PrivateServingEngine.from_trainer(trainer, iteration=1)

    def test_rejects_out_of_range_rows(self, config, trainer):
        engine = PrivateServingEngine.from_trainer(trainer, iteration=4)
        with pytest.raises(IndexError):
            engine.lookup(0, np.array([config.table_rows[0]]))
        with pytest.raises(ValueError, match="1-D"):
            engine.lookup(0, np.zeros((2, 2)))

    def test_rejects_mismatched_snapshots(self, config, trainer):
        parameters = {
            name: param.data
            for name, param in trainer.model.parameters().items()
        }
        names = trainer.model.embedding_param_names
        snapshots = [h.snapshot() for h in trainer.engine.histories]
        with pytest.raises(ValueError, match="one history snapshot"):
            PrivateServingEngine(
                parameters, names, snapshots[:-1], trainer.mechanism,
                4, 0.05, 1.0,
            )
        with pytest.raises(ValueError, match="covers"):
            PrivateServingEngine(
                parameters, names,
                [snapshots[0][:-1]] + snapshots[1:], trainer.mechanism,
                4, 0.05, 1.0,
            )


class TestServingObservability:
    """Serving counters must advance exactly per the staleness model.

    ``rows_caught_up`` counts catch-up draws actually performed —
    unique looked-up rows whose history trails the serving iteration;
    ``memo_hits`` counts rows answered without a fresh catch-up
    (duplicates in one lookup, repeats across lookups); ``refreshes``
    counts memo invalidations after training resumes.  An instrumented
    session reads them from the engine's ``stats()``, their one place.
    """

    def continue_drive(self, trainer, config, start, steps, batch_size=16):
        loader = make_loader(config, batch_size=batch_size,
                             num_batches=steps, seed=start + 31)
        for index, batch, upcoming in LookaheadLoader(loader):
            trainer.train_step(start + index + 1, batch, upcoming)

    def _session(self, config):
        from repro.session import ExecutionPlan, TrainSession

        plan = ExecutionPlan(obs="metrics")
        session = TrainSession.build(DLRM(config, seed=7), DPConfig(), plan,
                                     noise_seed=99)
        drive(session.trainer, config, 4)
        return session

    def _serve_counters(self, session):
        (counters,) = session.stats()["serving"]
        return counters

    def test_counters_follow_staleness_model(self, config):
        session = self._session(config)
        engine = session.serve(iteration=4)
        rows = np.array([0, 1, 2, 1, 1])   # 3 unique rows, 2 duplicates
        stale = np.intersect1d(np.unique(rows), engine.pending_rows(0))

        engine.lookup(0, rows)
        counters = self._serve_counters(session)
        assert counters["rows_served"] == rows.size
        # Catch-up draws happen only for rows whose history trails the
        # serving iteration; up-to-date rows are marked served for free.
        assert counters["rows_caught_up"] == stale.size
        # Duplicates within the lookup never re-privatize.
        assert counters["memo_hits"] == rows.size - np.unique(rows).size

        # A repeat lookup is pure memo reads: served advances by the
        # row count, memo hits by the same, catch-up not at all.
        engine.lookup(0, rows)
        counters = self._serve_counters(session)
        assert counters["rows_served"] == 2 * rows.size
        assert counters["rows_caught_up"] == stale.size
        assert counters["memo_hits"] == \
            2 * rows.size - np.unique(rows).size
        assert counters["refreshes"] == 0
        session.close()

    def test_refresh_counts_invalidation_and_new_catchup(self, config):
        session = self._session(config)
        engine = session.serve(iteration=4)
        rows = np.arange(8)
        engine.lookup(0, rows)
        first_caught = self._serve_counters(session)["rows_caught_up"]

        # Training resumes: the next lookup invalidates the memo once
        # and re-privatizes exactly the rows that accrued new noise.
        self.continue_drive(session.trainer, config, start=4, steps=2)
        engine.lookup(0, rows)
        counters = self._serve_counters(session)
        assert counters["refreshes"] == 1
        second_caught = counters["rows_caught_up"] - first_caught
        history = session.trainer.engine.histories[0].snapshot()
        expected = int(np.count_nonzero(history[rows] < engine.iteration))
        assert second_caught == expected

        # Serving again without new training must not invalidate again.
        engine.lookup(0, rows)
        assert self._serve_counters(session)["refreshes"] == 1
        session.close()

    def test_refresh_marks_the_trace(self, config):
        """What ``instrument`` still wires: one ``serve_refresh``
        instant per refresh, at the new iteration."""
        from repro.session import ExecutionPlan, TrainSession

        session = TrainSession.build(DLRM(config, seed=7), DPConfig(),
                                     ExecutionPlan(obs="trace"), noise_seed=99)
        drive(session.trainer, config, 4)
        engine = session.serve(iteration=4)
        self.continue_drive(session.trainer, config, start=4, steps=2)
        engine.lookup(0, np.arange(4))
        engine.lookup(0, np.arange(4))
        events = session.observability.export_trace()["traceEvents"]
        instants = [
            event for event in events
            if event["ph"] == "i" and event["name"] == "serve_refresh"
        ]
        assert [event["args"]["iteration"] for event in instants] == [6]
        session.close()

    def test_uninstrumented_engine_keeps_attribute_counters(self, config,
                                                            trainer):
        engine = PrivateServingEngine.from_trainer(trainer, iteration=4)
        engine.lookup(0, np.array([1, 1, 2]))
        assert engine.rows_served == 3
        assert engine.memo_hits == 1
        assert engine.obs is not None and not engine.obs.enabled


def step_on(trainer, config, start, steps, batch_size=16):
    """Step ``steps`` more iterations after ``start``, the last one with
    a lookahead batch, so its rows stand at delay 0 afterwards."""
    loader = make_loader(
        config, batch_size=batch_size, num_batches=steps + 1, seed=start + 31
    )
    for index, batch, upcoming in LookaheadLoader(loader):
        if index == steps:
            break
        trainer.train_step(start + index + 1, batch, upcoming)


def assert_same_release(served, reference):
    assert served.keys() == reference.keys()
    for name in reference:
        np.testing.assert_array_equal(served[name], reference[name])


class TestExportOwnership:
    """``export()`` hands the memo over zero-copy: the caller owns the
    arrays from then on and nothing the engine does later moves them."""

    def test_exported_arrays_survive_refresh(self, config, trainer):
        engine = PrivateServingEngine.from_trainer(trainer, iteration=4)
        engine.attach(trainer)
        engine.lookup(0, np.array([2, 9, 9, 40]))
        exported = engine.export()
        assert_same_release(exported, export_private_model(trainer, 4))
        for table_index, name in enumerate(engine.embedding_names):
            assert not exported[name].flags.writeable
            # Zero-copy: the release *is* the memo.
            assert exported[name] is engine._served[table_index]
        kept = {name: data.copy() for name, data in exported.items()}

        # A second export without a refresh releases the same bits.
        assert_same_release(engine.export(), kept)

        with engine.quiesce():
            step_on(trainer, config, start=4, steps=2)
        reference = export_private_model(trainer, 6)
        rows = np.arange(config.table_rows[0])
        for table_index, name in enumerate(engine.embedding_names):
            np.testing.assert_array_equal(
                engine.lookup(table_index, rows), reference[name]
            )
        assert engine.stats()["refreshes"] == 1
        for table_index, name in enumerate(engine.embedding_names):
            np.testing.assert_array_equal(exported[name], kept[name])
            assert not exported[name].flags.writeable
            assert not np.shares_memory(
                exported[name], engine._served[table_index]
            )
        assert_same_release(engine.export(), reference)
        engine.audit_exactly_once()

    def test_lookups_never_alias_the_memo(self, config, trainer):
        engine = PrivateServingEngine.from_trainer(trainer, iteration=4)
        values = engine.lookup(1, np.array([3, 4, 5]))
        assert not np.shares_memory(values, engine._served[1])
        values[...] = 0.0  # caller-owned: must not reach the memo
        reference = export_private_model(trainer, 4)
        assert_same_release(engine.export(), reference)


SMALL_CHUNK = 5


class TestMixedChunks:
    """The release walk over chunks that mix already-served rows,
    delay-0 rows and pending rows, with rows straddling chunk
    boundaries, against the one-chunk ``export_private_model``."""

    @pytest.fixture(autouse=True)
    def small_engine_chunks(self, monkeypatch):
        """Run the serving engine's walks in 5-row chunks (the reference
        release keeps the 2 048-row default: one chunk per table)."""
        from functools import partial

        from repro.lazydp.optimizer import catch_up_rows
        from repro.serve import engine as serve_engine

        monkeypatch.setattr(
            serve_engine,
            "catch_up_rows",
            partial(catch_up_rows, chunk_rows=SMALL_CHUNK),
        )

    def build(self, config, spec):
        from repro.session import ExecutionPlan, TrainSession

        session = TrainSession.build(
            DLRM(config, seed=7),
            DPConfig(),
            ExecutionPlan.from_spec(spec),
            noise_seed=99,
        )
        session.trainer.expected_batch_size = 16
        step_on(session.trainer, config, start=0, steps=4)
        return session

    def touch(self, engine):
        """Serve rows on both sides of several chunk boundaries."""
        engine.lookup(0, np.array([4, 5, 11, 30, 31, 32, 63]))
        engine.lookup(1, np.arange(3, 22))
        # Table 2 stays untouched: every chunk goes through export.

    def assert_mixed(self, engine):
        history, caught = engine._history[0], engine._caught_up[0]
        chunks = np.arange(history.size) // SMALL_CHUNK
        mixed = 0
        for chunk in np.unique(chunks):
            at = chunks == chunk
            left = ~caught[at]
            delays = engine.iteration - history[at][left]
            mixed += int(
                caught[at].any() and (delays == 0).any() and (delays > 0).any()
            )
        assert mixed, "no chunk mixes served, delay-0 and pending rows"

    @pytest.mark.parametrize("ans", ["on", "off"])
    @pytest.mark.parametrize("layout", ["", "shards=2,"])
    def test_export_equals_one_chunk_release(self, config, layout, ans):
        with self.build(config, f"{layout}ans={ans}") as session:
            reference = session.export_private_model(4)
            engine = session.serve(iteration=4, cache=False)
            self.touch(engine)
            if not layout:
                self.assert_mixed(engine)
            assert_same_release(engine.export(), reference)
            engine.audit_exactly_once()
            assert engine.stats()["rows_still_pending"] == 0

    def test_flush_equals_export(self, config):
        """The terminal flush is the same walk, in place."""
        with self.build(config, "shards=2") as session:
            reference = session.export_private_model(4)
            session.trainer.finalize(4)
            for name, param in session.model.parameters().items():
                np.testing.assert_array_equal(param.data, reference[name])

    def test_pinned_std_engine_releases_its_own_noise(self, config, trainer):
        """An engine serving at a caller-chosen std walks the same mixed
        chunks and lands every row's noise exactly once."""
        step_on(trainer, config, start=4, steps=1)
        engine = PrivateServingEngine.from_trainer(trainer, iteration=5, noise_std=5.0)
        engine.attach(trainer)
        self.touch(engine)
        assert_same_release(
            engine.export(),
            export_private_model(trainer, 5, noise_std=5.0),
        )
        engine.audit_exactly_once()
        assert engine.stats()["rows_still_pending"] == 0


class TestPersistentMemo:
    """The memo outlives refreshes; only ``_caught_up`` says which of
    its rows mean anything in the current generation."""

    def poison(self, engine):
        for served in engine._served:
            if served is not None:
                served.fill(np.nan)

    def test_stale_memo_rows_are_never_served(self, config, trainer):
        engine = PrivateServingEngine.from_trainer(trainer, iteration=4)
        engine.attach(trainer)
        everything = [np.arange(rows) for rows in config.table_rows]
        engine.lookup_batch(everything)  # generation 0 fills every row
        for start in (4, 5, 6):
            with engine.quiesce():
                step_on(trainer, config, start=start, steps=1)
            # Whatever the last generation left behind is garbage now.
            self.poison(engine)
            reference = export_private_model(trainer, start + 1)
            rows = np.array([0, 7, 7, 33, 63])
            for table_index, name in enumerate(engine.embedding_names):
                values = engine.lookup(table_index, rows)
                assert np.isfinite(values).all()
                np.testing.assert_array_equal(values, reference[name][rows])
                flagged = np.nonzero(engine._caught_up[table_index])[0]
                np.testing.assert_array_equal(flagged, np.unique(rows))
        assert_same_release(engine.export(), reference)
        engine.audit_exactly_once()

    def test_memo_allocs_count_touched_tables(self, config, trainer):
        engine = PrivateServingEngine.from_trainer(trainer, iteration=4)
        engine.attach(trainer)
        touched = (0, 2)
        for cycle in range(4):
            for table_index in touched:
                engine.lookup(table_index, np.array([1, 2, 3]))
            assert engine.stats()["memo_allocs"] == len(touched)
            with engine.quiesce():
                step_on(trainer, config, start=4 + cycle, steps=1)
        assert engine.stats()["refreshes"] == 4
        assert engine.stats()["memo_allocs"] == len(touched)

        # An export fills in the untouched tables and gives every
        # buffer away; the refresh after it starts over.
        engine.export()
        assert engine.stats()["memo_allocs"] == engine.num_tables
        with engine.quiesce():
            step_on(trainer, config, start=8, steps=1)
        for table_index in touched:
            engine.lookup(table_index, np.array([1, 2, 3]))
        assert engine.stats()["memo_allocs"] == engine.num_tables + len(touched)
