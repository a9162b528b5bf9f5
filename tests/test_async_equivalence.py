"""The async engine's acceptance bar: strict == serial, ledger exact.

A plan with the ``async`` axis on (``async=strict``) keeps up to
``inflight`` iteration applies outstanding on a background worker.  A
forward pass never reads a slab with an outstanding apply, so training
must release parameters *bitwise identical* to the serial plan —
across sampling schemes, ANS modes, shard counts and in-flight depths.
Beside the bits, the deferred-noise ledger must stay exact: the per-row
:class:`VersionVector <repro.lazydp.ledger.VersionVector>` proves every
per-iteration noise value was applied exactly once, regardless of
interleaving.
"""

import numpy as np
import pytest

from repro import configs
from repro.data.skew import paper_skew_spec
from repro.lazydp import LedgerError, Scheduler
from repro.nn import DLRM
from repro.session import ExecutionPlan, TrainSession
from repro.testing import make_loader, max_param_diff, train_algorithm
from repro.train import DPConfig


@pytest.fixture
def config():
    return configs.tiny_dlrm(num_tables=3, rows=64, dim=8, lookups=2)


def async_spec(*, use_ans=True, max_in_flight=2, num_shards=0,
               backend="numpy"):
    spec = (f"ans={'on' if use_ans else 'off'},async=strict,"
            f"inflight={max_in_flight}")
    if num_shards:
        spec += f",shards={num_shards}"
    return f"{spec},backend={backend}"


def train_async(config, *, sampling="fixed", num_batches=6, skew=None, **kwargs):
    model, result, trainer = train_algorithm(
        async_spec(**kwargs), config, num_batches=num_batches,
        sampling=sampling, skew=skew,
    )
    trainer.close()
    return model, result, trainer


class TestStrictBitwiseEquivalence:
    @pytest.mark.parametrize("max_in_flight", [1, 2, 4])
    @pytest.mark.parametrize("sampling", ["fixed", "poisson"])
    def test_flat_identical_to_serial(self, config, max_in_flight, sampling):
        serial_model, _, _ = train_algorithm(
            "lazydp", config, num_batches=6, sampling=sampling
        )
        async_model, _, trainer = train_async(
            config, sampling=sampling, max_in_flight=max_in_flight,
        )
        assert max_param_diff(serial_model, async_model) == 0.0
        trainer.audit_noise_ledger(6)

    @pytest.mark.parametrize("use_ans", [True, False])
    def test_identical_with_and_without_ans(self, config, use_ans):
        algorithm = "lazydp" if use_ans else "lazydp_no_ans"
        serial_model, _, _ = train_algorithm(algorithm, config, num_batches=5)
        async_model, _, _ = train_async(
            config, use_ans=use_ans, num_batches=5, max_in_flight=2,
        )
        assert max_param_diff(serial_model, async_model) == 0.0

    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    @pytest.mark.parametrize("sampling", ["fixed", "poisson"])
    def test_sharded_identical_to_serial(self, config, num_shards, sampling):
        serial_model, _, _ = train_algorithm(
            "lazydp", config, num_batches=6, sampling=sampling
        )
        async_model, _, trainer = train_async(
            config, sampling=sampling, num_shards=num_shards,
            max_in_flight=2,
        )
        assert max_param_diff(serial_model, async_model) == 0.0
        trainer.audit_noise_ledger(6)

    @pytest.mark.parametrize("max_in_flight", [1, 4])
    def test_sharded_threads_deep_in_flight(self, max_in_flight):
        """The heaviest combination: seven threaded shards on uneven
        row ranges (61 rows) under Zipf skew, no ANS (exact
        per-iteration replay), deep in-flight window."""
        config = configs.tiny_dlrm(num_tables=3, rows=61, dim=8, lookups=2)
        skew = paper_skew_spec("high", 61)
        serial_model, _, _ = train_algorithm(
            "lazydp_no_ans", config, num_batches=5, skew=skew
        )
        async_model, _, _ = train_async(
            config, use_ans=False, num_batches=5, skew=skew,
            num_shards=7, backend="threads", max_in_flight=max_in_flight,
        )
        assert max_param_diff(serial_model, async_model) == 0.0

    @pytest.mark.parametrize("backend", ["numpy", "threads"])
    def test_more_shards_than_rows(self, backend):
        """Seven shards on three-row tables, four of them empty, with
        applies in flight."""
        config = configs.tiny_dlrm(num_tables=2, rows=3, dim=4, lookups=2)
        serial_model, _, _ = train_algorithm("lazydp", config, num_batches=4)
        async_model, _, trainer = train_async(
            config, num_batches=4, num_shards=7, backend=backend,
            max_in_flight=3,
        )
        assert max_param_diff(serial_model, async_model) == 0.0
        trainer.audit_noise_ledger(4)

    @pytest.mark.parametrize("word", ["bounded", "bounded:0", "bounded:2"])
    def test_bounded_staleness_is_refused(self, word):
        """Reads never trail applies: no plan releases other bits."""
        with pytest.raises(ValueError, match="accepts only strict"):
            ExecutionPlan.from_spec(f"async={word},inflight=4")

    @pytest.mark.parametrize("spec", [
        "inflight=1", "inflight=2", "inflight=4",
        "shards=2,pipeline=2,inflight=2,backend=threads:2",
    ])
    def test_at_most_one_apply_outstanding(self, spec):
        """Reads never trail applies: step ``t`` waits for the apply of
        ``t - 1``, so at its entry at most one apply is outstanding and
        the slabs trail by at most one iteration, whatever ``inflight``
        says (it sets only the default prefetch depth)."""
        config = configs.tiny_dlrm()
        plan = ExecutionPlan.from_spec(f"async=strict,{spec},obs=metrics")
        with TrainSession.build(DLRM(config, seed=7), DPConfig(), plan) as session:
            session.fit(make_loader(config, num_batches=30))
            histograms = session.observability.metrics.snapshot()["histograms"]
        for name in ("async.in_flight_depth", "async.staleness_lag"):
            assert (histograms[name]["count"], histograms[name]["max"]) == (30, 1), name

    def test_histories_match_serial_after_fit(self, config):
        _, _, serial_trainer = train_algorithm(
            "lazydp", config, num_batches=6
        )
        _, _, async_trainer = train_async(config)
        for serial, asynchronous in zip(serial_trainer.engine.histories,
                                        async_trainer.engine.histories):
            np.testing.assert_array_equal(
                serial.snapshot(), asynchronous.snapshot()
            )


class TestDeferredApplyLedger:
    @pytest.mark.parametrize("max_in_flight", [3, 4])
    @pytest.mark.parametrize("sampling", ["fixed", "poisson"])
    def test_ledger_exact_under_deep_in_flight(self, config, max_in_flight,
                                               sampling):
        """The bits match the serial plan's and the noise accounting
        is exact."""
        serial_model, _, _ = train_algorithm(
            "lazydp", config, num_batches=6, sampling=sampling
        )
        model, _, trainer = train_async(
            config, sampling=sampling, max_in_flight=max_in_flight,
        )
        assert max_param_diff(serial_model, model) == 0.0
        trainer.audit_noise_ledger(6)
        for vector in trainer.ledger:
            assert vector.pending_rows(6).size == 0

    def test_ledger_exact_sharded_deep_in_flight(self, config):
        _, _, trainer = train_async(
            config, num_shards=3, backend="threads", max_in_flight=4,
        )
        trainer.audit_noise_ledger(6)

    def test_ledger_counts_every_iteration_exactly_once(self, config):
        """After the audit, every row stands exactly at the final
        iteration: contiguous spans + completeness == exactly-once."""
        _, _, trainer = train_async(config, max_in_flight=4)
        for vector in trainer.ledger:
            np.testing.assert_array_equal(
                vector.snapshot(), np.full(vector.num_rows, 6)
            )

    def test_audit_raises_on_incomplete_ledger(self, config):
        _, _, trainer = train_async(config)
        # Pretend one row's noise never landed.
        trainer.ledger[0]._applied_through[3] = 4
        with pytest.raises(LedgerError, match="still owe"):
            trainer.audit_noise_ledger(6)


class TestVersionVector:
    def test_rejects_gap_and_overlap(self):
        from repro.lazydp import VersionVector

        vector = VersionVector(8)
        rows = np.array([1, 2])
        vector.advance(rows, np.array([1, 1]), 1)
        # Overlap: iteration-1 noise applied again.
        with pytest.raises(LedgerError, match="ledger violation"):
            vector.advance(rows, np.array([2, 2]), 2)
        # Gap: skipping straight to iteration 3 without the span start.
        with pytest.raises(LedgerError, match="ledger violation"):
            vector.advance(rows, np.array([1, 1]), 3)
        # The contiguous span is accepted.
        vector.advance(rows, np.array([1, 1]), 2)
        np.testing.assert_array_equal(
            vector.applied_through(rows), np.array([2, 2])
        )

    def test_audit_flags_overshoot(self):
        from repro.lazydp import VersionVector

        vector = VersionVector(1)
        vector.advance(np.array([0]), np.array([5]), 5)
        with pytest.raises(LedgerError, match="beyond"):
            vector.audit_complete(4)

    def test_empty_advance_is_noop(self):
        from repro.lazydp import VersionVector

        vector = VersionVector(4)
        vector.advance(np.empty(0, dtype=np.int64),
                       np.empty(0, dtype=np.int64), 3)
        vector.audit_complete(0)


class TestTrainerBehaviour:
    def test_algorithm_names(self, config):
        _, result, _ = train_async(config)
        assert result.algorithm == "async_lazydp"
        _, result, _ = train_async(config, use_ans=False)
        assert result.algorithm == "async_lazydp_no_ans"
        _, result, _ = train_async(config, num_shards=2)
        assert result.algorithm == "async_sharded_lazydp"

    def test_rejects_bad_options(self, config):
        with pytest.raises(ValueError, match="max_in_flight"):
            Scheduler(max_in_flight=0)
        # Every deferred apply waits for all prior ones: no policy to pick.
        with pytest.raises(TypeError, match="staleness"):
            Scheduler(max_in_flight=2, staleness="strict")

    def test_async_stats_surface(self, config):
        _, result, trainer = train_async(config, max_in_flight=3)
        tree = trainer.stats()
        stats = tree["async"]
        assert stats["max_in_flight"] == 3
        assert "staleness" not in stats
        assert stats["applies_completed"] == 6
        assert stats["apply_busy_seconds"] > 0.0
        # The embedding merge/write stages run on the apply thread and
        # are accounted on the shard's timer, not the trainer's (which
        # may still show the stage names for the dense MLP noisy
        # update — that stays synchronous on the trainer thread).
        (shard_stages,) = tree["shards"]["per_shard"]
        assert shard_stages["noisy_grad_update"] > 0.0
        assert trainer.engine.states[0].timer is not trainer.timer
        # Async implies prefetching; its section holds no async copy.
        assert "async" not in tree["pipeline"]

    def test_staleness_wait_recorded_under_strict(self, config):
        _, result, _ = train_async(config, max_in_flight=2)
        assert "staleness_wait" in result.stage_times

    def test_manual_stepping_falls_back(self, config):
        """Outside fit() the apply worker is inactive: inline path,
        still bitwise-identical to the serial trainer."""
        from repro.data import LookaheadLoader
        from repro.nn import DLRM
        from repro.train import DPConfig

        serial_model, _, _ = train_algorithm("lazydp", config, num_batches=4)
        model = DLRM(config, seed=7)
        trainer = TrainSession.build(
            model, DPConfig(noise_multiplier=1.1, max_grad_norm=1.0,
                            learning_rate=0.05),
            ExecutionPlan.from_spec("async=strict,inflight=2"),
            noise_seed=99,
        ).trainer
        trainer.expected_batch_size = 16
        loader = make_loader(config, batch_size=16, num_batches=4)
        for index, batch, upcoming in LookaheadLoader(loader):
            trainer.train_step(index + 1, batch, upcoming)
        trainer.finalize(4)
        assert max_param_diff(serial_model, model) == 0.0

    def test_export_after_fit_matches_serial(self, config):
        from repro.lazydp import export_private_model

        _, _, serial_trainer = train_algorithm(
            "lazydp", config, num_batches=6
        )
        _, _, async_trainer = train_async(config)
        serial_release = export_private_model(serial_trainer, iteration=6)
        async_release = export_private_model(async_trainer, iteration=6)
        for name in serial_release:
            np.testing.assert_array_equal(
                serial_release[name], async_release[name]
            )

    def test_sharded_executor_single_writer(self, config):
        """During fit the apply worker is the shard executor's only
        client; per-shard apply timers still get populated."""
        _, _, trainer = train_async(
            config, num_shards=2, backend="threads",
        )
        assert trainer.execution_plan.is_async
        assert trainer.execution_plan.is_sharded
        assert trainer.name == "async_sharded_lazydp"
        assert trainer.scheduler.apply_timer.totals["shard_model_update"] > 0.0
        for timer in trainer.shard_timers:
            assert timer.totals["noisy_grad_update"] >= 0.0
