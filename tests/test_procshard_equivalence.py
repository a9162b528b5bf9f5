"""The process backend's headline guarantee: bitwise equivalence.

``backend=process`` runs every shard's model update in a separate
worker process over shared memory, yet must release exactly the
parameters the flat ``LazyDPTrainer`` releases — same seed, same trace,
same bits — for every shard count (even and uneven row ranges), ANS
mode and sampling scheme.  Noise is a pure function of ``(seed, table, global
row id, iteration)`` and each global row is owned by exactly one
worker, so the cross-process matrix is testable as strict equality,
exactly like the in-process sharded matrix.

The ledger half: every worker advances a per-process ``VersionVector``
segment as it applies noise, and ``audit_noise_ledger`` must prove
exactly-once application across the process boundary after the flush.
"""

import multiprocessing

import numpy as np
import pytest

from repro import configs
from repro.data import LookaheadLoader
from repro.data.skew import paper_skew_spec
from repro.lazydp.ledger import LedgerError
from repro.nn import DLRM
from repro.rng import native_status
from repro.session import ExecutionPlan, TrainSession
from repro.testing import make_loader, max_param_diff, train_algorithm
from repro.train import DPConfig


@pytest.fixture
def config():
    return configs.tiny_dlrm(num_tables=3, rows=64, dim=8, lookups=2)


def train_process(config, *, num_shards=2, sampling="fixed", use_ans=True,
                  num_batches=6, audit=True, skew=None):
    """``skew`` skews the trace."""
    ans = "on" if use_ans else "off"
    spec = f"ans={ans},shards={num_shards},backend=process"
    model, result, trainer = train_algorithm(
        spec, config, num_batches=num_batches, sampling=sampling, skew=skew,
    )
    if audit:
        trainer.audit_noise_ledger(result.iterations)
    trainer.close()
    return model, result, trainer


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    @pytest.mark.parametrize("sampling", ["fixed", "poisson"])
    def test_released_params_identical(self, config, num_shards, sampling):
        flat_model, _, _ = train_algorithm(
            "lazydp", config, num_batches=6, sampling=sampling
        )
        proc_model, _, _ = train_process(
            config, num_shards=num_shards, sampling=sampling
        )
        assert max_param_diff(flat_model, proc_model) == 0.0

    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    @pytest.mark.parametrize("sampling", ["fixed", "poisson"])
    def test_identical_without_ans(self, config, num_shards, sampling):
        flat_model, _, _ = train_algorithm(
            "lazydp_no_ans", config, num_batches=5, sampling=sampling
        )
        proc_model, _, _ = train_process(
            config, num_shards=num_shards, sampling=sampling,
            use_ans=False, num_batches=5,
        )
        assert max_param_diff(flat_model, proc_model) == 0.0

    @pytest.mark.parametrize("num_rows", [64, 61])
    def test_identical_on_uneven_ranges(self, num_rows):
        """Seven workers under Zipf skew on ranges that differ by a row
        (neither 64 nor 61 rows divide by seven)."""
        config = configs.tiny_dlrm(num_tables=3, rows=num_rows, dim=8, lookups=2)
        skew = paper_skew_spec("high", num_rows)
        flat_model, _, _ = train_algorithm(
            "lazydp", config, num_batches=6, skew=skew
        )
        proc_model, _, trainer = train_process(config, num_shards=7, skew=skew)
        sizes = np.diff(trainer.engine.router.bounds[0])
        assert sizes.max() == sizes.min() + 1
        assert max_param_diff(flat_model, proc_model) == 0.0

    def test_matches_threads_backend_bitwise(self, config):
        threads_model, _, _ = train_algorithm(
            "shards=3,backend=threads", config, num_batches=6
        )
        proc_model, _, _ = train_process(config, num_shards=3)
        assert max_param_diff(threads_model, proc_model) == 0.0

    def test_histories_match_flat_after_fit(self, config):
        _, _, flat_trainer = train_algorithm("lazydp", config, num_batches=6)
        _, _, proc_trainer = train_process(config, num_shards=3)
        for flat, sharded in zip(flat_trainer.engine.histories,
                                 proc_trainer.engine.histories):
            np.testing.assert_array_equal(flat.snapshot(), sharded.snapshot())

    def test_spawn_start_method_is_equivalent(self, config, monkeypatch):
        """The spawn fallback (no fork on the host) trains the same bits."""
        flat_model, _, _ = train_algorithm("lazydp", config, num_batches=4)
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        proc_model, _, trainer = train_process(
            config, num_shards=2, num_batches=4
        )
        assert trainer._start_method == "spawn"
        assert max_param_diff(flat_model, proc_model) == 0.0


class TestCrossProcessLedger:
    def test_audit_passes_after_flush(self, config):
        _, result, trainer = train_process(config, num_shards=3, audit=False)
        trainer.audit_noise_ledger(result.iterations)
        # One non-empty segment per (table, shard); rows split across them.
        total_rows = sum(vector.num_rows for vector in trainer.ledger)
        assert total_rows == 3 * 64

    def test_ledger_mirrors_history_after_flush(self, config):
        _, result, trainer = train_process(config, num_shards=2)
        final = result.iterations
        for vector in trainer.ledger:
            np.testing.assert_array_equal(
                vector.snapshot(), np.full(vector.num_rows, final)
            )

    def test_audit_catches_missing_span(self, config):
        """A ledger segment left behind the flush horizon must fail the
        audit — the exactly-once proof is not vacuous."""
        _, result, trainer = train_process(config, num_shards=2)
        vector = trainer.ledger[0]
        storage = vector.snapshot()
        storage[0] = result.iterations - 1
        tampered = type(vector).attach(storage)
        with pytest.raises(LedgerError):
            tampered.audit_complete(result.iterations)


def build_process_session(config, num_shards=2):
    return TrainSession.build(
        DLRM(config, seed=7), DPConfig(),
        ExecutionPlan.from_spec(f"shards={num_shards},backend=process"),
        noise_seed=99,
    )


def worker_stats(trainer):
    return trainer.procshard_stats()["workers"]


class TestPerStepProtocol:
    """The unit of shard work is (shard, iteration): a step costs each
    worker one ``plan`` and one ``apply`` message however many tables
    there are, and the plan is out before forward/backward starts."""

    @pytest.mark.parametrize("num_tables", [1, 3, 8])
    def test_two_commands_per_step_for_any_table_count(self, num_tables):
        config = configs.tiny_dlrm(
            num_tables=num_tables, rows=64, dim=8, lookups=2
        )
        steps = 4
        with build_process_session(config) as session:
            trainer = session.trainer
            before = [worker["messages"] for worker in worker_stats(trainer)]
            entries = LookaheadLoader(
                make_loader(config, batch_size=8, num_batches=steps)
            )
            for index, batch, upcoming in entries:
                trainer.train_step(index + 1, batch, upcoming)
            after = worker_stats(trainer)
        for sent, worker in zip(before, after):
            # (the closing ``stats`` query is itself one message)
            assert worker["messages"] - sent - 1 == 2 * steps
            assert worker["staged"] == 0

    def test_plan_is_staged_before_forward_runs(self, config, monkeypatch):
        """Deterministic overlap proof: a ``stats`` query issued from
        inside ``model.loss`` queues behind the step's plan on the same
        FIFO pipe, so every worker answers with that plan staged."""
        with build_process_session(config) as session:
            trainer, model = session.trainer, session.model
            loss = model.loss
            seen = []

            def loss_probing_workers(batch):
                seen.append([w["staged"] for w in worker_stats(trainer)])
                return loss(batch)

            monkeypatch.setattr(model, "loss", loss_probing_workers)
            entries = LookaheadLoader(
                make_loader(config, batch_size=8, num_batches=3)
            )
            for index, batch, upcoming in entries:
                trainer.train_step(index + 1, batch, upcoming)
            # The last step has no next batch and still stages (an
            # empty) plan: the protocol has one shape.
            assert seen == [[1, 1]] * 3
            assert [w["staged"] for w in worker_stats(trainer)] == [0, 0]


class TestReportingSurfaces:
    def test_procshard_stats_and_kernel_stats(self, config):
        model, result, trainer = train_algorithm(
            "shards=2,backend=process", config, num_batches=4
        )
        stats = trainer.procshard_stats()
        assert stats["start_method"] in ("fork", "spawn")
        assert len(stats["workers"]) == 2
        for worker in stats["workers"]:
            assert worker["pid"] > 0
            assert worker["messages"] > 0
            assert worker["samples_drawn"] >= 0
            assert worker["staged"] == 0
        kernel = trainer.kernel_stats()
        assert [shard["samples_drawn"] for shard in kernel["shards"]] == [
            worker["samples_drawn"] for worker in stats["workers"]
        ]
        assert kernel["compiled_kernels"] == native_status()[0]
        trainer.close()
        # Post-close stats come from the cached last round trip.
        assert trainer.procshard_stats()["workers"]

    def test_worker_stage_timings_fold_into_shard_timers(self, config):
        _, _, trainer = train_algorithm(
            "shards=2,backend=process", config, num_batches=4
        )
        summary = trainer.shard_time_summary()
        assert summary["per_shard"], summary
        folded_stages = set()
        for stage_totals in summary["per_shard"]:
            folded_stages.update(stage_totals)
        assert "noise_sampling" in folded_stages
        assert "lazydp_history_read" in folded_stages
        trainer.close()

    def test_export_and_serve_survive_close(self, config):
        """Close rematerializes private copies: every read surface keeps
        working after the shared memory is gone."""
        model, result, trainer = train_algorithm(
            "shards=2,backend=process", config, num_batches=4
        )
        before = [bag.table.data.copy() for bag in model.embeddings]
        trainer.close()
        for bag, snapshot in zip(model.embeddings, before):
            np.testing.assert_array_equal(bag.table.data, snapshot)
        trainer.audit_noise_ledger(result.iterations)
