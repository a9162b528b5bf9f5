"""Tests for LazyDP checkpoint/resume and private model export."""

import numpy as np
import pytest

from repro import configs
from repro.data import DataLoader, LookaheadLoader, SyntheticClickDataset
from repro.lazydp.checkpoint import (
    export_private_model,
    load_checkpoint,
    save_checkpoint,
)
from repro.nn import DLRM
from repro.session import ExecutionPlan, TrainSession, make_trainer
from repro.train import DPConfig

from repro.testing import max_param_diff


@pytest.fixture
def config():
    return configs.tiny_dlrm(num_tables=2, rows=48, dim=8, lookups=2)


def build(config, use_ans=True, noise_seed=99):
    model = DLRM(config, seed=7)
    trainer = make_trainer(
        "lazydp" if use_ans else "lazydp_no_ans", model, DPConfig(),
        noise_seed=noise_seed,
    )
    trainer.expected_batch_size = 16
    return model, trainer


def build_session(config, spec, noise_seed=99):
    model = DLRM(config, seed=7)
    session = TrainSession.build(
        model, DPConfig(), ExecutionPlan.from_spec(spec), noise_seed=noise_seed
    )
    session.trainer.expected_batch_size = 16
    return model, session


def batches_for(config, count, seed=5):
    dataset = SyntheticClickDataset(config, seed=3, num_examples=1 << 12)
    loader = DataLoader(dataset, batch_size=16, num_batches=count, seed=seed)
    return list(LookaheadLoader(loader))


def drive(trainer, entries, start=0, stop=None):
    stop = stop if stop is not None else len(entries)
    for index, batch, upcoming in entries[start:stop]:
        trainer.train_step(index + 1, batch, upcoming)


class TestRoundtrip:
    def test_save_load_restores_state(self, config, tmp_path):
        model, trainer = build(config)
        entries = batches_for(config, 6)
        drive(trainer, entries, stop=3)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, trainer, iteration=3)

        fresh_model, fresh_trainer = build(config)
        iteration = load_checkpoint(path, fresh_trainer)
        assert iteration == 3
        assert max_param_diff(model, fresh_model) == 0.0
        for original, restored in zip(trainer.engine.histories,
                                      fresh_trainer.engine.histories):
            np.testing.assert_array_equal(
                original.snapshot(), restored.snapshot()
            )

    @pytest.mark.parametrize("spec", [
        "ans=off",
        "shards=2,backend=threads:2",
        "shards=2,backend=process",
        "async=strict,inflight=2",
    ])
    def test_resume_equals_uninterrupted_run(self, config, tmp_path, spec):
        """5 steps, checkpoint, restore, 5 more == 10 straight steps —
        bitwise, under any plan, with release and the ledger audit
        working off the restored state alone."""
        entries = batches_for(config, 10)
        ans = ExecutionPlan.from_spec(spec).ans

        straight_model, straight_trainer = build(config, use_ans=ans)
        drive(straight_trainer, entries)
        straight_trainer.finalize(10)

        _, first = build_session(config, spec)
        drive(first.trainer, entries, stop=5)
        path = tmp_path / "mid.npz"
        save_checkpoint(path, first.trainer, iteration=5)
        mid_release = first.export_private_model()
        first.close()

        resumed_model, resumed = build_session(config, spec)
        assert load_checkpoint(path, resumed.trainer) == 5
        # Release needs nothing but the checkpoint.
        assert resumed.current_iteration() == 5
        restored_release = resumed.export_private_model()
        for name, values in mid_release.items():
            np.testing.assert_array_equal(restored_release[name], values)

        drive(resumed.trainer, entries, start=5)
        resumed.finalize(10)
        assert max_param_diff(straight_model, resumed_model) == 0.0
        resumed.trainer.audit_noise_ledger(10)
        resumed.close()

    def test_archive_without_resume_keys_still_loads(self, config, tmp_path):
        """An archive written before the resume keys existed loads, and
        leaves the noise std to be observed on the next step."""
        model, trainer = build(config)
        drive(trainer, batches_for(config, 3))
        path = tmp_path / "new.npz"
        save_checkpoint(path, trainer, iteration=3)
        with np.load(path) as archive:
            old = {key: archive[key] for key in archive.files
                   if key != "meta/noise_std"}
        old_path = tmp_path / "old.npz"
        np.savez_compressed(old_path, **old)

        _, fresh = build(config)
        assert load_checkpoint(old_path, fresh) == 3
        assert fresh.last_iteration == 3
        assert fresh._last_noise_std is None

    def test_wrong_ans_mode_rejected(self, config, tmp_path):
        _, trainer = build(config, use_ans=True)
        path = tmp_path / "a.npz"
        save_checkpoint(path, trainer, 0)
        _, other = build(config, use_ans=False)
        with pytest.raises(ValueError, match="ANS mode"):
            load_checkpoint(path, other)

    def test_wrong_noise_seed_rejected(self, config, tmp_path):
        _, trainer = build(config, noise_seed=1)
        path = tmp_path / "a.npz"
        save_checkpoint(path, trainer, 0)
        _, other = build(config, noise_seed=2)
        with pytest.raises(ValueError, match="noise seed"):
            load_checkpoint(path, other)

    def test_geometry_mismatch_rejected(self, config, tmp_path):
        _, trainer = build(config)
        path = tmp_path / "a.npz"
        save_checkpoint(path, trainer, 0)
        other_config = configs.tiny_dlrm(num_tables=2, rows=32, dim=8,
                                         lookups=2)
        _, other = build(other_config)
        with pytest.raises(ValueError):
            load_checkpoint(path, other)

    def test_negative_iteration_rejected(self, config, tmp_path):
        _, trainer = build(config)
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "x.npz", trainer, -1)


class TestExportPrivateModel:
    def test_matches_flush(self, config):
        """Exported snapshot == what finalize() would produce."""
        entries = batches_for(config, 4)
        model, trainer = build(config, use_ans=False)
        drive(trainer, entries)

        released = export_private_model(trainer, iteration=4)

        trainer.finalize(4)
        for name, param in model.parameters().items():
            np.testing.assert_allclose(released[name], param.data,
                                       atol=1e-12)

    def test_does_not_mutate_trainer(self, config):
        entries = batches_for(config, 4)
        model, trainer = build(config)
        drive(trainer, entries, stop=3)
        before = {
            name: param.data.copy()
            for name, param in model.parameters().items()
        }
        histories_before = [
            history.snapshot() for history in trainer.engine.histories
        ]
        export_private_model(trainer, iteration=3)
        for name, param in model.parameters().items():
            np.testing.assert_array_equal(param.data, before[name])
        for history, snapshot in zip(trainer.engine.histories,
                                     histories_before):
            np.testing.assert_array_equal(history.snapshot(), snapshot)

    def test_export_equals_eager_model(self, config):
        """Mid-training release == eager DP-SGD model at that iteration."""
        entries = batches_for(config, 6)

        lazy_model, lazy_trainer = build(config, use_ans=False)
        drive(lazy_trainer, entries, stop=4)
        released = export_private_model(lazy_trainer, iteration=4)

        eager_model = DLRM(config, seed=7)
        eager_trainer = make_trainer("dpsgd_f", eager_model, DPConfig(),
                                     noise_seed=99)
        eager_trainer.expected_batch_size = 16
        drive(eager_trainer, entries, stop=4)

        for name, param in eager_model.parameters().items():
            np.testing.assert_allclose(released[name], param.data,
                                       atol=1e-9)

    def test_refuses_to_release_the_past(self, config):
        """A trainer that has moved on cannot release an older iteration:
        its tables already carry the later updates (the serving engine
        refuses the same request)."""
        _, trainer = build(config)
        drive(trainer, batches_for(config, 4), stop=3)
        with pytest.raises(ValueError, match="ahead of the requested"):
            export_private_model(trainer, iteration=2)

    def test_requires_known_noise_std(self, config):
        _, trainer = build(config)
        with pytest.raises(ValueError, match="noise_std"):
            export_private_model(trainer, iteration=0)

    def test_export_leaves_no_stale_rows(self, config):
        """Every row in the exported tables must have moved (DP property)."""
        entries = batches_for(config, 3)
        model, trainer = build(config)
        drive(trainer, entries)
        released = export_private_model(trainer, iteration=3)
        reference = DLRM(config, seed=7)
        for bag in reference.embeddings:
            moved = ~np.all(
                released[bag.table.name] == bag.table.data, axis=1
            )
            assert np.all(moved)
