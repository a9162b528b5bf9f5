"""Checkpointing and model release for LazyDP training.

LazyDP introduces a subtlety that eager DP-SGD does not have: between
iterations, embedding tables are *behind* on noise by design.  Persisting
or publishing them naively would leak which rows were recently accessed —
the very signal the threat model (paper Section 3) says the adversary may
inspect.  Two distinct operations are therefore provided:

* :func:`save_checkpoint` / :func:`load_checkpoint` — **resume** support:
  persists the raw (lazy) tables *together with* the HistoryTables, the
  iteration marker and the last noise std, so training — and release —
  continue exactly where they stopped, under any execution plan (the
  archive speaks global row ids; the loading trainer's plan need not
  match the saving one's).  The checkpoint file itself must be treated
  as training state, not as a released model.
* :func:`export_private_model` — **release** support: returns a copy of
  the parameters with every pending noise update applied (the terminal
  flush of Algorithm 1, without mutating the live training state), i.e.
  the artifact that is safe to publish and distributionally identical to
  eager DP-SGD's model at that iteration.

Checkpoints are ``.npz`` archives; geometry is validated on load.  An
archive stores no LR schedule, only whether the run had one
(``meta/scheduled``): the noise a scheduled run still owes is released
at rates the archive cannot reproduce, so a scheduled archive loads
only into a trainer with a schedule, and an unscheduled one (or one
saved without the flag) only into a trainer without.
"""

from __future__ import annotations

import numpy as np

from .optimizer import catch_up_rows
from .trainer import LazyDPTrainer

_FORMAT_VERSION = 1


def save_checkpoint(path, trainer: LazyDPTrainer, iteration: int) -> None:
    """Persist model parameters, HistoryTables and progress to ``path``."""
    if iteration < 0:
        raise ValueError("iteration must be non-negative")
    arrays = {
        "meta/version": np.array([_FORMAT_VERSION], dtype=np.int64),
        "meta/iteration": np.array([iteration], dtype=np.int64),
        "meta/use_ans": np.array([int(trainer.use_ans)], dtype=np.int64),
        "meta/noise_seed": np.array([trainer.noise_stream.seed], dtype=np.int64),
    }
    if trainer._last_noise_std is not None:
        arrays["meta/noise_std"] = np.array([trainer._last_noise_std])
    if trainer.schedule is not None:
        arrays["meta/scheduled"] = np.array([1], dtype=np.int64)
    for name, param in trainer.model.parameters().items():
        arrays[f"param/{name}"] = param.data
    for index, history in enumerate(trainer.engine.histories):
        arrays[f"history/{index}"] = history.snapshot()
    np.savez_compressed(path, **arrays)


def is_scheduled(archive) -> bool:
    """Whether an open checkpoint archive was saved by a scheduled run."""
    return "meta/scheduled" in archive


def load_checkpoint(path, trainer: LazyDPTrainer) -> int:
    """Restore ``trainer`` (in place) from ``path``; returns the iteration.

    The trainer must be built over a model with the same geometry, the
    same ANS mode and noise seed, and a schedule exactly when the saving
    run had one; mismatches raise rather than silently corrupting the
    privacy bookkeeping.  Load at a quiescent point (no ``fit`` running):
    every ledger is rebased from the restored histories, which is exact
    only when nothing planned is still waiting to be applied.
    """
    with np.load(path) as archive:
        version = int(archive["meta/version"][0])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version: {version}")
        if bool(archive["meta/use_ans"][0]) != trainer.use_ans:
            raise ValueError("checkpoint ANS mode does not match trainer")
        if int(archive["meta/noise_seed"][0]) != trainer.noise_stream.seed:
            raise ValueError(
                "checkpoint noise seed does not match trainer; resuming "
                "with a different stream would break DP bookkeeping"
            )
        if is_scheduled(archive) != (trainer.schedule is not None):
            raise ValueError(
                "checkpoint LR schedule does not match trainer: the run "
                f"was saved {'with' if is_scheduled(archive) else 'without'} "
                "a schedule, and the archive does not store one"
            )
        iteration = int(archive["meta/iteration"][0])

        params = trainer.model.parameters()
        for name, param in params.items():
            key = f"param/{name}"
            if key not in archive:
                raise ValueError(f"checkpoint missing parameter {name}")
            stored = archive[key]
            if stored.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: checkpoint "
                    f"{stored.shape} vs model {param.data.shape}"
                )
            param.data[...] = stored

        for index, history in enumerate(trainer.engine.histories):
            key = f"history/{index}"
            if key not in archive:
                raise ValueError(f"checkpoint missing history table {index}")
            stored = archive[key]
            if stored.shape[0] != history.num_rows:
                raise ValueError(
                    f"history table {index} size mismatch: checkpoint "
                    f"{stored.shape[0]} vs model {history.num_rows}"
                )
            history.load_snapshot(stored)

        # What release and the flush read besides the tables; keys an
        # older archive lacks keep their fresh-trainer values.
        if "meta/noise_std" in archive:
            trainer._last_noise_std = float(archive["meta/noise_std"][0])
    trainer.last_iteration = iteration
    trainer.engine.rebase_ledger()
    return iteration


def export_private_model(
    trainer: LazyDPTrainer, iteration: int, noise_std: float | None = None
) -> dict:
    """A flushed copy of all parameters, safe to release at ``iteration``.

    Performs Algorithm 1's terminal catch-up into copies: every embedding
    row receives its deferred noise through ``iteration``.  The live
    trainer (tables, HistoryTables) is left untouched so training can
    continue afterwards — this is how one publishes periodic model
    snapshots during a long run without breaking the lazy schedule.

    Each released table is written exactly once, chunk by chunk, by the
    release walk the flush runs (:func:`catch_up_rows`): caught-up rows
    land as ``table - lr * noise``, rows that owe nothing as copies.
    Raises ``ValueError`` if any row's history is ahead of ``iteration``
    — the tables have moved on and the past cannot be released.
    """
    if noise_std is None:
        noise_std = trainer._last_noise_std
    if noise_std is None:
        raise ValueError("noise_std unknown: train at least one step or pass it in")
    table_of = {name: t for t, name in enumerate(trainer.model.embedding_param_names)}
    released = {}
    for name, param in trainer.model.parameters().items():
        table_index = table_of.get(name)
        if table_index is None:
            released[name] = param.data.copy()
            continue
        history = trainer.engine.histories[table_index]
        released[name] = dest = np.empty_like(param.data)
        catch_up_rows(
            trainer.engine.ans,
            table_index,
            param.data,
            np.arange(dest.shape[0]),
            lambda rows: history.delays(rows, iteration),
            iteration,
            trainer._learning_rate(iteration),
            noise_std,
            dest=dest,
        )
    return released
