"""A step maps no new page: the process keeps the blocks it frees.

At import :mod:`repro.kernels.arena` sets glibc's allocator to keep the
blocks the process frees (blocks below 32 MiB come from the heap, the
heap keeps up to 64 MiB of free top, and every thread allocates from one
arena), so a step's owned outputs — the weighted gradients, the staged
catch-up noise — land in blocks the last step freed instead of pages the
kernel maps in again.  The witness is the minor-fault count
(``getrusage``): per step, once the heap has grown to the step's size,
and through ``TrainResult.counters["minor_faults"]`` and the process
backend's per-worker counts.  The apply kernels alone are held to none
at all once warm, on the kernels as loaded and on the numpy
expressions, whose scratch is plain temporaries and owned blocks.

The geometry is 8 tables x 20 000 rows x dim 32 at batch 1 024 (two row
parts of the dense half); a step's steady state is the mean of steps 6
to 25.  The fit runs one batch more, so that every counted step has a
next batch: the last step of a fit has no lookahead, and on the numpy
apply its gradient-only update takes scratch no other step uses.
Without the policy the flat plans read ~200-800 faults a step here.
Off glibc the policy is not set and nothing here runs.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import platform
import subprocess
import sys
from contextlib import nullcontext

import numpy as np
import pytest

from repro.configs import small_dlrm
from repro.data import SyntheticClickDataset
from repro.data.loader import DataLoader
from repro.kernels import apply_sparse_update, arena, fused_noisy_update
from repro.nn import DLRM
from repro.nn.dlrm import row_parts
from repro.rng import _native
from repro.session import ExecutionPlan, TrainSession
from repro.train import DPConfig

pytestmark = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc",
    reason="the allocator policy is glibc's; other libcs are left alone",
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
ROWS, BATCH, STEPS, WARM = 20_000, 1024, 25, 5
#: Steady-state pages a step may map: a few stray first touches (a
#: batch with more unique rows than any before it) in 20 steps.
STEADY_BOUND = 16


def reuse_rounds(rounds: int = 6, blocks: int = 8, nbytes: int = 512 << 10) -> list:
    """Minor faults of each round of allocating, touching and freeing
    ``blocks`` arrays of ``nbytes``: a round past the first maps no page
    when freed blocks stay with the process (~1 000 a round without)."""
    counts = []
    for _ in range(rounds):
        start = arena.minor_faults()
        held = [np.ones(nbytes // 8) for _ in range(blocks)]
        del held
        counts.append(arena.minor_faults() - start)
    return counts


def steady_faults(plan: str, probe=None):
    """Fit ``plan`` for :data:`STEPS` steps and a last one; returns the
    mean faults per step over steps 6-25 and the per-step faults.
    ``probe(session)``, if given, runs after step 5 and after step 25
    (outside the counts); its two results come third."""
    config = small_dlrm(rows=ROWS)
    session = TrainSession.build(
        DLRM(config, seed=0), DPConfig(), ExecutionPlan.from_spec(plan),
        noise_seed=3,
    )
    trainer = session.trainer
    per_step, probed = [], []
    step = trainer.train_step

    def counted(iteration, batch, next_batch):
        start = arena.minor_faults()
        loss = step(iteration, batch, next_batch)
        per_step.append(arena.minor_faults() - start)
        if probe is not None and iteration in (WARM, STEPS):
            probed.append(probe(session))
        return loss

    trainer.train_step = counted
    dataset = SyntheticClickDataset(config, seed=1)
    try:
        result = session.fit(DataLoader(dataset, BATCH, STEPS + 1, seed=2))
    finally:
        session.close()
    assert result.iterations == STEPS + 1
    # The counter covers the whole step loop, so every step's faults.
    assert result.counters["minor_faults"] >= sum(per_step)
    return float(np.mean(per_step[WARM:STEPS])), per_step, probed


class TestPolicy:
    def test_set_at_import(self):
        assert arena.KEEPS_FREED_BLOCKS

    def test_freed_blocks_come_back_warm(self):
        counts = reuse_rounds()
        assert max(counts[1:]) <= 8, counts

    def test_spawned_process_sets_it_at_import(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); "
             "import test_page_faults as t; print(max(t.reuse_rounds()[1:]))",
             str(pathlib.Path(__file__).parent)],
            capture_output=True, text=True, timeout=120, env=env, check=True,
        )
        assert int(done.stdout.strip()) <= 8

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="no fork start method on this platform",
    )
    def test_forked_process_inherits_it(self):
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        child = context.Process(target=_send_reuse_rounds, args=(send,))
        child.start()
        send.close()
        try:
            assert receive.poll(60), "the forked child hung"
            counts = receive.recv()
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
        assert child.exitcode == 0
        assert max(counts[1:]) <= 8, counts


def _send_reuse_rounds(conn) -> None:
    conn.send(reuse_rounds())
    conn.close()


class TestSteadyStep:
    def test_geometry_cuts_the_dense_half(self):
        assert len(row_parts(BATCH)) == 2

    @pytest.mark.parametrize("plan", ["ans=on", "ans=off"])
    def test_flat_step_maps_no_new_page(self, plan):
        mean, per_step, _ = steady_faults(plan)
        assert mean <= STEADY_BOUND, per_step

    def test_composed_plan(self):
        """The prefetch side draws each shard's catch-up noise on the
        shard threads and the apply side frees it: with a malloc arena
        per thread, each shard thread's heap grew to the most draws ever
        staged at once on it and mapped 20-50 pages a step.  One arena
        for the process lets either side reuse the other's blocks.

        Bounded at twice the flat plans' 16: the pipeline keeps the
        next step's staged noise alive beside this step's gradients,
        and the shard threads, the lanes and the apply worker free each
        other's blocks in an order that varies from run to run, so the
        one heap reaches its largest live set later than a flat plan's
        — the compiled kernels read 6-10 pages a step here; the numpy
        kernels, whose apply allocates its merged and scaled rows on
        the apply worker, spread more widely from run to run."""
        mean, per_step, _ = steady_faults(
            "shards=2,pipeline=2,async=strict,inflight=2,backend=threads:2"
        )
        assert mean <= 2 * STEADY_BOUND, per_step

    def test_process_workers_report_their_faults(self):
        def worker_faults(session):
            trainer = session.trainer
            first = [w["minor_faults"] for w in trainer.stats()["procshard"]["workers"]]
            again = [w["minor_faults"] for w in trainer.stats()["procshard"]["workers"]]
            # A stats message is not a step's: the counts stand still.
            assert again == first
            return first

        _, per_step, (warm, end) = steady_faults(
            "shards=2,backend=process", probe=worker_faults
        )
        assert len(warm) == len(end) == 2
        for before, after in zip(warm, end):
            # A worker's first plan maps its working set.
            assert 0 < before <= after



class TestWarmKernels:
    @pytest.mark.parametrize("kernels", ["loaded", "numpy"])
    def test_warm_apply_maps_no_page(self, kernels):
        """The allocator policy is the one mechanism that keeps the
        apply's memory warm: once each of eight updates (4 096 sorted
        rows a side, 200 000 x 32) has run twice, neither the fused
        apply nor ``apply_sparse_update`` at a ``row_base`` into a memo
        (``out=``) maps a page — on the kernels as loaded (the compiled
        pass allocates nothing) and on the numpy expressions."""
        rng = np.random.default_rng(5)
        table, base = rng.standard_normal((200_000, 32)), 50_000
        memo = np.zeros_like(table)

        def sparse(low):
            rows = np.sort(rng.choice(np.arange(low, 200_000), 4096, replace=False))
            return rows, rng.standard_normal((4096, 32))

        updates = [(*sparse(0), *sparse(base)) for _ in range(8)]
        counts = []
        with _native.using(None) if kernels == "numpy" else nullcontext():
            for step in range(48):
                grad_rows, grad, noise_rows, noise = updates[step % 8]
                start = arena.minor_faults()
                fused_noisy_update(table, 0.05, grad_rows, grad, noise_rows, noise)
                apply_sparse_update(
                    table[base:], noise_rows, noise, 0.05,
                    row_base=base, out=memo[base:],
                )
                counts.append(arena.minor_faults() - start)
        assert sum(counts[16:]) == 0, counts
