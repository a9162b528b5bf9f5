"""The lanes: one pinned thread per CPU under the release walk, the
large draws and the step's per-table loops (:mod:`repro.kernels.lanes`).

The claim under test is that where work runs cannot move a bit: every
release path — the terminal flush, ``export_private_model``, the
serving engine's ``export()`` — every multi-tile draw and every fit —
LazyDP, EANA, DP-SGD(F) and SGD, whose gather-pool, scatter-add and
embedding update run one table per lane, and at 1 024-row batches the
forward and backward in two row halves with the gradient views one
layer per lane — produce the same bytes, histories,
ledgers, draw counts and counters on the lanes as in the one-lane
spelling (``lanes.inline()``), with ANS on and off and under an LR
schedule.  Then the failure and fork semantics: a failing chunk or
table raises only after every lane stopped and leaves exactly its own
rows owing noise; a forked child draws and flushes on lanes of its own.

On a one-CPU host (``taskset -c 0``) both spellings are the inline walk
and no lane thread exists; every test here still passes.
"""

import contextlib
import ctypes
import multiprocessing
import os
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from repro import configs
from repro.data import DataLoader, LookaheadLoader, SyntheticClickDataset
from repro.kernels import lanes
from repro.lazydp import ANSEngine, LedgerError, export_private_model, optimizer
from repro.lazydp.history import HistoryTable
from repro.lazydp.ledger import VersionVector
from repro.nn import DLRM
from repro.nn.dlrm import row_parts
from repro.rng import NoiseStream, derive_key
from repro.serve import PrivateServingEngine
from repro.data.skew import SkewSpec
from repro.session import ExecutionPlan, TrainSession
from repro.testing import train_algorithm
from repro.train import DPConfig, common
from repro.train.schedules import StepDecayLR

DP = DPConfig(noise_multiplier=1.1, max_grad_norm=1.0, learning_rate=0.05)
ITERATIONS = 6
#: Small enough that each 700-row table is eleven chunks.
CHUNK = 64
MULTI_LANE = len(lanes.CPUS) > 1


@pytest.fixture
def config():
    return configs.tiny_dlrm(num_tables=2, rows=700, dim=8, lookups=2)


def lane_threads() -> list:
    return [t for t in threading.enumerate() if t.name.startswith(lanes.NAME)]


def bits(arrays: dict) -> dict:
    return {name: np.ascontiguousarray(a).view(np.uint64).copy() for name, a in arrays.items()}


def assert_same_bits(left: dict, right: dict) -> None:
    assert left.keys() == right.keys()
    for name in left:
        np.testing.assert_array_equal(left[name], right[name], err_msg=name)


def session_for(config, spec, schedule):
    return TrainSession.build(
        DLRM(config, seed=7), DP, ExecutionPlan.from_spec(spec),
        noise_seed=99, schedule=schedule,
    )


def entries(config):
    dataset = SyntheticClickDataset(config, seed=3, num_examples=1 << 12)
    loader = DataLoader(dataset, batch_size=16, num_batches=ITERATIONS, seed=5)
    return list(LookaheadLoader(loader))


def step(session, config):
    session.trainer.expected_batch_size = 16
    for index, batch, upcoming in entries(config):
        session.train_step(index + 1, batch, upcoming)


@pytest.fixture
def small_chunks(monkeypatch):
    """Every release walk in chunks of :data:`CHUNK` rows."""
    monkeypatch.setitem(optimizer.catch_up_rows.__kwdefaults__, "chunk_rows", CHUNK)


def on_lanes_and_inline(run):
    """``run()`` on the lanes and in the one-lane spelling; asserts the
    lanes were used where the host has more than one CPU."""
    before = lanes.stats()["fan_outs"]
    laned = run()
    if MULTI_LANE:
        assert lanes.stats()["fan_outs"] > before
    with lanes.inline():
        before = lanes.stats()["fan_outs"]
        alone = run()
        assert lanes.stats()["fan_outs"] == before
    return laned, alone


SPECS = ["ans=on", "ans=off", "ans=on,async=strict,inflight=2"]
SCHEDULES = {
    "constant": lambda: None,
    "step_decay": lambda: StepDecayLR(0.1, factor=0.5, step_size=2),
}


class TestLanedWalkEqualsInlineWalk:
    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("spec", SPECS)
    def test_the_flush(self, config, spec, schedule):
        def run():
            with session_for(config, spec, SCHEDULES[schedule]()) as session:
                session.trainer.engine.states[0].flush_chunk_rows = CHUNK
                step(session, config)
                session.finalize(ITERATIONS)
                engine = session.trainer.engine
                return (
                    bits({n: p.data for n, p in session.model.parameters().items()}),
                    [h.snapshot() for h in engine.histories],
                    [v.snapshot() for v in engine.ledger],
                    engine.samples_drawn,
                )

        laned, alone = on_lanes_and_inline(run)
        assert_same_bits(laned[0], alone[0])
        for left, right in zip(laned[1:3], alone[1:3]):
            assert len(left) == len(right)
            for a, b in zip(left, right):
                np.testing.assert_array_equal(a, b)
        assert laned[3] == alone[3] > 0
        if "async" in spec:
            assert all(np.all(v == ITERATIONS) for v in laned[2])

    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("spec", ["ans=on", "ans=off"])
    def test_export_private_model(self, config, spec, schedule, small_chunks):
        with session_for(config, spec, SCHEDULES[schedule]()) as session:
            step(session, config)
            trainer = session.trainer
            histories = [h.snapshot() for h in trainer.engine.histories]

            def run():
                drawn = trainer.engine.ans.samples_drawn
                exported = bits(export_private_model(trainer, ITERATIONS))
                return exported, trainer.engine.ans.samples_drawn - drawn

            laned, alone = on_lanes_and_inline(run)
            for before, history in zip(histories, trainer.engine.histories):
                np.testing.assert_array_equal(before, history.snapshot())
        assert_same_bits(laned[0], alone[0])
        assert laned[1] == alone[1] > 0

    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("spec", ["ans=on", "ans=off"])
    def test_serving_export(self, config, spec, schedule, small_chunks):
        with session_for(config, spec, SCHEDULES[schedule]()) as session:
            step(session, config)
            reference = bits(export_private_model(session.trainer, ITERATIONS))

            def run():
                engine = PrivateServingEngine.from_trainer(
                    session.trainer, iteration=ITERATIONS
                )
                engine.lookup(0, np.array([3, 650, 3]))
                served = bits(engine.export())
                engine.audit_exactly_once()
                return served, engine.rows_caught_up

            laned, alone = on_lanes_and_inline(run)
        assert_same_bits(laned[0], alone[0])
        assert_same_bits(laned[0], reference)
        assert laned[1] == alone[1] > 0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_walk_itself_in_many_chunks(self, enabled):
        """``catch_up_rows`` straight: 40 chunks, ragged last one, rows
        that owe nothing copied, ledger and ``landed`` per chunk."""
        rows, dim, iteration = 2530, 6, 9
        source = np.random.default_rng(1).standard_normal((rows, dim))
        last = np.random.default_rng(2).integers(0, iteration + 1, size=rows)
        schedule = StepDecayLR(0.2, factor=0.5, step_size=3)
        mechanism = ANSEngine(NoiseStream(5), enabled, schedule)

        def run():
            ans = mechanism.fork()
            history = HistoryTable(rows)
            history.load_snapshot(last)
            ledger = VersionVector(rows, initial=last)
            dest = np.empty_like(source)
            landed = []
            caught = optimizer.catch_up_rows(
                ans, 1, source, np.arange(rows),
                lambda chunk: history.delays(chunk, iteration), iteration,
                0.1, 0.3, dest=dest, ledger=ledger,
                landed=lambda chunk: landed.append(chunk.copy()), chunk_rows=CHUNK,
            )
            return (
                dest.view(np.uint64), ledger.snapshot(), caught, ans.samples_drawn,
                np.sort(np.concatenate(landed)),
            )

        laned, alone = on_lanes_and_inline(run)
        for left, right in zip(laned, alone):
            np.testing.assert_array_equal(left, right)
        owing = last < iteration
        assert laned[2] == np.count_nonzero(owing)
        # Every lane's draws folded back: one per owing row with ANS,
        # one per deferred (row, iteration) without.
        draws = owing.sum() if enabled else (iteration - last).sum()
        assert laned[3] == draws * dim
        np.testing.assert_array_equal(laned[1], iteration)
        np.testing.assert_array_equal(laned[4], np.arange(rows))


#: name -> (algorithm or plan spec, schedule, lookups, skew).
FITS = {
    "lazydp_ans": ("ans=on", "constant", 2, None),
    "lazydp_no_ans": ("ans=off", "constant", 2, None),
    "lazydp_ans_step_decay": ("ans=on", "step_decay", 2, None),
    "lazydp_no_ans_step_decay": ("ans=off", "step_decay", 2, None),
    "lazydp_pooled_zipf": ("ans=on", "constant", 6, SkewSpec("zipf", 1.2)),
    "lazydp_async": ("ans=on,async=strict,inflight=2", "constant", 2, None),
    "lazydp_pipeline": ("ans=on,pipeline=2", "constant", 2, None),
    "eana": ("eana", "constant", 2, None),
    "eana_pooled_zipf": ("eana", "constant", 6, SkewSpec("zipf", 1.2)),
    "dpsgd_f": ("dpsgd_f", "constant", 2, None),
    "sgd": ("sgd", "constant", 2, None),
}


#: name -> algorithm or plan spec, for fits whose 1024-row batches the
#: model cuts in two row parts (:func:`repro.nn.dlrm.row_parts`).
SPLIT_FITS = {
    "lazydp_ans": "ans=on",
    "lazydp_no_ans": "ans=off",
    "dpsgd_f": "dpsgd_f",
    "eana": "eana",
}


def fit_state(algorithm, config, **kwargs):
    """A whole fit's released state: parameters, histories, ledgers,
    draws, counters and the stages it timed."""
    model, result, trainer = train_algorithm(algorithm, config, **kwargs)
    engine = getattr(trainer, "engine", None)
    state = (
        bits({n: p.data for n, p in model.parameters().items()}),
        [h.snapshot() for h in engine.histories] if engine else [],
        [v.snapshot() for v in engine.ledger] if engine else [],
        engine.samples_drawn if engine else 0,
        # The page-fault count is the allocator's, not the fit's arithmetic.
        {k: v for k, v in result.counters.items() if k != "minor_faults"},
        sorted(result.stage_times),
    )
    if hasattr(trainer, "close"):
        trainer.close()
    return state


def assert_same_fit(laned, alone, lazy: bool) -> None:
    assert_same_bits(laned[0], alone[0])
    for left, right in zip(laned[1:3], alone[1:3]):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            np.testing.assert_array_equal(a, b)
    assert laned[3:] == alone[3:]
    assert "fwd" in laned[5]
    if lazy:
        assert laned[3] > 0


class TestLanedFitEqualsInlineFit:
    """A whole fit — forward and backward row parts, forward pools,
    per-layer gradient views and the embedding update one table per
    lane — against the one-lane fit."""

    @pytest.mark.parametrize("name", FITS)
    def test_the_released_state(self, name):
        algorithm, schedule, lookups, skew = FITS[name]
        config = configs.tiny_dlrm(num_tables=3, rows=700, dim=8, lookups=lookups)
        build = {} if "=" not in algorithm else {
            "schedule": SCHEDULES[schedule]()
        }
        laned, alone = on_lanes_and_inline(
            lambda: fit_state(
                algorithm, config, num_batches=ITERATIONS, skew=skew, **build
            )
        )
        assert_same_fit(laned, alone, lazy="=" in algorithm)

    @pytest.mark.parametrize("name", SPLIT_FITS)
    def test_a_fit_in_two_row_parts(self, name):
        algorithm = SPLIT_FITS[name]
        config = configs.tiny_dlrm(num_tables=3, rows=2000, dim=8, lookups=2)
        assert len(row_parts(1024)) == 2
        laned, alone = on_lanes_and_inline(
            lambda: fit_state(algorithm, config, batch_size=1024, num_batches=3)
        )
        assert_same_fit(laned, alone, lazy="=" in algorithm)

    @pytest.mark.parametrize("spec, tables_on_lanes", [
        ("ans=on", True),
        ("ans=on,async=strict,inflight=2", True),
        ("ans=on,shards=2,backend=threads:2", False),
        ("ans=on,shards=2", True),
    ])
    def test_who_fans_out_the_noisy_update(
        self, config, spec, tables_on_lanes, monkeypatch
    ):
        """Every plan's noisy update runs on the lanes.  A shard state
        spreads its tables over them (``numpy`` runs its shards one
        after another on the caller, each fanning out); under
        ``backend=threads`` the shard tasks are the lane items, and a
        shard's tables walk inline on its lane."""
        original = optimizer.fused_noisy_update
        calls = []

        def recorded(*args, **kwargs):
            calls.append((kwargs["row_base"], threading.current_thread().name))
            return original(*args, **kwargs)

        monkeypatch.setattr(optimizer, "fused_noisy_update", recorded)
        with session_for(config, spec, None) as session:
            session.trainer.expected_batch_size = 16
            for index, batch, upcoming in entries(config):
                calls.append(None)  # a step's calls follow its marker
                session.train_step(index + 1, batch, upcoming)
        threads = [call[1] for call in calls if call is not None]
        laned = [name.startswith(lanes.NAME) for name in threads]
        assert threads and all(laned) == any(laned) == MULTI_LANE
        if not tables_on_lanes:
            steps, shard_lanes = -1, {}
            for call in calls:
                steps += call is None
                if call is not None:
                    shard_lanes.setdefault((steps, call[0]), set()).add(call[1])
            assert len(shard_lanes) == 2 * ITERATIONS
            assert all(len(names) == 1 for names in shard_lanes.values())


class TestStageTimerAcrossThreads:
    def test_threads_time_one_stage_and_lose_nothing(self, monkeypatch):
        """More threads than CPUs time one stage and count one counter.
        Each thread's clock advances by 1 per read, so each interval is
        exactly 1 s: the stage must read the sum of every thread's
        intervals, and the counter every count."""
        clocks = threading.local()

        def perf_counter():
            clocks.now = getattr(clocks, "now", 0.0) + 1.0
            return clocks.now

        monkeypatch.setattr(common, "time", type("Clock", (), {
            "perf_counter": staticmethod(perf_counter),
        }))
        timer = common.StageTimer()
        rounds, workers = 10_000, len(lanes.CPUS) + 2

        def hammer():
            for _ in range(rounds):
                with timer.time("noisy_grad_update"):
                    pass
                timer.count("numpy_applies")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert timer.totals == {"noisy_grad_update": float(workers * rounds)}
        assert timer.counters == {"numpy_applies": workers * rounds}


class TestMultiTileDraws:
    """Draws of several tiles spread over the lanes; every
    implementation of the tile draws the inline bits."""

    def test_rows_across_2_32_per_row_iterations_ragged_block(self, compiled_kernels):
        # dim 31: eight lane blocks, the last one ragged; 2 048 rows a tile.
        rows = np.arange(2**32 - 3000, 2**32 + 3100, dtype=np.uint64)
        iterations = np.arange(rows.size, dtype=np.int64) % 11
        scales = 0.5 + (np.arange(rows.size) % 5).astype(np.float64)

        def run():
            out = np.empty((rows.size, 31))
            NoiseStream._keyed_gaussians(
                derive_key(3, 1, 2), rows, iterations, scales, out
            )
            return out.view(np.uint64)

        laned, alone = on_lanes_and_inline(run)
        np.testing.assert_array_equal(laned, alone)

    def test_one_row_wider_than_a_tile(self, compiled_kernels):
        """An init draw: one "row" of three tiles' worth of blocks, the
        last tile short and its last block ragged."""
        stream = NoiseStream(8)

        def run():
            return stream.init_values(4, (2 * 16384 + 77, 5)).view(np.uint64)

        laned, alone = on_lanes_and_inline(run)
        np.testing.assert_array_equal(laned, alone)


class TestFanOut:
    def test_results_in_item_order(self):
        assert lanes.fan_out(lambda x: x * x, range(50)) == [x * x for x in range(50)]

    def test_every_item_runs_and_the_lowest_failure_is_raised(self):
        ran = []

        def item(index):
            ran.append(index)
            if index in (7, 30):
                raise KeyError(index)
            return index

        for spelling in (contextlib.nullcontext, lanes.inline):
            ran.clear()
            with spelling(), pytest.raises(KeyError) as raised:
                lanes.fan_out(item, range(40))
            assert raised.value.args == (7,)
            assert sorted(ran) == list(range(40))

    def test_a_fan_out_on_a_lane_runs_inline(self):
        threads = lanes.fan_out(
            lambda _: lanes.fan_out(
                lambda _: threading.current_thread().name, range(4)
            ),
            range(4),
        )
        for inner in threads:
            assert len(set(inner)) == 1  # all four on the one thread

    def test_a_fan_out_meeting_a_busy_pool_runs_inline(self):
        """While another caller's fan-out holds every lane, a second
        caller's (a pipelined plan's prefetch beside its applies) runs
        on that caller at once: it queues behind nothing."""
        held, release = threading.Event(), threading.Event()

        def hold(_):
            held.set()
            release.wait(timeout=60)

        holder = threading.Thread(
            target=lanes.fan_out, args=(hold, range(2 * len(lanes.CPUS))),
            daemon=True,
        )
        holder.start()
        try:
            assert held.wait(timeout=60)
            names = lanes.fan_out(
                lambda _: threading.current_thread().name, range(4)
            )
            # Returned with the holder's items still blocked.
            assert holder.is_alive() and not release.is_set()
        finally:
            release.set()
            holder.join(timeout=60)
        assert names == [threading.current_thread().name] * 4

    def test_concurrent_callers_each_item_runs_once(self):
        """More callers than CPUs, a tiny switch interval: every item of
        every caller runs exactly once and lands in its own slot."""
        items, callers = 300, 2 * len(lanes.CPUS) + 2
        calls = [[] for _ in range(callers)]
        results = {}

        def caller(key):
            def item(index):
                calls[key].append(index)
                return key * items + index

            for _ in range(5):
                results[key] = lanes.fan_out(item, range(items))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=caller, args=(k,), daemon=True)
                for k in range(callers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        # Plain booleans: a failing comparison of these long lists would
        # otherwise spend minutes rendering its diff.
        once = sorted(list(range(items)) * 5)
        miscounted = [key for key, seen in enumerate(calls) if sorted(seen) != once]
        assert not miscounted, f"callers with lost or repeated items: {miscounted}"
        misplaced = [
            key
            for key in range(callers)
            if results.get(key) != list(range(key * items, (key + 1) * items))
        ]
        assert not misplaced, f"callers with misplaced results: {misplaced}"


class TestThreadCensus:
    def test_a_composed_fit_runs_no_thread_beyond_the_lanes(self):
        """The lanes are the only pool: a sharded, pipelined, async fit
        on ``backend=threads`` adds its prefetch and apply workers and
        nothing else, and ``close()`` leaves only the lanes."""
        config = configs.tiny_dlrm()
        before = set(threading.enumerate())
        during = []
        session = session_for(
            config, "shards=2,pipeline=2,async=strict,inflight=2,backend=threads:2",
            None,
        )
        step_once = session.trainer._step

        def census(*args):
            loss = step_once(*args)
            during.append({t.name for t in set(threading.enumerate()) - before})
            return loss

        session.trainer._step = census
        try:
            session.fit(DataLoader(
                SyntheticClickDataset(config, seed=3, num_examples=1 << 10),
                batch_size=16, num_batches=ITERATIONS, seed=5,
            ))
        finally:
            session.close()
        workers = {"noise-prefetch", "lazydp-apply"}
        # The prefetch worker ends once it has staged the last batch.
        assert len(during) == ITERATIONS and during[0] == workers, during
        assert all(names <= workers for names in during), during
        assert set(threading.enumerate()) - before == set()
        assert {t.name for t in before if t.name.startswith(lanes.NAME)} == {
            f"{lanes.NAME}{lane}" for lane in range(len(lanes.CPUS) if MULTI_LANE else 0)
        }


class TestLanesAreProcessState:
    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity"), reason="no affinity API here"
    )
    def test_one_lane_per_usable_cpu(self):
        assert lanes.CPUS == tuple(sorted(os.sched_getaffinity(0)))

    def test_one_pinned_lane_per_cpu_or_none(self):
        lanes.fan_out(lambda x: x, range(8))
        threads = lane_threads()
        if not MULTI_LANE:
            assert threads == []
            return
        assert sorted(t.name for t in threads) == [
            f"{lanes.NAME}{i}" for i in range(len(lanes.CPUS))
        ]
        for thread in threads:
            lane = int(thread.name[len(lanes.NAME):])
            assert os.sched_getaffinity(thread.native_id) == {lanes.CPUS[lane]}

    def test_idle_lanes_hold_nothing_of_the_last_caller(self):
        """A job's closure can own a whole table; once the caller drops
        it, no idle lane may keep it alive (nor a forked child inherit
        it)."""
        table = np.zeros((4096, 8))
        alive = weakref.ref(table)
        lanes.fan_out(lambda row, owned=table: owned[row].sum(), range(64))
        del table
        deadline = time.monotonic() + 10
        while alive() is not None and time.monotonic() < deadline:
            time.sleep(0.001)
        assert alive() is None

    def test_lanes_start_at_most_once_whatever_the_fits(self, config):
        for _ in range(3):
            with session_for(config, "ans=on", None) as session:
                step(session, config)
                session.finalize(ITERATIONS)
        stats = lanes.stats()
        assert stats["started"] == (1 if MULTI_LANE else 0)
        assert len(lane_threads()) == (len(lanes.CPUS) if MULTI_LANE else 0)

    @pytest.mark.skipif(not MULTI_LANE, reason="one CPU: no lanes, BLAS untouched")
    def test_blas_runs_one_thread_beside_the_lanes(self):
        """numpy's OpenBLAS runs one thread per caller once the lanes
        start, whatever the environment asked for: the ``D.T @ A``
        reduction of a 2 048-row batch has other bits on two threads."""
        try:
            with open("/proc/self/maps") as maps:
                paths = {
                    line.split()[-1] for line in maps
                    if "openblas" in line.rsplit("/", 1)[-1].lower()
                }
        except OSError:
            pytest.skip("no /proc/self/maps")
        getters = [
            getattr(ctypes.CDLL(path), name)
            for path in paths
            for name in (
                "scipy_openblas_get_num_threads64_", "openblas_get_num_threads"
            )
            if hasattr(ctypes.CDLL(path), name)
        ]
        if not getters:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        assert [getter() for getter in getters] == [1] * len(getters)

    def test_kernel_stats_report_the_lanes(self, config):
        with session_for(config, "ans=on", None) as session:
            stats = session.trainer.kernel_stats()["lanes"]
        assert stats == lanes.stats()
        assert stats["cpus"] == list(lanes.CPUS)


class TestNoNesting:
    """A flush fans out once per walk, or once for all shard tasks
    under ``backend=threads``, whose walks then run inline on their
    lanes: no fan-out nests in another."""

    @pytest.mark.parametrize("spec, walks_fan_out", [
        ("ans=on", True),
        ("ans=on,shards=2,backend=threads:2", False),
        ("ans=on,shards=2", True),
    ])
    def test_who_fans_out_the_flush(self, config, spec, walks_fan_out):
        with session_for(config, spec, None) as session:
            states = session.trainer.engine.states
            for state in states:
                state.flush_chunk_rows = CHUNK
            step(session, config)
            before = lanes.stats()["fan_outs"]
            session.finalize(ITERATIONS)
            laned = lanes.stats()["fan_outs"] - before
        # One walk per (shard, table), else one fan-out of the shard tasks.
        fan_outs = len(states) * config.num_tables if walks_fan_out else 1
        assert laned == (fan_outs if MULTI_LANE else 0)


class TestFailureOnALane:
    def test_failing_chunk_raises_after_every_lane_stopped(self, config, monkeypatch):
        """A chunk whose write fails under ``async=strict``: the inline
        walk's exception type, raised once every other chunk finished,
        and the ledger audit names exactly the failed chunk's rows."""
        original = optimizer.apply_sparse_update

        def outcome():
            finished, failed = [], []

            def flaky(source, rows, *args, **kwargs):
                if np.shares_memory(source, target) and 350 in rows:
                    failed.append(rows.copy())
                    raise RuntimeError("injected chunk failure")
                result = original(source, rows, *args, **kwargs)
                finished.append(time.perf_counter())
                return result

            monkeypatch.setattr(optimizer, "apply_sparse_update", flaky)
            session = session_for(config, "ans=on,async=strict,inflight=2", None)
            target = session.model.embeddings[1].table.data
            session.trainer.engine.states[0].flush_chunk_rows = CHUNK
            try:
                with pytest.raises(RuntimeError, match="injected chunk failure"):
                    session.fit(DataLoader(
                        SyntheticClickDataset(config, seed=3, num_examples=1 << 12),
                        batch_size=16, num_batches=ITERATIONS, seed=5,
                    ))
                caught_at = time.perf_counter()
                trainer = session.trainer
                with pytest.raises(LedgerError, match=f"{failed[0].size} row"):
                    trainer.audit_noise_ledger(ITERATIONS)
                owing = [v.pending_rows(ITERATIONS) for v in trainer.ledger]
            finally:
                session.close()
                monkeypatch.setattr(optimizer, "apply_sparse_update", original)
            assert len(failed) == 1 and max(finished) < caught_at
            return failed[0], owing

        laned = outcome()
        with lanes.inline():
            alone = outcome()
        failed, owing = laned
        assert owing[0].size == 0
        np.testing.assert_array_equal(owing[1], np.sort(failed))
        np.testing.assert_array_equal(failed, alone[0])
        for left, right in zip(owing, alone[1]):
            np.testing.assert_array_equal(left, right)


class TestFailingTableOnALane:
    FAILING, AT = 1, 3

    def outcome(self, monkeypatch, fail: bool):
        """Step a three-table ``async=strict`` session (a ledger, applied
        inline outside ``fit``) to iteration :attr:`AT`, where table
        :attr:`FAILING`'s apply raises (``fail``) or is skipped, then
        flush.  Returns the failed rows, each table's owing rows after
        the flush, the slabs, the tables finished at :attr:`AT` and the
        time the last of them finished."""
        config = configs.tiny_dlrm(num_tables=3, rows=700, dim=8, lookups=2)
        original = optimizer.fused_noisy_update
        session = session_for(config, "ans=on,async=strict,inflight=2", None)
        target = session.model.embeddings[self.FAILING].table.data
        failed, finished, iteration = [], [], [0]

        def flaky(table, lr, grad_rows, grad_values, noise_rows, *args, **kwargs):
            if np.shares_memory(table, target) and iteration[0] == self.AT:
                failed.append(noise_rows.copy())
                if fail:
                    raise RuntimeError("injected table failure")
                return 0
            result = original(
                table, lr, grad_rows, grad_values, noise_rows, *args, **kwargs
            )
            if iteration[0] == self.AT:
                finished.append(time.perf_counter())
            return result

        monkeypatch.setattr(optimizer, "fused_noisy_update", flaky)
        try:
            session.trainer.expected_batch_size = 16
            for index, batch, upcoming in entries(config)[: self.AT]:
                iteration[0] = index + 1
                if iteration[0] == self.AT and fail:
                    with pytest.raises(RuntimeError, match="injected table failure"):
                        session.train_step(iteration[0], batch, upcoming)
                    caught_at = time.perf_counter()
                else:
                    session.train_step(iteration[0], batch, upcoming)
            iteration[0] = 0
            session.finalize(self.AT)
            trainer = session.trainer
            owing = [v.pending_rows(self.AT) for v in trainer.ledger]
            if fail:
                with pytest.raises(LedgerError, match=f"{failed[0].size} row"):
                    trainer.audit_noise_ledger(self.AT)
                assert max(finished) < caught_at
            else:
                trainer.audit_noise_ledger(self.AT)
            slabs = bits({
                n: p.data for n, p in session.model.parameters().items()
            })
        finally:
            session.close()
            monkeypatch.setattr(optimizer, "fused_noisy_update", original)
        return failed, owing, slabs, len(finished)

    def test_raises_after_every_other_table_and_owes_only_its_rows(
        self, monkeypatch
    ):
        laned = self.outcome(monkeypatch, fail=True)
        with lanes.inline():
            alone = self.outcome(monkeypatch, fail=True)
        skipped = self.outcome(monkeypatch, fail=False)
        failed, owing, slabs, others = laned
        assert len(failed) == 1 and failed[0].size > 0
        assert others == 2  # both other tables applied at that step
        for table, rows in enumerate(owing):
            expected = failed[0] if table == self.FAILING else []
            np.testing.assert_array_equal(rows, expected)
        # The failing apply wrote nothing: every slab, its own included,
        # is the run that skipped only that apply.
        assert_same_bits(slabs, skipped[2])
        assert all(rows.size == 0 for rows in skipped[1])
        np.testing.assert_array_equal(failed[0], alone[0][0])
        for left, right in zip(owing, alone[1]):
            np.testing.assert_array_equal(left, right)
        assert_same_bits(slabs, alone[2])


def _child_draw_and_flush(conn) -> None:
    conn.send((_big_draw(), _flush_bytes(), lanes.stats()))
    conn.close()


def _big_draw() -> bytes:
    return NoiseStream(21).init_values(9, (6000, 32)).tobytes()


def _flush_bytes() -> bytes:
    rows, dim = 3000, 8
    source = np.random.default_rng(4).standard_normal((rows, dim))
    dest = np.empty_like(source)
    optimizer.catch_up_rows(
        ANSEngine(NoiseStream(6)), 0, source, np.arange(rows),
        lambda chunk: np.full(chunk.size, 4), 4, 0.1, 0.2,
        dest=dest, chunk_rows=CHUNK,
    )
    return dest.tobytes()


class TestForkedChild:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="no fork start method on this platform",
    )
    def test_child_draws_and_flushes_on_its_own_lanes(self):
        parent = (_big_draw(), _flush_bytes())  # the lanes have run here
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        child = context.Process(target=_child_draw_and_flush, args=(send,))
        child.start()
        send.close()
        try:
            assert receive.poll(60), "the forked child hung"
            draw, flushed, stats = receive.recv()
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
        assert child.exitcode == 0
        assert (draw, flushed) == parent
        assert stats["started"] == (1 if MULTI_LANE else 0)
        assert stats["fan_outs"] == (2 if MULTI_LANE else 0)
