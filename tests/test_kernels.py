"""The fused apply kernels, pinned against their reference two-step.

Two contracts:

* ``fused_noisy_update`` produces the same slab bits as
  ``merge_sparse_updates`` + ``table[rows] -= lr * values`` across
  empty / disjoint / partially- and fully-overlapping row sets — shared
  rows see exactly one summed write.
* the batched no-ANS sampler equals the historical per-lag loop in
  value and in ``samples_drawn`` accounting, with O(1) (budget-bounded,
  ``max_delay``-independent) Philox invocations instead of O(max_delay).

Last, the one swap point the benchmark tracer uses
(``repro.kernels.dispatch``): re-registering the table named ``numpy``
reroutes every consumer of the three hot kernels, at once.
"""

from contextlib import contextmanager
import platform

import numpy as np
import pytest

from repro import configs, kernels
from repro.kernels import (
    active_kernel_table,
    apply_sparse_update,
    arena,
    batched_catchup_sum,
    fused_merge,
    fused_noisy_update,
    merge_sparse_updates,
    register_kernel_table,
    set_kernel_backend,
)
from repro.kernels import fused as numpy_fused
from repro.kernels import sampler as numpy_sampler
from repro.data import LookaheadLoader
from repro.lazydp import ANSEngine
from repro.nn import DLRM
from repro.rng import NoiseStream, _native, philox_invocations
from repro.session import ExecutionPlan, TrainSession
from repro.testing import make_loader
from repro.train import DPConfig
from repro.train.common import StageTimer


def _sorted_rows(rng, universe, n):
    return np.sort(rng.choice(universe, size=n, replace=False)).astype(np.int64)


def _reference_apply(table, lr, grad_rows, grad_values, noise_rows, noise_values):
    rows, values = merge_sparse_updates(
        grad_rows, grad_values, noise_rows, noise_values
    )
    if rows.size:
        table[rows] -= lr * values
    return rows, values


def _case(rng, universe, na, nb, dim, overlap=None):
    """One (grad, noise) update pair; ``overlap`` forces shared rows."""
    grad_rows = _sorted_rows(rng, universe, na) if na else np.empty(0, np.int64)
    if overlap == "full":
        noise_rows = grad_rows.copy()
    elif overlap == "none" and na and nb:
        pool = np.setdiff1d(np.arange(universe), grad_rows)
        noise_rows = np.sort(rng.choice(pool, size=nb, replace=False))
    elif nb:
        noise_rows = _sorted_rows(rng, universe, nb)
    else:
        noise_rows = np.empty(0, np.int64)
    return (
        grad_rows,
        rng.standard_normal((grad_rows.size, dim)),
        noise_rows,
        rng.standard_normal((noise_rows.size, dim)),
    )


CASES = [
    ("both_empty", 0, 0, 4, None),
    ("empty_grad", 0, 7, 4, None),
    ("empty_noise", 9, 0, 4, None),
    ("disjoint", 13, 11, 8, "none"),
    ("partial_overlap", 50, 60, 8, None),
    ("full_overlap", 32, 32, 16, "full"),
    ("single_single", 1, 1, 4, None),
    ("wide_dim", 40, 30, 64, None),
]


class TestFusedNoisyUpdate:
    @pytest.mark.parametrize("name,na,nb,dim,overlap", CASES)
    def test_matches_reference_two_step(self, name, na, nb, dim, overlap):
        rng = np.random.default_rng(hash(name) % (2**32))
        universe = 200
        grad_rows, grad_values, noise_rows, noise_values = _case(
            rng, universe, na, nb, dim, overlap
        )
        reference = rng.standard_normal((universe, dim))
        fused = reference.copy()
        _reference_apply(
            reference, 0.05, grad_rows, grad_values, noise_rows, noise_values
        )
        fused_noisy_update(
            fused, 0.05, grad_rows, grad_values, noise_rows, noise_values
        )
        assert fused.tobytes() == reference.tobytes()

    def test_shared_rows_see_one_summed_write(self):
        """A shared row must be written once with grad + noise — double
        application of either operand is the bug class this pins."""
        table = np.full((4, 2), 10.0)
        rows = np.array([1, 2])
        grad = np.full((2, 2), 3.0)
        noise = np.full((2, 2), 5.0)
        fused_noisy_update(table, 1.0, rows, grad, rows, noise)
        np.testing.assert_array_equal(table[1], [2.0, 2.0])  # 10 - (3 + 5)
        np.testing.assert_array_equal(table[0], [10.0, 10.0])

    def test_property_random_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            universe = int(rng.integers(5, 400))
            na = int(rng.integers(0, min(universe, 80)))
            nb = int(rng.integers(0, min(universe, 80)))
            dim = int(rng.choice([1, 3, 4, 8, 17]))
            grad_rows, grad_values, noise_rows, noise_values = _case(
                rng, universe, na, nb, dim
            )
            reference = rng.standard_normal((universe, dim))
            fused = reference.copy()
            _reference_apply(
                reference, 0.1, grad_rows, grad_values, noise_rows, noise_values
            )
            fused_noisy_update(
                fused, 0.1, grad_rows, grad_values, noise_rows, noise_values
            )
            assert fused.tobytes() == reference.tobytes()

    def test_merged_rows_are_unique_sorted(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            grad_rows, grad_values, noise_rows, noise_values = _case(
                rng, 100, 30, 25, 4
            )
            rows, values = fused_merge(
                grad_rows, grad_values, noise_rows, noise_values
            )
            assert np.all(np.diff(rows) > 0)  # strictly increasing => unique
            expected_rows, expected_values = merge_sparse_updates(
                grad_rows, grad_values, noise_rows, noise_values
            )
            np.testing.assert_array_equal(rows, expected_rows)
            np.testing.assert_array_equal(values, expected_values)

    def test_unsorted_inputs_fall_back_correctly(self):
        rng = np.random.default_rng(5)
        grad_rows = np.array([7, 2, 9], dtype=np.int64)  # unsorted
        grad_values = rng.standard_normal((3, 4))
        noise_rows = np.array([2, 11], dtype=np.int64)
        noise_values = rng.standard_normal((2, 4))
        reference = rng.standard_normal((20, 4))
        fused = reference.copy()
        _reference_apply(
            reference, 0.2, grad_rows, grad_values, noise_rows, noise_values
        )
        fused_noisy_update(
            fused, 0.2, grad_rows, grad_values, noise_rows, noise_values
        )
        assert fused.tobytes() == reference.tobytes()

    def test_row_base_addresses_slab_window(self):
        """row_base shifts global ids into a contiguous slab window."""
        rng = np.random.default_rng(8)
        table = rng.standard_normal((50, 4))
        window = table[20:40]
        reference = table.copy()
        rows = np.array([23, 31, 39], dtype=np.int64)
        values = rng.standard_normal((3, 4))
        reference[rows] -= 0.5 * values
        fused_noisy_update(
            window, 0.5, rows, values,
            np.empty(0, np.int64), np.zeros((0, 4)), row_base=20,
        )
        assert table.tobytes() == reference.tobytes()

    def test_out_redirects_to_memo(self):
        """The serving engine's read-through: source stays untouched,
        the privatized rows land in ``out``."""
        rng = np.random.default_rng(9)
        table = rng.standard_normal((10, 3))
        source_bits = table.tobytes()
        memo = np.zeros_like(table)
        rows = np.array([2, 5], dtype=np.int64)
        noise = rng.standard_normal((2, 3))
        expected = table[rows] - 0.3 * noise
        apply_sparse_update(table, rows, noise, 0.3, out=memo)
        assert table.tobytes() == source_bits
        np.testing.assert_array_equal(memo[rows], expected)
        assert np.all(memo[[0, 1, 3, 4, 6, 7, 8, 9]] == 0.0)

    def test_stage_timing_and_counters_reported(self, compiled_kernels):
        rng = np.random.default_rng(11)
        timer = StageTimer()
        grad_rows, grad_values, noise_rows, noise_values = _case(
            rng, 100, 20, 20, 4
        )
        table = rng.standard_normal((100, 4))
        fused_noisy_update(
            table, 0.1, grad_rows, grad_values, noise_rows, noise_values,
            timer=timer,
        )
        assert "noisy_grad_generation" in timer.totals
        assert "noisy_grad_update" in timer.totals
        # One counter, the same name on both paths: which apply ran.
        assert timer.stats()["counters"] == {
            "numpy_applies": int(compiled_kernels == "numpy")
        }


def _refusal_operands(case):
    """``(table, lr, grad_rows, grad_values, noise_rows, noise_values)``
    the compiled pass must refuse, on top of a case it accepts; what is
    wrong with the rows or the values is wrong with the noise side."""
    rng = np.random.default_rng(21)
    table = rng.standard_normal((12, 4))
    grad_rows = np.array([1, 4, 9], dtype=np.int64)
    noise_rows = np.array([0, 4, 11], dtype=np.int64)
    grad, noise = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    if case == "unsorted":
        noise_rows = noise_rows[::-1].copy()
    elif case == "duplicate":
        noise_rows[1] = 0
    elif case == "negative":
        noise_rows[0] = -2  # numpy wraps it: row 10
    elif case == "past_the_end":
        noise_rows[2] = 12
    elif case == "float32_table":
        table = table.astype(np.float32)
    elif case == "fortran_table":
        table = np.asfortranarray(table)
    elif case == "fortran_values":
        noise = np.asfortranarray(noise)
    elif case == "float32_values":
        noise = noise.astype(np.float32)
    elif case == "int32_rows":
        noise_rows = noise_rows.astype(np.int32)
    elif case == "strided_rows":
        noise_rows = np.repeat(noise_rows, 2)[::2]
    elif case == "read_only_table":
        table.setflags(write=False)
    elif case == "ragged_values":
        noise = noise[:2]
    else:
        assert case == "accepted"
    return table, 0.25, grad_rows, grad, noise_rows, noise


def _outcome(call, destination):
    """What a caller can observe: the exception type (or the return
    value) and every byte of the destination."""
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001 - the type is the assertion
        result = type(exc)
    return result, destination.tobytes()


REFUSALS = [
    "unsorted", "duplicate", "negative", "past_the_end", "float32_table",
    "fortran_table", "fortran_values", "float32_values", "int32_rows",
    "strided_rows", "read_only_table", "ragged_values",
]


class TestCompiledPassRefusals:
    """Both sides of every guard of ``_sparse.c``'s update: what it was
    not built for is refused before the first store — every byte of the
    destination untouched — and the numpy path then produces today's
    result or today's exception."""

    def test_the_base_case_is_accepted(self, native_lib):
        table, lr, *sides = _refusal_operands("accepted")
        before = table.tobytes()
        assert numpy_fused._compiled_update(native_lib, table, table, lr, *sides, 0) == 5
        assert table.tobytes() != before

    @pytest.mark.parametrize("case", REFUSALS)
    def test_refused_before_the_first_store(self, native_lib, case):
        table, lr, *sides = _refusal_operands(case)
        before = table.tobytes()
        assert numpy_fused._compiled_update(native_lib, table, table, lr, *sides, 0) < 0
        assert table.tobytes() == before
        if table.flags.writeable and table.flags.c_contiguous:
            # ... nor into a redirected destination.
            out = np.full(table.shape, 7.0)
            assert numpy_fused._compiled_update(native_lib, table, out, lr, *sides, 0) < 0
            assert np.all(out == 7.0) and table.tobytes() == before

    @pytest.mark.parametrize("row_base", [-1, 3, 5])
    def test_rows_outside_the_window_are_refused(self, native_lib, row_base):
        """[row_base, row_base + nrows) is the slab: a row below the base
        or past the window's end never reaches the store."""
        table, lr, *sides = _refusal_operands("accepted")
        window = table[:8] if row_base == 3 else table  # rows 3..10 / 5..16
        before = table.tobytes()
        update = numpy_fused._compiled_update
        assert update(native_lib, window, window, lr, *sides, row_base) < 0
        assert table.tobytes() == before

    def test_overlapping_source_and_destination_are_refused(self, native_lib):
        buffer = np.arange(13 * 4, dtype=np.float64).reshape(13, 4)
        before = buffer.tobytes()
        _, lr, *sides = _refusal_operands("accepted")
        update = numpy_fused._compiled_update
        assert update(native_lib, buffer[:12], buffer[1:], lr, *sides, 0) < 0
        assert buffer.tobytes() == before

    @pytest.mark.parametrize("case", REFUSALS)
    def test_fused_noisy_update_is_what_it_was(self, native_lib, case):
        def run():
            table, *operands = _refusal_operands(case)
            return _outcome(
                lambda: fused_noisy_update(table, *operands),
                table,
            )

        compiled = run()
        with _native.using(None):
            assert compiled == run()

    @pytest.mark.parametrize("case", REFUSALS)
    @pytest.mark.parametrize("redirect", [False, True])
    def test_apply_sparse_update_is_what_it_was(self, native_lib, case, redirect):
        def run():
            table, lr, _, _, rows, values = _refusal_operands(case)
            out = np.zeros(table.shape) if redirect else None
            return _outcome(
                lambda: apply_sparse_update(table, rows, values, lr, out=out),
                table if out is None else out,
            )

        compiled = run()
        with _native.using(None):
            assert compiled == run()


def _looped_exact_sum(stream, table_id, rows, delays, iteration, dim, std):
    """The historical per-lag loop the batched sampler replaced."""
    total = np.zeros((rows.size, dim), dtype=np.float64)
    max_delay = int(delays.max()) if delays.size else 0
    order = np.argsort(-delays, kind="stable")
    ordered_rows = rows[order]
    ordered_delays = delays[order]
    for lag in range(1, max_delay + 1):
        active = int(np.searchsorted(-ordered_delays, -lag, side="right"))
        if active == 0:
            break
        total[order[:active]] += stream.row_noise(
            table_id, ordered_rows[:active], iteration - lag + 1, dim, std=std
        )
    return total


class TestBufferArena:
    """The warm-memory policy of :mod:`repro.kernels.arena`, seen from
    one kernel: the fused apply's scratch is plain temporaries and
    ``owned`` blocks, so once warm it maps no page."""

    @pytest.mark.skipif(
        platform.libc_ver()[0] != "glibc",
        reason="the allocator policy is glibc's; other libcs are left alone",
    )
    def test_steady_state_allocates_nothing(self, compiled_kernels):
        """Eight updates of 1 024-4 096 rows a side at dim 32 (256 KiB to
        1 MiB operands, past glibc's default 128 KiB mmap threshold),
        each run twice to warm, then twice more: no page mapped.  The
        policy's own witness is ``tests/test_page_faults.py``; this pins
        the property per implementation, the scalar C bodies included."""
        rng = np.random.default_rng(13)
        table = rng.standard_normal((50_000, 32))
        updates = [
            _case(rng, 50_000, *rng.integers(1024, 4097, size=2), 32)
            for _ in range(8)
        ]
        timer = StageTimer()
        for case in updates * 2:
            fused_noisy_update(table, 0.1, *case, timer=timer)
        start = arena.minor_faults()
        for case in updates * 2:
            fused_noisy_update(table, 0.1, *case, timer=timer)
        assert arena.minor_faults() - start == 0  # zero-allocation steady state
        # The compiled pass takes no scratch at all; the numpy one ran.
        assert timer.stats()["counters"] == {
            "numpy_applies": 0 if compiled_kernels == "native" else 32
        }


class TestBatchedSampler:
    @pytest.fixture
    def stream(self):
        return NoiseStream(seed=123)

    def test_equals_lag_loop(self, stream):
        rng = np.random.default_rng(17)
        rows = _sorted_rows(rng, 1000, 64)
        delays = rng.integers(0, 30, size=64).astype(np.int64)
        batched = batched_catchup_sum(stream, 2, rows, delays, 35, 8, std=0.7)
        looped = _looped_exact_sum(stream, 2, rows, delays, 35, 8, 0.7)
        np.testing.assert_allclose(batched, looped, atol=1e-12)

    def test_zero_delay_rows_exactly_zero(self, stream):
        rows = np.array([1, 2, 3], dtype=np.int64)
        delays = np.array([0, 4, 0], dtype=np.int64)
        out = batched_catchup_sum(stream, 0, rows, delays, 9, 4)
        assert np.all(out[[0, 2]] == 0.0)
        assert np.all(out[1] != 0.0)

    def test_row_purity_under_partitioning(self, stream):
        """A row's catch-up sum is identical no matter which other rows
        are batched with it — the invariant sharded-vs-serial bitwise
        equality rests on."""
        rng = np.random.default_rng(19)
        rows = _sorted_rows(rng, 500, 40)
        delays = rng.integers(1, 25, size=40).astype(np.int64)
        whole = batched_catchup_sum(stream, 1, rows, delays, 30, 8, std=0.5)
        split = np.empty_like(whole)
        for part in (slice(0, 13), slice(13, 31), slice(31, 40)):
            split[part] = batched_catchup_sum(
                stream, 1, rows[part], delays[part], 30, 8, std=0.5
            )
        assert whole.tobytes() == split.tobytes()

    def test_oversized_row_windowed_path(self, stream):
        """A row whose delay exceeds the per-row budget is summed in
        bounded lag windows — value-equal to the lag loop, and still a
        pure function of the row (partition- and chunk-invariant)."""
        rows = np.array([5, 9, 40], dtype=np.int64)
        delays = np.array([2, 300, 7], dtype=np.int64)  # 300 > window
        windowed = batched_catchup_sum(
            stream, 0, rows, delays, 301, 4, std=0.5, max_row_scalars=64
        )
        looped = _looped_exact_sum(stream, 0, rows, delays, 301, 4, 0.5)
        np.testing.assert_allclose(windowed, looped, atol=1e-12)
        # Purity: the oversized row alone yields the same bits.
        alone = batched_catchup_sum(
            stream, 0, rows[1:2], delays[1:2], 301, 4, std=0.5,
            max_row_scalars=64,
        )
        assert alone.tobytes() == windowed[1:2].tobytes()
        # Chunk budget must not change bits even with oversized rows.
        chunked = batched_catchup_sum(
            stream, 0, rows, delays, 301, 4, std=0.5, max_scalars=16,
            max_row_scalars=64,
        )
        assert chunked.tobytes() == windowed.tobytes()

    def test_chunked_equals_unchunked_bitwise(self, stream):
        """Row-aligned draw-budget chunking must not change any bits."""
        rng = np.random.default_rng(23)
        rows = _sorted_rows(rng, 2000, 50)
        delays = rng.integers(0, 40, size=50).astype(np.int64)
        whole = batched_catchup_sum(
            stream, 0, rows, delays, 45, 8, max_scalars=1 << 30
        )
        chunked = batched_catchup_sum(
            stream, 0, rows, delays, 45, 8, max_scalars=64
        )
        assert whole.tobytes() == chunked.tobytes()

    def test_single_philox_invocation_within_budget(self, stream):
        rng = np.random.default_rng(29)
        rows = _sorted_rows(rng, 1000, 32)
        delays = rng.integers(1, 200, size=32).astype(np.int64)
        max_delay = int(delays.max())
        before = philox_invocations()
        batched_catchup_sum(
            stream, 0, rows, delays, 205, 4, max_scalars=1 << 30
        )
        batched_invocations = philox_invocations() - before
        assert batched_invocations == 1  # vs the loop's max_delay launches
        before = philox_invocations()
        _looped_exact_sum(stream, 0, rows, delays, 205, 4, 1.0)
        assert philox_invocations() - before == max_delay

    def test_samples_drawn_matches_lag_loop_accounting(self, stream):
        """The batched path must report the draw count the lag loop did:
        sum(delays) * dim scalar Gaussians."""
        engine = ANSEngine(stream, enabled=False)
        rows = np.array([3, 8, 11], dtype=np.int64)
        delays = np.array([5, 0, 2], dtype=np.int64)
        engine.catchup_noise(0, rows, delays, 9, dim=4, std=1.0)
        assert engine.samples_drawn == int(delays.sum()) * 4

    def test_row_noise_sum_uses_one_invocation(self, stream):
        rows = np.arange(10, dtype=np.int64)
        before = philox_invocations()
        total = stream.row_noise_sum(0, rows, 3, 40, dim=8)
        assert philox_invocations() - before == 1
        manual = sum(stream.row_noise(0, rows, it, 8) for it in range(3, 41))
        np.testing.assert_allclose(total, manual, atol=1e-12)

    def test_empty_inputs(self, stream):
        out = batched_catchup_sum(
            stream, 0, np.empty(0, np.int64), np.empty(0, np.int64), 5, 8
        )
        assert out.shape == (0, 8)
        out = batched_catchup_sum(
            stream, 0, np.array([4]), np.array([0]), 5, 8
        )
        assert np.all(out == 0.0)


KERNEL_NAMES = ("fused_noisy_update", "batched_catchup_sum", "batched_row_noise_sum")


@contextmanager
def counting_table():
    """Re-register ``numpy`` with wrappers that log each call by kernel
    name, and put the original functions back on exit.  Yields
    ``(calls, table)``."""
    original = active_kernel_table()
    calls = []

    def counting(name):
        kernel = getattr(original, name)

        def wrapper(*args, **kwargs):
            calls.append(name)  # list.append: safe from shard threads
            return kernel(*args, **kwargs)

        return wrapper

    # One register_kernel_table("numpy", ...) call each way, as the
    # tracer makes; a KernelTable's fields are that call's arguments.
    wrapped = {name: counting(name) for name in KERNEL_NAMES}
    try:
        yield calls, register_kernel_table(**{**vars(original), **wrapped})
    finally:
        register_kernel_table(**vars(original))


def _drive(session, config, steps=3):
    """Step a session with no terminal flush, leaving rows behind on noise."""
    session.trainer.expected_batch_size = 16
    loader = make_loader(config, batch_size=16, num_batches=steps)
    for index, batch, upcoming in LookaheadLoader(loader):
        session.train_step(index + 1, batch, upcoming)


def _assert_active_table_is_the_numpy_reference():
    table = active_kernel_table()
    assert table.name == "numpy"
    assert table.fused_noisy_update is numpy_fused.fused_noisy_update
    assert table.batched_catchup_sum is numpy_sampler.batched_catchup_sum
    assert table.batched_row_noise_sum is numpy_sampler.batched_row_noise_sum


class TestKernelSwapPoint:
    def test_default_table_is_the_numpy_reference_by_identity(self):
        _assert_active_table_is_the_numpy_reference()

    def test_unknown_name_lists_the_registered_ones(self):
        with pytest.raises(ValueError, match=r"registered: numpy"):
            set_kernel_backend("cuda")
        assert active_kernel_table().name == "numpy"

    def test_reregistering_the_active_name_takes_effect_at_once(self):
        # No second set_kernel_backend("numpy"): the replaced table must
        # not stay live behind the wrappers.
        with counting_table() as (calls, table):
            assert active_kernel_table() is table
            kernels.batched_catchup_sum(
                NoiseStream(seed=1), 0, np.array([4]), np.array([2]), 5, 8
            )
            assert calls == ["batched_catchup_sum"]

    def test_the_tracers_call_sequence_still_works(self):
        # benchmarks/e2e/tracing.py: select, read, re-register, select.
        set_kernel_backend("numpy")
        replaced = register_kernel_table(**vars(active_kernel_table()))
        set_kernel_backend("numpy")
        assert active_kernel_table() is replaced
        _assert_active_table_is_the_numpy_reference()

    def test_counting_table_reroutes_every_consumer_and_restores(self):
        rng = np.random.default_rng(29)
        rows = np.array([1, 4], dtype=np.int64)
        stream = NoiseStream(seed=123)
        with counting_table() as (calls, _):
            kernels.fused_noisy_update(
                rng.standard_normal((8, 3)), 0.05, rows,
                rng.standard_normal((2, 3)),
                np.empty(0, dtype=np.int64), np.empty((0, 3)),
            )
            ANSEngine(stream, enabled=False).catchup_noise(
                0, rows, np.array([3, 1]), 9, dim=4, std=1.0
            )
            stream.row_noise_sum(0, rows, 3, 6, dim=4)
            assert calls == list(KERNEL_NAMES)
        _assert_active_table_is_the_numpy_reference()
        stream.row_noise_sum(0, rows, 3, 6, dim=4)
        assert calls == list(KERNEL_NAMES)

    def test_two_sessions_side_by_side_share_the_one_table(self):
        """A ``shards=2,backend=threads`` trainer and a serial session's
        serving engine in one process: both run the registered table,
        and building a session leaves it the same object."""
        config = configs.tiny_dlrm(num_tables=2, rows=64, dim=8, lookups=2)
        with counting_table() as (calls, table):
            with TrainSession.build(
                DLRM(config, seed=7), DPConfig(),
                ExecutionPlan.from_spec("shards=2,backend=threads"),
            ) as training, TrainSession.build(
                DLRM(config, seed=7), DPConfig(), ExecutionPlan(ans=False)
            ) as serial:
                assert active_kernel_table() is table
                _drive(training, config)
                assert calls.count("fused_noisy_update") > 0
                _drive(serial, config)
                # Rows are behind on noise: a lookup catches them up
                # through the ans=off sampler.
                before = calls.count("batched_catchup_sum")
                serial.serve().lookup(0, np.arange(64))
                assert calls.count("batched_catchup_sum") > before
            assert active_kernel_table() is table
