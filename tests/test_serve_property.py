"""Property-based tests for the serving read-through path.

Two layers, both checked for *bitwise* agreement with a naive
reference over hypothesis-generated inputs (arbitrary duplicate /
unsorted / empty row sets, delays, table shapes):

* :func:`repro.kernels.apply_sparse_update` with ``out=``, at any
  ``row_base`` — the fused gather/subtract/scatter the serving memo is
  built on.  The naive reference is a Python loop; duplicates are
  last-write-wins in both.
* :class:`repro.serve.PrivateServingEngine.lookup` — the full
  read-through: history delays, ANS catch-up draws, memoization.  The
  naive reference privatizes one row at a time straight from
  :meth:`repro.rng.NoiseStream.aggregated_row_noise`.

Plus the accounting invariants the observability layer leans on:
``rows_served`` counts every returned row, ``memo_hits`` everything
answered without a fresh catch-up draw, and the caught-up set is
exactly the union of unique rows ever looked up.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import apply_sparse_update
from repro.lazydp import ANSEngine
from repro.rng import NoiseStream
from repro.serve import PrivateServingEngine

#: Local deadline=None: CI machines stall unpredictably, which
#: hypothesis's timing heuristics misread as slow shrink candidates.
RELAXED = settings(deadline=None, max_examples=60)


@st.composite
def sparse_updates(draw):
    """A (table, rows, values, lr) quadruple with adversarial rows."""
    num_rows = draw(st.integers(min_value=1, max_value=24))
    dim = draw(st.integers(min_value=1, max_value=12))
    count = draw(st.integers(min_value=0, max_value=40))
    rows = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_rows - 1),
            min_size=count, max_size=count,
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(num_rows, dim))
    values = rng.normal(size=(len(rows), dim))
    lr = draw(st.sampled_from([0.05, 0.5, 1.0, 1.7e-3]))
    return table, np.array(rows, dtype=np.int64), values, lr


class TestApplySparseUpdateOut:
    @RELAXED
    @given(case=sparse_updates(), row_base=st.sampled_from([0, 1, 37, 1 << 20]))
    def test_bitwise_matches_naive_reference(self, case, row_base):
        table, rows, values, lr = case
        out = np.zeros_like(table)
        # ``table`` is the window of global rows [row_base, row_base + n).
        apply_sparse_update(
            table, rows + row_base, values.copy(), lr,
            row_base=row_base, out=out, values_writable=True,
        )
        # Naive reference: scale first (the kernel's operation order),
        # then write row by row — duplicates are last-write-wins.
        expected = np.zeros_like(table)
        scaled = values * lr
        for k in range(rows.size):
            expected[rows[k]] = table[rows[k]] - scaled[k]
        np.testing.assert_array_equal(out, expected)

    @RELAXED
    @given(case=sparse_updates())
    def test_out_leaves_table_untouched(self, case):
        table, rows, values, lr = case
        before = table.copy()
        apply_sparse_update(
            table, rows, values.copy(), lr,
            out=np.zeros_like(table), values_writable=True,
        )
        np.testing.assert_array_equal(table, before)


@st.composite
def serving_states(draw):
    """A synthetic served model: tables, histories, and a lookup mix."""
    num_tables = draw(st.integers(min_value=1, max_value=3))
    num_rows = draw(st.integers(min_value=1, max_value=20))
    dim = draw(st.integers(min_value=1, max_value=8))
    iteration = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    tables = [
        rng.normal(size=(num_rows, dim)) for _ in range(num_tables)
    ]
    # Arbitrary per-row catch-up delays: history in [0, iteration].
    histories = [
        np.array(
            draw(st.lists(
                st.integers(min_value=0, max_value=iteration),
                min_size=num_rows, max_size=num_rows,
            )),
            dtype=np.int64,
        )
        for _ in range(num_tables)
    ]
    lookups = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=num_tables - 1),
            st.lists(
                st.integers(min_value=0, max_value=num_rows - 1),
                min_size=0, max_size=12,
            ),
        ),
        min_size=0, max_size=6,
    ))
    noise_seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    use_ans = draw(st.booleans())
    return (tables, histories, iteration, lookups, noise_seed, use_ans)


def build_engine(tables, histories, iteration, noise_seed, use_ans,
                 lr=0.05, std=1.3):
    parameters = {
        f"emb_{t}": table for t, table in enumerate(tables)
    }
    return PrivateServingEngine(
        parameters,
        list(parameters),
        histories,
        ANSEngine(NoiseStream(noise_seed), enabled=use_ans),
        iteration,
        lr,
        std,
        snapshot=True,
    )


def naive_private_row(table, history, stream, table_index, row,
                      iteration, lr, std, use_ans):
    """One row privatized the slow, obviously-correct way.

    ANS mode replaces the whole pending span with one aggregated draw
    (paper Theorem 5.1); exact mode sums the per-iteration draws eager
    DP-SGD would have applied.  Either way: one row at a time, straight
    from the keyed noise primitives.
    """
    delay = iteration - int(history[row])
    if delay == 0:
        return table[row].copy()
    one_row = np.array([row], dtype=np.int64)
    if use_ans:
        noise = stream.aggregated_row_noise(
            table_index, one_row, np.array([delay], dtype=np.int64),
            iteration, table.shape[1], std=std,
        )
    else:
        noise = stream.row_noise_sum(
            table_index, one_row, int(history[row]) + 1, iteration,
            table.shape[1], std=std,
        )
    return table[row] - noise[0] * lr


class TestReadThroughPath:
    @RELAXED
    @given(state=serving_states())
    def test_lookup_bitwise_matches_naive_reference(self, state):
        tables, histories, iteration, lookups, noise_seed, use_ans = state
        engine = build_engine(tables, histories, iteration, noise_seed,
                              use_ans)
        stream = NoiseStream(noise_seed)
        for table_index, row_list in lookups:
            rows = np.array(row_list, dtype=np.int64)
            served = engine.lookup(table_index, rows)
            assert served.shape == (rows.size, tables[table_index].shape[1])
            for k, row in enumerate(row_list):
                expected = naive_private_row(
                    tables[table_index], histories[table_index], stream,
                    table_index, row, iteration, engine.learning_rate,
                    engine.noise_std, use_ans,
                )
                np.testing.assert_array_equal(served[k], expected)

    @RELAXED
    @given(state=serving_states())
    def test_accounting_invariants(self, state):
        tables, histories, iteration, lookups, noise_seed, use_ans = state
        engine = build_engine(tables, histories, iteration, noise_seed,
                              use_ans)
        total_rows = 0
        touched = [set() for _ in tables]
        expected_catchups = 0
        for table_index, row_list in lookups:
            fresh = set(row_list) - touched[table_index]
            expected_catchups += sum(
                1 for row in fresh
                if histories[table_index][row] < iteration
            )
            touched[table_index].update(row_list)
            engine.lookup(
                table_index, np.array(row_list, dtype=np.int64)
            )
            total_rows += len(row_list)
        # Served counts every returned row; a row is a memo hit unless
        # this very lookup privatized it (first unique touch).
        assert engine.rows_served == total_rows
        unique_touches = sum(len(rows) for rows in touched)
        assert engine.memo_hits == total_rows - unique_touches
        # Catch-up draws happen only for rows that actually owe noise.
        assert engine.rows_caught_up == expected_catchups
        # The caught-up set is exactly the union of unique lookups.
        for table_index, rows in enumerate(touched):
            flags = engine._caught_up[table_index]
            assert set(np.nonzero(flags)[0]) == rows

    @RELAXED
    @given(state=serving_states())
    def test_repeat_lookups_are_pure_memo_hits(self, state):
        tables, histories, iteration, lookups, noise_seed, use_ans = state
        engine = build_engine(tables, histories, iteration, noise_seed,
                              use_ans)
        for table_index, row_list in lookups:
            rows = np.array(row_list, dtype=np.int64)
            first = engine.lookup(table_index, rows)
            caught = engine.rows_caught_up
            hits = engine.memo_hits
            again = engine.lookup(table_index, rows)
            np.testing.assert_array_equal(first, again)
            assert engine.rows_caught_up == caught
            assert engine.memo_hits == hits + rows.size

    @RELAXED
    @given(state=serving_states())
    def test_export_equals_lookups_then_export(self, state):
        """Export bits are invariant to which rows were looked up first
        — the memoized prefix never changes the released model."""
        tables, histories, iteration, lookups, noise_seed, use_ans = state
        eager = build_engine(tables, histories, iteration, noise_seed,
                             use_ans)
        lazy = build_engine(tables, histories, iteration, noise_seed,
                            use_ans)
        for table_index, row_list in lookups:
            eager.lookup(table_index, np.array(row_list, dtype=np.int64))
        eager_export = eager.export()
        lazy_export = lazy.export()
        assert eager_export.keys() == lazy_export.keys()
        for name in eager_export:
            np.testing.assert_array_equal(
                eager_export[name], lazy_export[name]
            )
        eager.audit_exactly_once()
        lazy.audit_exactly_once()
