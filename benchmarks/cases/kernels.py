"""Kernel case: the bandwidth-bound apply phase and the no-ANS sampler.

The noisy model update is bandwidth-bound (paper §4.3: 85.5% of DRAM
bandwidth at 2 AVX ops/element), so the apply phase's cost scales with
how many passes — and allocations — feed the slab write.  One sweep
compares a slower and a faster kernel on identical data: the
fused/batched numpy kernels against their unfused/looped references.
Last, the kernels with two implementations (``repro.rng._native``: a
compiled inner loop and the numpy expression) run each on the same
data — the keyed Gaussians draw one table's worth of noise (on the
compiled AVX-512 and scalar C bodies and the ufunc chain), the apply
replays the same warm loop, the embedding backward reduces one pooled
batch: equal bits are a hard check, their rates are reported side by
side and not pinned.  So is the release walk on the lanes against the
same walk inline (``flush_speedup_lanes``), and so are the warm apply
loops' minor page faults (``apply_steady_state_faults``): the process
keeps the blocks it frees (:mod:`repro.kernels.arena`), so a warm apply
maps no page.
"""

from __future__ import annotations

import contextlib
import hashlib

import numpy as np

from repro.kernels import lanes, merge_sparse_updates
from repro.kernels.arena import minor_faults
from repro.kernels.fused import fused_noisy_update as numpy_fused
from repro.kernels.sampler import batched_catchup_sum as numpy_batched
from repro.lazydp import ANSEngine
from repro.lazydp.optimizer import FLUSH_CHUNK_ROWS, catch_up_rows
from repro.nn import PerExamplePairs
from repro.obs import format_table
from repro.rng import (
    DOMAIN_ROW_NOISE,
    NoiseStream,
    _native,
    derive_key,
    native_status,
    philox_invocations,
    vector_isa,
)
from repro.rng.noise import _native_columns, _native_tile
from repro.rng.philox import BLOCK
from repro.session import ExecutionPlan

from . import Checks, Result, Table, best_of, case

#: ``(apply geometry, sampling geometry)``.
GEOMETRY = {
    "smoke": (
        dict(num_rows=40_000, dim=16, touched=1024, iterations=40),
        dict(rows_count=128, max_delay=256, dim=16),
    ),
    "full": (
        dict(num_rows=200_000, dim=16, touched=4096, iterations=60),
        dict(rows_count=256, max_delay=512, dim=16),
    ),
}


def _unfused(table, lr, grad, noise):
    """The reference two-step: merge, then fancy-indexed read-modify-write."""
    rows, values = merge_sparse_updates(*grad, *noise)
    table[rows] -= lr * values


def _fused(table, lr, grad, noise):
    """The fused apply as loaded: one pass of ``_sparse.c`` where the
    library loaded, else the numpy merge + traversal."""
    numpy_fused(table, lr, *grad, *noise)


def _fused_numpy(table, lr, grad, noise):
    """The numpy fused apply — one merge pass, one slab traversal —
    whatever the loader found."""
    with _native.using(None):
        numpy_fused(table, lr, *grad, *noise)


def apply_pair(slow, fast, *, num_rows, dim, touched, iterations, repeats=3):
    """Replay one pre-generated stream of ``(grad, noise)`` sparse updates
    (each ``(sorted unique rows, values)``) through two apply kernels
    ``kernel(table, lr, grad, noise)`` on equal tables.  Returns
    ``(slow_s, fast_s, identical, faults)``: best-of wall seconds,
    whether the two slabs ended bitwise equal, and the minor page
    faults of the timed replays (none, once warm).

    The warm-up pass pays first-touch faults outside the timed windows.
    """
    rng = np.random.default_rng(7)

    def sparse():
        rows = np.sort(rng.choice(num_rows, size=touched, replace=False))
        return rows.astype(np.int64), rng.standard_normal((touched, dim))

    updates = [(sparse(), sparse()) for _ in range(8)]
    base = rng.standard_normal((num_rows, dim))

    def replay(kernel, table):
        def run():
            for i in range(iterations):
                grad, noise = updates[i % 8]
                kernel(table, 0.05, grad, noise)

        return run

    tables = (base.copy(), base.copy())
    runs = [replay(kernel, table) for kernel, table in zip((slow, fast), tables)]
    for run in runs:
        run()
    for table in tables:
        table[:] = base
    start = minor_faults()
    slow_s, fast_s = (best_of(repeats, run) for run in runs)
    faults = minor_faults() - start
    identical = tables[0].tobytes() == tables[1].tobytes()
    return slow_s, fast_s, identical, faults


def _looped(stream, rows, delays, iteration, dim):
    """The historical per-lag no-ANS loop (one Philox launch per lag)."""
    total = np.zeros((rows.size, dim), dtype=np.float64)
    order = np.argsort(-delays, kind="stable")
    ordered_rows, ordered_delays = rows[order], delays[order]
    for lag in range(1, int(delays.max()) + 1):
        active = int(np.searchsorted(-ordered_delays, -lag, side="right"))
        if active == 0:
            break
        total[order[:active]] += stream.row_noise(
            0, ordered_rows[:active], iteration - lag + 1, dim, std=0.5
        )
    return total


def _batched(stream, rows, delays, iteration, dim):
    return numpy_batched(stream, 0, rows, delays, iteration, dim, std=0.5)


def sampling_pair(slow, fast, tolerance, *, rows_count, max_delay, dim, repeats=3):
    """Two no-ANS catch-up samplers on one tail-heavy delay profile (the
    shape LazyDP's catch-up actually sees).  Returns ``(seconds,
    launches, close)``: best-of wall seconds and Philox invocations of
    ``(slow, fast)``, and whether the sums agree within ``tolerance``."""
    rng = np.random.default_rng(11)
    stream = NoiseStream(seed=101)
    rows = np.sort(rng.choice(100_000, size=rows_count, replace=False)).astype(np.int64)
    delays = rng.integers(0, max_delay, size=rows_count).astype(np.int64)
    sums, launches, seconds = [], [], []
    for sampler in (slow, fast):

        def run(sampler=sampler):
            return sampler(stream, rows, delays, max_delay + 1, dim)

        run()  # warm the scratch
        before = philox_invocations()
        sums.append(run())
        launches.append(philox_invocations() - before)
        seconds.append(best_of(repeats, run))
    return seconds, launches, bool(np.allclose(*sums, **tolerance))


def _half(name, labels, apply_kernels, samplers, tolerance, geometry, checks):
    """One slow-vs-fast comparison of both kernels; returns
    ``(tables, speedups, launch_ratio, apply_faults)``."""
    apply_geometry, sampling_geometry = geometry
    slow, fast = labels
    slow_s, fast_s, identical, faults = apply_pair(*apply_kernels, **apply_geometry)
    checks.require(identical, f"{name}: {fast} apply diverged from {slow}")
    seconds, launches, close = sampling_pair(*samplers, tolerance, **sampling_geometry)
    checks.require(close, f"{name}: {fast} catch-up sums not within {tolerance}")
    speedups = (slow_s / fast_s, seconds[0] / seconds[1])
    slab = "bitwise equal" if identical else "MISMATCH"
    sums = "within tolerance" if close else "MISMATCH"
    apply_table = format_table(
        ["apply kernel", "total ms", "speedup (x)", "released slab"],
        [[slow, slow_s * 1e3, 1.0, "-"], [fast, fast_s * 1e3, speedups[0], slab]],
        title=f"Apply kernel {apply_geometry}",
    )
    sampling_table = format_table(
        ["no-ANS sampler", "total ms", "philox launches", "speedup (x)", "sums"],
        [
            [slow, seconds[0] * 1e3, launches[0], 1.0, "-"],
            [fast, seconds[1] * 1e3, launches[1], speedups[1], sums],
        ],
        title=f"No-ANS catch-up sampling {sampling_geometry}",
    )
    tables = [
        Table(name, apply_table, measured=True),
        Table(f"{name}_sampling", sampling_table, measured=True),
    ]
    return tables, speedups, launches[1] / max(launches[0], 1), faults


def _pooled_pairs(num_rows, dim, batch=512, pooling=16):
    """One pooled batch's embedding-gradient pairs: a skewed index
    stream (rows repeat within an example — ``mults`` > 1 — and across
    examples) and a strided ``deltas``, as the interaction layer's
    backward hands one to ``EmbeddingBag``."""
    rng = np.random.default_rng(13)
    lookups = np.minimum(rng.zipf(1.2, size=(batch, pooling)) - 1, num_rows - 1)
    keys, mults = np.unique(
        np.arange(batch)[:, None] * num_rows + lookups, return_counts=True
    )
    pairs = PerExamplePairs(
        example_ids=keys // num_rows,
        rows=keys % num_rows,
        mults=mults.astype(np.float64),
        deltas=rng.standard_normal((batch, 3 * dim))[:, dim : 2 * dim],
        batch_size=batch,
    )
    return pairs, rng.random(batch) / batch


def compiled_pair(checks, apply_geometry, repeats=3):
    """The two ``_sparse.c`` loops as loaded and, with the loader's
    handle swapped out, as numpy: :func:`apply_pair`'s warm apply loop
    (the slabs must end bitwise equal) and one pooled
    ``weighted_row_grad`` (equal sha256 of the values).  Returns
    ``(table, {metric: M rows/s}, apply_faults)``; where the library did
    not load only numpy runs and the table says why."""
    name, detail = native_status()
    numpy_s, loaded_s, identical, faults = apply_pair(
        _fused_numpy, _fused, **apply_geometry
    )
    checks.require(
        identical, "the compiled apply and the numpy fused apply wrote different slabs"
    )
    update_rows = 2 * apply_geometry["touched"] * apply_geometry["iterations"]
    pairs, weights = _pooled_pairs(apply_geometry["num_rows"], apply_geometry["dim"])

    def measure(apply_s):
        digest = hashlib.sha256(pairs.weighted_row_grad(weights).values.tobytes())
        seconds = best_of(repeats, lambda: pairs.weighted_row_grad(weights))
        return update_rows / apply_s / 1e6, pairs.rows.size / seconds / 1e6, digest

    measured = {name: measure(loaded_s)}
    if name == "native":
        with _native.using(None):
            measured["numpy"] = measure(numpy_s)
        checks.require(
            measured["native"][2].digest() == measured["numpy"][2].digest(),
            "the compiled scatter-add and np.add.at reduced to different bits",
        )
    table = format_table(
        ["sparse kernels", "apply M rows/s", "scatter-add M pairs/s", "sha256[:12]"],
        [
            [impl, apply_rate, scatter_rate, digest.hexdigest()[:12]]
            for impl, (apply_rate, scatter_rate, digest) in measured.items()
        ],
        title=f"Sparse apply {apply_geometry} + pooled scatter-add, "
        f"{pairs.rows.size} pairs ({name}: {detail})",
    )
    metrics = {}
    for impl, (apply_rate, scatter_rate, _) in measured.items():
        metrics[f"apply_mrows_{impl}"] = apply_rate
        metrics[f"scatter_mpairs_{impl}"] = scatter_rate
    return Table("sparse_kernels", table, measured=True), metrics, faults


def _sincos_fallback_share(num_rows, dim):
    """Share of the angles of :func:`gaussian_pair`'s draw that
    ``gauss_finish``'s AVX-512 body hands to libm: the draw's tiles
    through ``_native_tile``, which returns that count."""
    rows = np.arange(num_rows, dtype=np.uint64)
    out = np.empty((num_rows, dim))
    columns, _ = _native_columns(rows, 1, 1.0, out)
    blocks = (dim + 3) // 4
    tile_rows = BLOCK // blocks
    key = derive_key(101, DOMAIN_ROW_NOISE, 0)
    handed = sum(
        _native_tile(_native.LIB, key, columns, dim,
                     r0, min(r0 + tile_rows, num_rows), 0, blocks)
        for r0 in range(0, num_rows, tile_rows)
    )
    return handed / (2 * num_rows * blocks)


def gaussian_pair(checks, num_rows, dim, repeats=3):
    """One ``(num_rows, dim)`` draw (``dim`` <= 4 x BLOCK) through the
    keyed-Gaussian kernel on every implementation this host has: the
    compiled AVX-512 bodies, the compiled scalar C (AVX-512 switched
    off) and, with the loader's handle swapped out, the ufunc chain.
    Equal sha256 is a hard check.  Returns ``(table, {metric: value})``:
    M Gaussians/s per implementation and, where the AVX-512 body ran,
    the share of angles it handed to libm's ``sincos``; where the
    compiled kernel did not load only the chain runs and the table says
    why."""
    stream = NoiseStream(seed=101)
    rows = np.arange(num_rows)

    def measure():
        digest = hashlib.sha256(stream.row_noise(0, rows, 1, dim).tobytes())
        seconds = best_of(repeats, lambda: stream.row_noise(0, rows, 1, dim))
        return digest.hexdigest(), num_rows * dim / seconds / 1e6

    name, detail = native_status()
    paths = {"ufunc": lambda: _native.using(None)}
    if name == "native":
        # On a host without AVX-512 both keys are "scalar": one entry.
        paths = {vector_isa(): contextlib.nullcontext, "scalar": _native.scalar_c, **paths}
    measured = {}
    for impl, path in paths.items():
        with path():
            measured[impl] = measure()
    checks.require(
        len({digest for digest, _ in measured.values()}) == 1,
        f"the keyed-Gaussian kernel drew different bits on {', '.join(measured)}",
    )
    metrics = {f"gaussian_mps_{impl}": mps for impl, (_, mps) in measured.items()}
    title = f"Keyed-Gaussian kernel, {num_rows} x {dim} ({name}: {detail})"
    if "avx512" in measured:
        metrics["gaussian_sincos_fallback_frac"] = _sincos_fallback_share(num_rows, dim)
        title += (f"; {metrics['gaussian_sincos_fallback_frac']:.2%} of angles "
                  "handed to libm")
    table = format_table(
        ["gaussian kernel", "M gaussians/s", "sha256[:12]"],
        [[impl, mps, digest[:12]] for impl, (digest, mps) in measured.items()],
        title=title,
    )
    return Table("gaussian_kernel", table, measured=True), metrics


def flush_pair(checks, num_rows, dim, iteration=5, repeats=3):
    """One whole-table release walk (``catch_up_rows`` into a copy, every
    row owing ``iteration`` draws) on the lanes and, under
    ``lanes.inline()``, on the caller alone.  Equal sha256 of the two
    copies is a hard check; the speedup is reported, not pinned (a
    two-CPU host's spread is wide).  Returns ``(table, {metric: value})``."""
    source = np.random.default_rng(17).standard_normal((num_rows, dim))
    mechanism = ANSEngine(NoiseStream(seed=103))

    def walk():
        dest = np.empty_like(source)
        catch_up_rows(
            mechanism.fork(),
            0,
            source,
            np.arange(num_rows),
            lambda chunk: np.full(chunk.size, iteration),
            iteration,
            0.05,
            0.3,
            dest=dest,
        )
        return dest

    def measure():
        digest = hashlib.sha256(walk().tobytes()).hexdigest()
        return digest, best_of(repeats, walk)

    measured = {"lanes": measure()}
    with lanes.inline():
        measured["inline"] = measure()
    checks.require(
        measured["lanes"][0] == measured["inline"][0],
        "the release walk on the lanes and inline wrote different bits",
    )
    metrics = {"flush_speedup_lanes": measured["inline"][1] / measured["lanes"][1]}
    table = format_table(
        ["release walk", "ms", "M rows/s", "sha256[:12]"],
        [
            [name, seconds * 1e3, num_rows / seconds / 1e6, digest[:12]]
            for name, (digest, seconds) in measured.items()
        ],
        title=f"Release walk, {num_rows} x {dim} rows in chunks of "
        f"{FLUSH_CHUNK_ROWS}: {len(lanes.CPUS)} lane(s) on cpus "
        f"{','.join(map(str, lanes.CPUS))} vs inline",
    )
    return Table("release_walk_lanes", table, measured=True), metrics


@case(
    "apply_fusion",
    figure="Figure 6, §4.2-4.3 kernel analysis (beyond paper)",
    shows="Fused single-pass apply vs merge + fancy RMW (bitwise slab check, "
    "no page mapped by the warm apply loops), batched vs per-lag no-ANS "
    "sampling with Philox launch counts, and the compiled inner loops "
    "(Gaussian draw, sparse apply, embedding scatter-add) vs their numpy "
    "expressions and the release walk on the lanes vs inline (equal "
    "digests, rates side by side)",
)
def apply_fusion(tier: str) -> Result:
    checks = Checks()
    tables, (apply_speedup, sampling_speedup), launch_ratio, faults = _half(
        "apply_fusion",
        ("unfused/looped numpy", "fused/batched numpy"),
        (_unfused, _fused_numpy),
        (_looped, _batched),
        {"atol": 1e-10},
        GEOMETRY[tier],
        checks,
    )
    checks.require(
        launch_ratio < 1.0, "the batched sampler launched as often as the lag loop"
    )
    metrics = {
        "apply_fusion": {
            "apply_speedup_fused": apply_speedup,
            "sampling_speedup_batched": sampling_speedup,
            "philox_launch_ratio_batched": launch_ratio,
        }
    }

    apply_geometry = GEOMETRY[tier][0]
    gaussian_table, gaussian_mps = gaussian_pair(
        checks, apply_geometry["num_rows"], apply_geometry["dim"]
    )
    metrics["apply_fusion"].update(gaussian_mps)
    sparse_table, sparse_rates, sparse_faults = compiled_pair(checks, apply_geometry)
    metrics["apply_fusion"].update(sparse_rates)
    # Both warm apply loops' timed replays: the numpy reference and
    # fused apply, then the fused apply as loaded and on numpy.
    metrics["apply_fusion"]["apply_steady_state_faults"] = float(faults + sparse_faults)
    flush_table, flush_speedup = flush_pair(
        checks, apply_geometry["num_rows"], 2 * apply_geometry["dim"]
    )
    metrics["apply_fusion"].update(flush_speedup)
    meta = {
        "geometry": GEOMETRY[tier],
        "compiled_kernels": list(native_status()),
        # The kernel surfaces map onto the plan axes: the fused apply
        # serves every plan's apply phase, the batched sampler is the
        # ans=off plan's exact-replay path.
        "plans": {
            "apply": ExecutionPlan().to_spec(),
            "sampling": ExecutionPlan(ans=False).to_spec(),
        },
    }
    return Result(
        tables + [gaussian_table, sparse_table, flush_table], metrics, meta, checks
    )
