"""Closed-loop load generation against the serving engine.

The serving benchmarks and stress tests need realistic traffic, and
"realistic" for embedding lookups means *skewed*: paper Figure 13(d)
puts 90% of accesses on 0.6%-36% of rows depending on the dataset.
:func:`generate_traffic` draws row ids from exactly that calibrated
Zipf model (``repro.data.skew``), through a shared rank-to-row
permutation so every reader hammers the *same* hot set — the traffic
shape that makes the memo and the hot-row cache earn their keep.

:func:`run_load` is a classic closed-loop load generator: each of N
reader threads issues a request, waits for the reply, "thinks" for a
fixed service emulation time, and repeats.  By the interactive
response-time law the offered throughput is N / (Z + S) for think
time Z and server time S — so throughput scales with readers until
the engine saturates, and per-request latency (p50/p99 over a
per-request ``perf_counter`` clock) shows where the knee is.  This is
the shape the acceptance criterion measures: memo-hit lookups leave
the engine's read lock shared, so multi-reader throughput must scale
well past a single reader's.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..data.skew import paper_skew_spec, zipf_weights


def traffic_probabilities(num_rows: int, skew: str,
                          perm_seed: int = 0) -> np.ndarray:
    """Per-row access probabilities at one fig13d operating point.

    Ranks follow the calibrated Zipf law; a fixed permutation
    (``perm_seed``) scatters rank over row id so the hot set is not
    simply the lowest ids.  Deterministic: the same ``(num_rows,
    skew, perm_seed)`` always yields the same hot rows, so concurrent
    readers and the cache-sizing helper agree on what "hot" means.
    """
    spec = paper_skew_spec(skew, num_rows)
    if spec.kind == "uniform":
        return np.full(num_rows, 1.0 / num_rows)
    weights = zipf_weights(num_rows, spec.exponent)
    probabilities = weights / weights.sum()
    permutation = np.random.default_rng(perm_seed).permutation(num_rows)
    scattered = np.empty(num_rows, dtype=np.float64)
    scattered[permutation] = probabilities
    return scattered


def generate_traffic(
    num_rows: int,
    requests: int,
    batch_size: int,
    skew: str = "medium",
    seed: int = 0,
    perm_seed: int = 0,
) -> np.ndarray:
    """``(requests, batch_size)`` row ids drawn from fig13d traffic.

    ``seed`` varies the draws (give each reader its own); ``perm_seed``
    fixes the rank-to-row scatter (share it across readers so they
    share a hot set).
    """
    probabilities = traffic_probabilities(num_rows, skew, perm_seed)
    cdf = np.cumsum(probabilities)
    cdf[-1] = 1.0  # guard the float tail
    rng = np.random.default_rng(seed)
    draws = rng.random(size=(requests, batch_size))
    return np.searchsorted(cdf, draws, side="right").astype(np.int64)


@dataclass
class LoadReport:
    """One :func:`run_load` run, aggregated across readers."""

    readers: int
    requests: int
    rows: int
    elapsed_seconds: float
    throughput_rps: float
    rows_per_second: float
    latency_p50_ms: float
    latency_p99_ms: float
    think_time_ms: float
    errors: list = field(default_factory=list)


def run_load(
    engine,
    table_index: int = 0,
    readers: int = 1,
    requests_per_reader: int = 200,
    batch_size: int = 8,
    skew: str = "medium",
    think_time: float = 0.0,
    seed: int = 0,
    warmup: bool = True,
) -> LoadReport:
    """Drive ``readers`` closed-loop clients against one served table.

    Traffic is precomputed per reader (generation never sits on the
    measured path); ``warmup=True`` first touches every table row once
    so the measured section is pure memo-hit traffic — the steady
    state a long-running server converges to, and the regime where
    reader scaling is the engine's responsibility rather than the
    catch-up kernel's.  ``think_time`` (seconds) emulates per-request
    client work, giving the closed loop its N/(Z+S) offered load.
    """
    if readers < 1:
        raise ValueError("readers must be positive")
    num_rows = engine.table_rows(table_index)
    traffic = [
        generate_traffic(
            num_rows, requests_per_reader, batch_size, skew=skew,
            seed=seed + 1000 * (r + 1), perm_seed=seed,
        )
        for r in range(readers)
    ]
    if warmup:
        engine.lookup(table_index, np.arange(num_rows))
    latencies = [
        np.zeros(requests_per_reader, dtype=np.float64)
        for _ in range(readers)
    ]
    errors: list = []
    barrier = threading.Barrier(readers + 1)

    def client(r: int) -> None:
        lookup = engine.lookup
        rows = traffic[r]
        clock = time.perf_counter
        recorded = latencies[r]
        try:
            barrier.wait()
            for k in range(requests_per_reader):
                start = clock()
                lookup(table_index, rows[k])
                recorded[k] = clock() - start
                if think_time > 0.0:
                    time.sleep(think_time)
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [
        threading.Thread(target=client, args=(r,), daemon=True)
        for r in range(readers)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    all_latencies = np.concatenate(latencies)
    requests = readers * requests_per_reader
    rows = requests * batch_size
    return LoadReport(
        readers=readers,
        requests=requests,
        rows=rows,
        elapsed_seconds=float(elapsed),
        throughput_rps=requests / elapsed if elapsed > 0 else float("inf"),
        rows_per_second=rows / elapsed if elapsed > 0 else float("inf"),
        latency_p50_ms=float(np.percentile(all_latencies, 50) * 1e3),
        latency_p99_ms=float(np.percentile(all_latencies, 99) * 1e3),
        think_time_ms=think_time * 1e3,
        errors=errors,
    )
