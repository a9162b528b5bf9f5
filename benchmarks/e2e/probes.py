"""The environment block and the two stand-alone machine probes."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
from time import perf_counter

#: Set before numpy is imported (``__main__``): 2-thread BLAS on a
#: 2-core box gave 15.8 steps/s with a 14% spread while scoping, one
#: thread 19.5 with ~5%.
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
#: Used when sysfs reports no last-level cache (containers often hide it).
FALLBACK_LLC_BYTES = 32 << 20


def load_benchmark_spec() -> dict:
    """``BENCHMARK.json``: the single source of metric names, units,
    directions and bounds."""
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def pin_threads() -> None:
    for name in THREAD_PINS:
        os.environ[name] = "1"


def cache_sizes() -> dict:
    """``{"L1d": bytes, "L2": bytes, "L3": bytes}`` of cpu0, from sysfs."""
    sizes: dict = {}
    base = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
        digits = text[:-1] if text[-1] in "KMG" else text
        sizes[f"L{level}{'d' if kind == 'Data' else ''}"] = int(digits) * scale
    return sizes


def llc_bytes(caches: dict) -> int:
    return max(caches.values()) if caches else FALLBACK_LLC_BYTES


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def env_block(seed: int, slab_bytes: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "caches": cache_sizes(),
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
        "slab_bytes": slab_bytes,
        "git_commit": git_commit(),
        "seed": seed,
    }


def reap_children() -> None:
    """End, and wait for, every process this one started.

    ``session.close()`` already joins the shard workers; what is left on
    a clean run is multiprocessing's ``resource_tracker``, spawned at
    the first shared-memory segment.  Left alone it notices the parent's
    exit and ends a moment *after* it — outliving the run.  ``_stop()``
    closes its pipe and waits for it (private, hence the ``getattr``;
    the tracker exits only once every holder of the pipe has, so stray
    workers go first).
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():  # joins the finished
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def stream_gbps(llc: int, repeats: int = 3) -> tuple:
    """Measured copy bandwidth over an array >= 4x the reported LLC.

    Returns ``(GB/s counting read + write bytes, array bytes)`` — the
    base ``kernels.apply_roofline_frac`` divides by (paper Fig. 6's
    85.5%-of-DRAM-bandwidth claim), measured instead of read off a
    datasheet.
    """
    import numpy as np

    count = (4 * llc + 7) // 8
    source = np.ones(count, dtype=np.float64)
    target = np.empty_like(source)
    np.copyto(target, source)  # first touch: page faults are not bandwidth
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        np.copyto(target, source)
        best = min(best, perf_counter() - start)
    return 2 * source.nbytes / best / 1e9, source.nbytes


def gaussian_mps(seed: int, rows: int = 65536, dim: int = 32,
                 repeats: int = 3) -> float:
    """Million Gaussians per second of a stand-alone
    ``NoiseStream.row_noise`` draw (the paper's compute-bound stage)."""
    import numpy as np
    from repro.rng import NoiseStream

    stream = NoiseStream(seed)
    row_ids = np.arange(rows, dtype=np.int64)
    stream.row_noise(0, row_ids[:1024], 1, dim)  # warm
    best = float("inf")
    for repeat in range(repeats):
        start = perf_counter()
        stream.row_noise(0, row_ids, repeat + 1, dim)
        best = min(best, perf_counter() - start)
    return rows * dim / best / 1e6
