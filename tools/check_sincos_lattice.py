#!/usr/bin/env python
"""Prove ``sincos`` returns ``sin``'s and ``cos``'s bits on this libm.

The compiled Gaussian kernel (``src/repro/rng/_gauss.c``) takes both
trig values of a Box-Muller angle from one ``sincos`` call, while the
reference ufunc chain calls ``sin`` and ``cos`` apart.  The released
bits are equal only if the two agree at every angle a tile can produce
— and those are a lattice of exactly 2^32 values, ``2 pi (w + 0.5) /
2^32`` for a 32-bit Philox word ``w``, so the claim is checked
exhaustively rather than sampled.  Builds the same ``.c`` file the
kernel is built from and runs its checker entry over the whole lattice
(~75 s on two cores; glibc 2.36: 0 mismatches).

Exit code 0 when no angle disagrees, 1 otherwise.  The tier-1 suite
runs the same entry over a stratified 2^22-point sample
(``tests/test_native_kernel.py``).
"""

from __future__ import annotations

import os
import pathlib
import sys
from concurrent.futures import ThreadPoolExecutor

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.rng import _native  # noqa: E402

LATTICE = 2**32
CHUNK = 2**24


def main() -> int:
    try:
        # Not `_native.LIB`: this must run where the self-test refused
        # the build, which is exactly when the answer is wanted.
        lib = _native._open(_native._build())
    except _native._Unavailable as exc:
        print(f"cannot build the checker: {exc}", file=sys.stderr)
        return 1
    starts = range(0, LATTICE, CHUNK)
    # ctypes calls drop the GIL, so threads scale across cores.
    with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
        counts = pool.map(
            lambda first: lib.sincos_lattice_mismatches(first, CHUNK, 1), starts
        )
        mismatches = 0
        for done, count in enumerate(counts, 1):
            mismatches += count
            print(f"\r{done}/{len(starts)} chunks, {mismatches} mismatches",
                  end="", flush=True)
    print()
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
