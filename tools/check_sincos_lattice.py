#!/usr/bin/env python
"""Prove the compiled Gaussian kernel's trig returns ``sin``'s and
``cos``'s bits on this CPU and libm.

The reference ufunc chain calls ``sin`` and ``cos`` apart; the compiled
kernel (``src/repro/rng/_gauss.c``) takes both values of a Box-Muller
angle from its AVX-512 ``sincos`` where the CPU has one — which keeps
only correctly rounded values far from a rounding midpoint and hands
every other value to libm's ``sin``, ``cos`` or, where both of an
angle's are near one, ``sincos`` — and from libm's ``sincos`` alone
otherwise.  The released bits are equal only if that agrees with
``sin`` and ``cos`` at every angle a tile can produce, and those are a
lattice of exactly 2^32 values, ``2 pi (w + 0.5) / 2^32`` for a 32-bit
Philox word ``w``: so the claim is checked exhaustively rather than
sampled.  Builds the same ``.c`` files the kernel is built from and runs
their checker entry over the whole lattice (~60 s on two cores).

Prints the mismatch count and, for the AVX-512 path, the share of
angles handed to libm, how many values libm rounds otherwise than
correctly, libm's widest excess past 1/2 ulp among those (which the
kernel's rounding window must exceed), and the first such words.
Exit code 0 when no angle disagrees and that excess is below what the
window tolerates, 1 otherwise.  The tier-1 suite runs the same entry
over a stratified 2^22-point sample, every switch point of the
reduction and a pinned list of misrounded words
(``tests/test_native_kernel.py``).
"""

from __future__ import annotations

import ctypes
import itertools
import pathlib
import sys

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.kernels import lanes  # noqa: E402
from repro.rng import _native  # noqa: E402

LATTICE = 2**32
CHUNK = 2**24
#: Misrounded words kept per chunk (its first), and printed in all.
KEEP, SHOWN = 1, 40


def _chunk(lib, first: int) -> tuple:
    """``(mismatches, fallbacks, misrounded, widest excess, words)``
    over one chunk of the lattice."""
    tally, widest = np.zeros(2, dtype=np.uint64), np.zeros(1)
    words = np.zeros(KEEP, dtype=np.uint32)
    mismatches = lib.sincos_lattice_mismatches(
        first, CHUNK, 1, tally.ctypes.data, widest.ctypes.data, words.ctypes.data, KEEP
    )
    kept = words[: min(KEEP, int(tally[1]))]
    return mismatches, int(tally[0]), int(tally[1]), float(widest[0]), kept.tolist()


def main() -> int:
    try:
        # Not `_native.LIB`: this must run where the self-test refused
        # the build, which is exactly when the answer is wanted.
        lib = _native._open(_native._build())
    except _native._Unavailable as exc:
        print(f"cannot build the checker: {exc}", file=sys.stderr)
        return 1
    vector = bool(_native._isa_switch(lib).value)
    if vector:
        print("AVX-512 sincos (near-midpoint values handed to libm) "
              "against sin and cos")
    else:
        print("no AVX-512 sincos on this CPU and libm: libm's sincos "
              "against sin and cos")
    starts = range(0, LATTICE, CHUNK)
    finished = itertools.count(1)

    def sweep(first: int) -> tuple:
        result = _chunk(lib, first)
        print(f"\r{next(finished)}/{len(starts)} chunks", end="", flush=True)
        return result

    # ctypes calls drop the GIL, so the lanes (one per CPU) scale.
    results = lanes.fan_out(sweep, starts)
    print()
    mismatches = sum(result[0] for result in results)
    fallbacks = sum(result[1] for result in results)
    misrounded = sum(result[2] for result in results)
    widest = max(result[3] for result in results)
    words = [word for result in results for word in result[4]]
    print(f"{mismatches} mismatches")
    if not vector:
        return 1 if mismatches else 0
    tolerated = ctypes.c_double.in_dll(lib, "sincos_tolerated_excess").value
    print(f"handed to libm: {fallbacks / LATTICE:.4%} of angles")
    print(f"libm rounds {misrounded} of {2 * LATTICE} values otherwise than "
          f"correctly; widest excess past 1/2 ulp {widest:.5f} "
          f"(tolerated: below {tolerated:.5f})")
    words = sorted(words)
    shown = words[:: max(1, len(words) // SHOWN)][:SHOWN]
    print(f"{len(shown)} such words, spread over the lattice:")
    for row in range(0, len(shown), 8):
        print("  " + " ".join(f"{word:#010x}" for word in shown[row : row + 8]))
    if widest >= tolerated:
        print("refused: libm's excess leaves the rounding window no margin",
              file=sys.stderr)
        return 1
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
