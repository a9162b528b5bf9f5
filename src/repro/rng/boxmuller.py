"""Box-Muller transform: uniforms -> independent standard Gaussians.

The paper (Section 4.3) identifies PyTorch's ``torch.normal`` as a
Box-Muller implementation whose AVX code path executes ~101 vector compute
instructions per loaded vector (trigonometric + logarithmic series), making
noise sampling compute-bound at 81% of peak AVX throughput.  We implement
the same transform in numpy and export the instruction-count constants the
performance model uses to place noise sampling on the roofline (Figure 6).

What *this* implementation is bound by is different.  It works in
place over one cache-resident block of per-thread scratch at a time
(see :data:`repro.rng.philox.BLOCK`), so nothing is allocated.  Per
16 K-counter block (65 536 Gaussians, 32 768 angles), one thread,
measured on the reference host (2 vCPU AVX-512 Xeon at 2.1 GHz, glibc
2.36, numpy 2.4):

* the ufunc chain in this module and :mod:`.philox`, ~1.46 ms, most of
  it ``cos`` + ``sin`` (numpy's float64 trig is libm's, one call per
  element) and the ten Philox rounds as ~100 ufunc passes;
* the same arithmetic compiled (``_gauss.c``, where :mod:`._native`
  could build it) as scalar C, ~0.89 ms in three calls: counters, rounds
  and uniforms 0.22 ms, numpy's ``log`` over the radius lane 0.02, and
  ``sqrt`` + ``sincos`` + products + scale + store 0.65 — 32 768
  ``sincos`` calls at ~18 ns, three quarters of the tile inside glibc;
* the AVX-512 bodies of the same file, where the CPU has them, ~0.22 ms
  (3.3 ns per Gaussian): eight Philox counters per vector, built in
  registers, 0.044 ms, ``log`` 0.022, and 0.150 ms for the tail — a
  vector ``sincos`` over every angle, its scaled values stored straight
  into the output, and 7.1 % of the angles handed back to glibc.

The vector ``sincos`` leaves glibc without moving a bit because glibc's
``sin`` / ``cos`` are correctly rounded wherever the exact value is not
within a hair of a rounding midpoint: on the lattice of 2^32 angles a
tile can produce they misround 0.14 % of values, and never by more than
0.01556 ulp past 1/2.  So a value (evaluated to within 2^-11 ulp)
farther than 0x1.2p-6 + 2^-11 ulp (0.0181) from a midpoint has one
possible libm result — the correctly rounded one, which the vector code
returns — and every other value goes to libm's ``sin``, ``cos`` or,
where an angle has two, ``sincos``; ``tools/check_sincos_lattice.py``
compares the result with ``sin`` and ``cos`` at every angle.
"""

from __future__ import annotations

import numpy as np

from .philox import BLOCK, INV_2_32, block_scratch

# Per-element AVX compute-instruction counts measured by the paper for the
# two bottleneck kernels (Section 4.3, Figure 6).  These calibrate the
# roofline model; they are workload constants, not tunables.
BOX_MULLER_AVX_OPS = 101   # noise sampling: trig/log series per element
NOISY_UPDATE_AVX_OPS = 2   # noisy gradient update: multiply + add per element

# Measured efficiency ceilings from the paper's microbenchmark (Section 4.3).
NOISE_SAMPLING_PEAK_FRACTION = 0.81      # fraction of peak AVX GFLOPS reached
NOISY_UPDATE_BANDWIDTH_FRACTION = 0.855  # fraction of DRAM bandwidth reached


_TWO_PI = 2.0 * np.pi


def _box_muller_inplace(u1: np.ndarray, u2: np.ndarray, tmp: np.ndarray) -> None:
    """Box-Muller over float64 scratch: on return ``u1`` holds ``z0``
    and ``u2`` holds ``z1``; ``tmp`` (same shape) is clobbered."""
    if u1.size and (u1.min() <= 0.0 or u1.max() > 1.0):
        raise ValueError("u1 must lie in (0, 1]")
    np.log(u1, out=u1)
    np.multiply(u1, -2.0, out=u1)
    np.sqrt(u1, out=u1)  # radius
    np.multiply(u2, _TWO_PI, out=u2)  # theta
    np.cos(u2, out=tmp)
    np.sin(u2, out=u2)
    np.multiply(u1, u2, out=u2)
    np.multiply(u1, tmp, out=u1)


def box_muller(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transform two uniform arrays in (0, 1) into two standard normal arrays.

    Implements the basic (non-polar) Box-Muller transform:

        z0 = sqrt(-2 ln u1) * cos(2 pi u2)
        z1 = sqrt(-2 ln u1) * sin(2 pi u2)

    The polar variant avoids trig at the cost of rejection sampling; the
    paper's kernel (and ours) uses the basic form because it vectorises
    without divergence.
    """
    z0, z1 = (np.array(u, dtype=np.float64) for u in np.broadcast_arrays(u1, u2))
    _box_muller_inplace(z0, z1, np.empty_like(z0))
    return z0, z1


def gaussian_lanes(words: list, reals: list) -> list:
    """Four lanes of Philox words to four lanes of N(0, 1), in ``reals``.

    ``words`` is four equal-shape integer arrays of 32-bit words and
    ``reals`` five float64 scratch arrays of that shape.  Words 0/1 feed
    one Box-Muller pair and words 2/3 another, so each 128-bit Philox
    block yields four independent samples; the first four ``reals``
    lanes are returned holding them.
    """
    *lanes, tmp = reals
    for word, lane in zip(words, lanes):
        # (word + 0.5) / 2**32: strictly inside (0, 1), see
        # :func:`repro.rng.philox.uniform_from_uint32`.
        np.add(word, 0.5, out=lane)
        np.multiply(lane, INV_2_32, out=lane)
    _box_muller_inplace(lanes[0], lanes[1], tmp)
    _box_muller_inplace(lanes[2], lanes[3], tmp)
    return lanes


def gaussians_from_uint32_block(words: np.ndarray) -> np.ndarray:
    """Turn a ``(n, 4)`` uint32 Philox output block into ``(n, 4)`` Gaussians
    (lane assignment of :func:`gaussian_lanes`), one :data:`BLOCK` of
    rows at a time."""
    if words.ndim != 2 or words.shape[1] != 4:
        raise ValueError(f"expected shape (n, 4), got {words.shape}")
    gaussians = np.empty(words.shape, dtype=np.float64)
    for start in range(0, words.shape[0], BLOCK):
        block = words[start : start + BLOCK]
        _, reals = block_scratch(block.shape[:1])
        lanes = gaussian_lanes([block[:, word] for word in range(4)], reals)
        for word, lane in enumerate(lanes):
            gaussians[start : start + BLOCK, word] = lane
    return gaussians
