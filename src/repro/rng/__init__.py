"""Counter-based random number generation substrate.

Provides the deterministic, coordinate-addressable Gaussian noise that makes
LazyDP's lazy-vs-eager equivalence exactly testable, plus the Box-Muller
kernel whose cost model mirrors the paper's characterisation (Section 4.3).
"""

from . import _native
from ._native import native_status, vector_isa
from .boxmuller import (
    BOX_MULLER_AVX_OPS,
    NOISE_SAMPLING_PEAK_FRACTION,
    NOISY_UPDATE_AVX_OPS,
    NOISY_UPDATE_BANDWIDTH_FRACTION,
    box_muller,
    gaussians_from_uint32_block,
)
from .noise import (
    DOMAIN_ANS_NOISE,
    DOMAIN_DATA,
    DOMAIN_DENSE_NOISE,
    DOMAIN_INIT,
    DOMAIN_ROW_NOISE,
    NoiseStream,
)
from .philox import (
    PHILOX_ROUNDS,
    derive_key,
    make_counters,
    philox4x32,
    philox_invocations,
    splitmix64,
    uniform_from_uint32,
)

# Once per process, here and never inside a draw or an update: compile
# (first import per user and source version) or just open the cached
# library, and compare each of its kernels with the numpy expression.
_native.load()

__all__ = [
    "BOX_MULLER_AVX_OPS",
    "NOISE_SAMPLING_PEAK_FRACTION",
    "NOISY_UPDATE_AVX_OPS",
    "NOISY_UPDATE_BANDWIDTH_FRACTION",
    "box_muller",
    "gaussians_from_uint32_block",
    "DOMAIN_ANS_NOISE",
    "DOMAIN_DATA",
    "DOMAIN_DENSE_NOISE",
    "DOMAIN_INIT",
    "DOMAIN_ROW_NOISE",
    "NoiseStream",
    "PHILOX_ROUNDS",
    "derive_key",
    "make_counters",
    "native_status",
    "philox4x32",
    "philox_invocations",
    "splitmix64",
    "uniform_from_uint32",
    "vector_isa",
]
