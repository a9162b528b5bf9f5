"""Compiled (numba ``@njit``) implementations of the three hot kernels.

Importing this package registers the ``"numba"`` kernel table with
:mod:`repro.kernels.dispatch`; selecting it (``backend=numba`` on an
:class:`ExecutionPlan <repro.session.ExecutionPlan>`, or
``set_kernel_backend("numba")``) reroutes every trainer and serving
consumer to the kernels below with zero call-site changes.

Without numba installed the modules still import — every ``@njit``
degrades to a no-op decorator (see :mod:`._compat`) — so the
equivalence suite can execute the identical kernel logic interpreted.
Backend *selection* stays gated on real numba either way.

Numerics contract (enforced by ``tests/test_njit_kernels.py`` and the
``apply_fusion`` bench case's compiled half):

* **Bitwise**: the Philox cipher (pure integer) and the fused apply
  arithmetic (same ``value - lr * (grad + noise)`` per element) match
  the numpy kernels bit for bit; the no-ANS catch-up sum is bitwise
  *sequenced* — invariant under sharding/chunking/batching — and
  bitwise-equal to a per-lag replay of the same compiled draws.
* **Tolerance**: Gaussian values (and therefore catch-up sums compared
  *across* backends) may deviate by compiled-libm-vs-numpy-SIMD
  transcendental rounding.  :data:`NUMERIC_TOLERANCE` below is the one
  place that deviation is pinned; every cross-backend float comparison
  in tests and benches uses it.
"""

from __future__ import annotations

from ..dispatch import register_kernel_table
from ._compat import NUMBA_AVAILABLE
from .fused import fused_noisy_update
from .philox import gauss4, philox4x32_blocks, philox4x32_scalar
from .sampler import batched_catchup_sum, batched_row_noise_sum

#: The single pinned tolerance for numba-vs-numpy float comparisons.
#: Per-draw deviation is a few ulp of values |z| <~ 6 (about 1e-15);
#: catch-up sums accumulate at most ~2**16 draws per row at bench
#: scale, so 1e-9 absolute / 1e-9 relative leaves three orders of
#: magnitude of headroom while still failing loudly on any real defect
#: (a single wrong draw is an O(1) error).  Keyword form for
#: ``np.allclose(a, b, **NUMERIC_TOLERANCE)``.
NUMERIC_TOLERANCE = {"rtol": 1e-9, "atol": 1e-9}

register_kernel_table(
    "numba",
    fused_noisy_update=fused_noisy_update,
    batched_catchup_sum=batched_catchup_sum,
    batched_row_noise_sum=batched_row_noise_sum,
    description="numba @njit(parallel) fused apply + register-resident sampling",
)

__all__ = [
    "NUMBA_AVAILABLE",
    "NUMERIC_TOLERANCE",
    "batched_catchup_sum",
    "batched_row_noise_sum",
    "fused_noisy_update",
    "gauss4",
    "philox4x32_blocks",
    "philox4x32_scalar",
]
