"""The tracer's swap point for the three hot kernels.

Every trainer, the serving engine and the rng facade call the three hot
kernels — ``fused_noisy_update``, ``batched_catchup_sum``,
``batched_row_noise_sum`` — through the :mod:`repro.kernels` package
top level.  Those package-level names are thin wrappers that consult
the one :class:`KernelTable`, named ``numpy``, at call time, so
re-registering that name reroutes every call site (serial, sharded,
pipelined, async, flush, serving) at once.

That is all this module is for.  Its four names — :class:`KernelTable`,
:func:`register_kernel_table`, :func:`set_kernel_backend`,
:func:`active_kernel_table` — are exactly what the frozen
``benchmarks/e2e/tracing.py`` calls to wrap the kernels in spans and to
put the originals back; nothing under ``src/`` selects a table, and
``TrainSession.build`` does not touch this state.  It is not an
extension point: compiled code lands *under* the reference kernels as
a bitwise inner loop the loader chooses (``repro.rng._native``), with no
name to select.  When the ROADMAP "one span vocabulary" ``[benchmark]``
PR makes ``tracing.py`` a reader of spans the kernels emit themselves,
this module and the three wrappers go with it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .fused import fused_noisy_update as _numpy_fused_noisy_update
from .sampler import batched_catchup_sum as _numpy_batched_catchup_sum
from .sampler import batched_row_noise_sum as _numpy_batched_row_noise_sum


@dataclass(frozen=True)
class KernelTable:
    """One named implementation set for the three hot kernels."""

    name: str
    fused_noisy_update: object
    batched_catchup_sum: object
    batched_row_noise_sum: object
    description: str = ""


_TABLES: dict = {}
_ACTIVE = None
_LOCK = threading.Lock()


def register_kernel_table(
    name: str,
    *,
    fused_noisy_update,
    batched_catchup_sum,
    batched_row_noise_sum,
    description: str = "",
) -> KernelTable:
    """Register (or replace) the table under ``name``.

    Replacing the active name takes effect at once: the wrappers
    dispatch to the new table from the next call on.
    """
    global _ACTIVE
    table = KernelTable(
        name=name,
        fused_noisy_update=fused_noisy_update,
        batched_catchup_sum=batched_catchup_sum,
        batched_row_noise_sum=batched_row_noise_sum,
        description=description,
    )
    with _LOCK:
        _TABLES[name] = table
        if _ACTIVE is not None and _ACTIVE.name == name:
            _ACTIVE = table
    return table


_ACTIVE = register_kernel_table(
    "numpy",
    fused_noisy_update=_numpy_fused_noisy_update,
    batched_catchup_sum=_numpy_batched_catchup_sum,
    batched_row_noise_sum=_numpy_batched_row_noise_sum,
    description="vectorised numpy reference kernels",
)


def active_kernel_table() -> KernelTable:
    """The table the package-level kernel wrappers dispatch to."""
    return _ACTIVE


def set_kernel_backend(name: str) -> None:
    """Make the table registered under ``name`` the active one."""
    global _ACTIVE
    with _LOCK:
        table = _TABLES.get(name)
        if table is None:
            raise ValueError(
                f"unknown kernel backend: {name!r} "
                f"(registered: {', '.join(_TABLES)})"
            )
        _ACTIVE = table
