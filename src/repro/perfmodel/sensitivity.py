"""Robustness of the reproduction to its calibration constants.

The performance model mixes first-principles roofline terms (bandwidths,
FLOP rates, byte counts — all from the paper's hardware table and
Figure 6) with a handful of *calibrated* software-overhead constants
(DESIGN.md / ``SoftwareCalibration``).  A fair question is whether the
headline conclusions depend on those fitted numbers.  This module
perturbs every calibrated constant and re-evaluates the conclusions; the
bench case ``benchmarks/run.py ablation_sensitivity`` reports the result.

The expected finding (and what the tests assert): the two orders of
magnitude between LazyDP and eager DP-SGD come from the roofline terms —
noise volume and memory traffic proportional to table size — so the
conclusions survive +/-50% perturbations of every fitted constant.
"""

from __future__ import annotations

from dataclasses import fields, replace

from ..configs import DLRMConfig, mlperf_dlrm
from .hardware import DEFAULT_CALIBRATION, SoftwareCalibration
from .timeline import iteration_breakdown

#: Constants that were fitted to paper-reported results (all of them).
CALIBRATED_FIELDS = tuple(
    field.name for field in fields(SoftwareCalibration)
)


def perturbed_calibration(field_name: str,
                          factor: float) -> SoftwareCalibration:
    """A copy of the default calibration with one constant scaled."""
    if field_name not in CALIBRATED_FIELDS:
        raise ValueError(f"unknown calibration field: {field_name}")
    if factor <= 0:
        raise ValueError("factor must be positive")
    current = getattr(DEFAULT_CALIBRATION, field_name)
    return replace(DEFAULT_CALIBRATION, **{field_name: current * factor})


def headline_speedup(calibration: SoftwareCalibration | None = None,
                     config: DLRMConfig | None = None,
                     batch: int = 2048) -> float:
    """LazyDP's modelled speedup over DP-SGD(F) under a calibration."""
    config = config or mlperf_dlrm()
    lazy = iteration_breakdown(
        "lazydp", config, batch, calibration=calibration
    )
    eager = iteration_breakdown(
        "dpsgd_f", config, batch, calibration=calibration
    )
    return eager.total / lazy.total


def sensitivity_sweep(factors=(0.5, 0.75, 1.25, 1.5),
                      batch: int = 2048) -> list:
    """Perturb each calibrated constant; return [(field, factor, speedup)].

    The baseline (factor 1.0) row is included once at the front.
    """
    config = mlperf_dlrm()
    rows = [("baseline", 1.0, headline_speedup(config=config, batch=batch))]
    for field_name in CALIBRATED_FIELDS:
        for factor in factors:
            calibration = perturbed_calibration(field_name, factor)
            rows.append((
                field_name, factor,
                headline_speedup(calibration, config, batch),
            ))
    return rows


def conclusions_hold(rows, minimum_speedup: float = 30.0) -> bool:
    """True when every perturbed configuration keeps LazyDP's win large.

    ``minimum_speedup`` is deliberately far below the paper's 119x: the
    claim being guarded is "orders of magnitude", not the exact figure.
    """
    return all(speedup >= minimum_speedup for _, _, speedup in rows)
