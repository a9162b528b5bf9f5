"""Hardware description of the paper's testbed (Section 6).

The evaluation system is a hybrid CPU-GPU trainer: an Intel Xeon E5-2698v4
(256 GB DDR4 at 68 GB/s) trains the embedding layers, an NVIDIA V100
(32 GB HBM2 at 900 GB/s) trains the MLPs, connected by PCIe 3.0 x16
(16 GB/s).  Constants flagged *measured* come straight from the paper's
characterisation (Figure 6); constants flagged *calibrated* are software
overhead terms fitted to the paper's reported normalised results.  The
headline gaps come from the roofline terms (noise volume and bytes
moved, both proportional to table size), not the fitted ones:
``repro.perfmodel.sensitivity`` shows the conclusions survive +/-50 %
perturbations of every calibrated constant.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CPUSpec:
    """Capacity-optimised CPU hosting the embedding tables."""

    name: str
    dram_bandwidth: float        # bytes/s
    dram_capacity: int           # bytes
    avx_peak_gflops: float       # theoretical peak vector throughput
    stream_efficiency: float     # fraction of bandwidth streaming kernels reach
    compute_efficiency: float    # fraction of peak compute-bound kernels reach
    # Effective cost of touching one embedding row at a random address.
    # Gathers are latency-bound, not streaming-bound: a 512 B row read pays
    # a (partially overlapped) DRAM access, so high-pooling workloads scale
    # with lookup count (Figure 13b's SGD curve).  *Calibrated* to that
    # curve's slope.
    row_access_latency: float = 80e-9

    @property
    def effective_bandwidth(self) -> float:
        return self.dram_bandwidth * self.stream_efficiency

    @property
    def effective_gflops(self) -> float:
        return self.avx_peak_gflops * self.compute_efficiency


@dataclass(frozen=True)
class GPUSpec:
    """Throughput-optimised GPU hosting the dense MLP layers."""

    name: str
    hbm_bandwidth: float         # bytes/s
    hbm_capacity: int            # bytes
    fp32_tflops: float           # peak fp32 throughput (TFLOP/s)
    compute_efficiency: float    # achieved fraction on GEMM-shaped work

    @property
    def effective_flops(self) -> float:
        return self.fp32_tflops * 1e12 * self.compute_efficiency


@dataclass(frozen=True)
class PowerSpec:
    """Phase-level wall power (watts) used by the energy model (Figure 12).

    These are system-level draws (package + DRAM + board) calibrated so
    that the modelled DP-SGD(F)/SGD energy ratio reproduces Figure 12's
    ~1.37x power amplification on top of the latency ratio: DP-SGD pins
    the CPU in its AVX power state for seconds while the GPU idles.
    """

    cpu_idle: float = 50.0
    cpu_stream: float = 95.0     # memory-bound phases (gather, noisy update)
    cpu_avx: float = 250.0       # compute-bound phases (Box-Muller sampling)
    gpu_idle: float = 25.0
    gpu_active: float = 185.0


@dataclass(frozen=True)
class HardwareSpec:
    """The full training system."""

    cpu: CPUSpec
    gpu: GPUSpec
    pcie_bandwidth: float        # bytes/s
    power: PowerSpec


def paper_system() -> HardwareSpec:
    """The exact system of Section 6.

    The CPU's AVX peak (265 GFLOPS) is back-solved from Figure 6: the
    noise-sampling kernel measures 215 GFLOPS at 81% of the achievable
    maximum.  Stream efficiency 0.855 is the paper's measured fraction of
    DRAM bandwidth for the noisy gradient update (Section 4.3).
    """
    return HardwareSpec(
        cpu=CPUSpec(
            name="Intel Xeon E5-2698v4",
            dram_bandwidth=68e9,
            dram_capacity=256 * 10**9,
            avx_peak_gflops=265.0,
            stream_efficiency=0.855,
            compute_efficiency=0.81,
        ),
        gpu=GPUSpec(
            name="NVIDIA V100",
            hbm_bandwidth=900e9,
            hbm_capacity=32 * 10**9,
            fp32_tflops=15.7,
            compute_efficiency=0.55,
        ),
        pcie_bandwidth=16e9,
        power=PowerSpec(),
    )


@dataclass(frozen=True)
class SoftwareCalibration:
    """Framework-overhead terms a pure roofline cannot see (*calibrated*).

    Real DP-SGD systems spend substantial time in per-example bookkeeping
    (hook dispatch, tensor allocation, norm reductions) that scales with
    batch size but not table size.  These constants are fitted once against
    the paper's published normalised results — primarily Figure 3's 96 MB
    operating point (where table-size terms vanish) and Figure 10's SGD
    batch scaling — then held fixed for every other figure, so all
    remaining structure in the reproduced curves comes from the roofline
    terms.
    """

    # Fixed per-iteration launch/dispatch cost (Fig 10: SGD batch scaling).
    # The SGD anchor this implies (~75 ms at batch 2048) is the one
    # consistent with the paper's own arithmetic: Figure 6's kernel
    # efficiencies put DP-SGD's noise+update at 16.2 s for 96 GB, and
    # Section 4.2 says those stages are 82.8% of an end-to-end iteration
    # that Figure 10 puts at 259x SGD.
    framework_fixed_s: float = 0.029
    # Non-roofline per-example cost of the SGD pipeline.
    sgd_per_example_s: float = 11.0e-6
    # Extra per-example cost of each DP variant's clipping pipeline
    # (Fig 3 at 96 MB: B ~ 10x SGD, F 1.5x faster than R; Fig 14 EANA).
    dpsgd_b_extra_per_example_s: float = 260.0e-6
    dpsgd_r_extra_per_example_s: float = 48.0e-6
    dpsgd_f_extra_per_example_s: float = 12.0e-6
    # Constant part of the dense model-update stage (Fig 5's "Else").
    model_update_fixed_s: float = 0.019
    # Fixed cost of the sparse DP update paths (EANA, LazyDP; Fig 14).
    dp_sparse_fixed_s: float = 0.016
    # LazyDP bookkeeping (Fig 11: ~15% overhead split 61 / 22 / 17 at the
    # default config; fixed launch cost plus a per-item slope).
    lazydp_dedup_fixed_s: float = 0.013
    lazydp_dedup_s_per_lookup: float = 6.5e-8
    lazydp_history_read_fixed_s: float = 0.0035
    lazydp_history_read_s_per_row: float = 2.0e-8
    lazydp_history_update_fixed_s: float = 0.0028
    lazydp_history_update_s_per_row: float = 1.5e-8
    # Steady-state fraction of eager noise draws still required when ANS
    # is disabled (Fig 10, LazyDP w/o ANS): every per-iteration noise value
    # must eventually be drawn, so the rate converges to one draw per table
    # element per iteration.
    ans_off_steady_state_factor: float = 1.0


DEFAULT_CALIBRATION = SoftwareCalibration()
