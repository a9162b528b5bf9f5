"""Project the paper's full-scale results with the calibrated perf model.

The 96 GB MLPerf DLRM does not fit on a laptop, but the performance model
(calibrated once against the paper's measured kernel characteristics,
Figure 6) regenerates every evaluation figure at paper scale.  This
script prints the stage breakdowns behind the headline and the headline
ratios themselves; the figures' paper-vs-modelled tables are bench
cases (``python benchmarks/run.py fig10 fig12 fig13a``).

Run:  python examples/paper_scale_projection.py
"""

from repro import configs
from repro.obs import format_table
from repro.perfmodel import (
    iteration_breakdown,
    iteration_energy_joules,
    paper_system,
)


def stage_table(algorithm: str, config, batch: int = 2048) -> str:
    breakdown = iteration_breakdown(algorithm, config, batch)
    rows = [
        [stage, seconds * 1e3, seconds / breakdown.total]
        for stage, seconds in breakdown.stages.items()
    ]
    rows.append(["TOTAL", breakdown.total * 1e3, 1.0])
    return format_table(
        ["stage", "ms", "fraction"], rows,
        title=f"{algorithm} @ {config.name}, batch {batch}",
    )


def main() -> None:
    hw = paper_system()
    config = configs.mlperf_dlrm()

    print("Where DP-SGD's time goes at 96 GB:")
    print(stage_table("dpsgd_f", config))
    print()
    print("Where LazyDP's time goes at 96 GB:")
    print(stage_table("lazydp", config))
    print()

    lazy = iteration_breakdown("lazydp", config, 2048)
    eager = iteration_breakdown("dpsgd_f", config, 2048)
    print(f"modelled speedup   : {eager.total / lazy.total:.0f}x "
          "(paper: 119x average)")
    print("modelled energy win: "
          f"{iteration_energy_joules(eager, hw) / iteration_energy_joules(lazy, hw):.0f}x "
          "(paper: 155x average)")
    print("paper-vs-modelled figure tables: "
          "python benchmarks/run.py fig10 fig12 fig13a")


if __name__ == "__main__":
    main()
