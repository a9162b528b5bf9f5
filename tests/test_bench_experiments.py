"""Tests for the figure drivers (``benchmarks/cases/paper.py``), the
measured-step harness and the tables they print."""

import math

import pytest

from benchmarks.cases import paper
from benchmarks.cases.figures import FIGURES, measure_steps
from benchmarks.cases.paper import (
    comparison_table,
    figure6,
    figure10,
    figure11,
    figure13a,
    figure13c,
    figure14,
    geometric_mean,
    section72,
)
from repro import configs
from repro.obs.table import format_table, format_value


class TestReporting:
    def test_format_value_oom(self):
        assert format_value(float("inf")) == "OOM"

    def test_format_value_none(self):
        assert format_value(None) == "-"

    def test_format_value_precision(self):
        assert format_value(1.234) == "1.23"
        assert format_value(42.34) == "42.3"
        assert format_value(259.23) == "259"

    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [[1, 2], [3, 4]], title="t")
        lines = table.splitlines()
        assert lines[0] == "t"
        assert all(len(line) == len(lines[1]) for line in lines[1:])

    def test_comparison_table_includes_both_columns(self):
        text = comparison_table(
            "fig", ("x",), {"s": (1.0,)}, {"s": (2.0,)}
        )
        assert "paper" in text
        assert "modelled" in text

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([2.0, float("inf")]) == pytest.approx(2.0)
        assert math.isnan(geometric_mean([]))


class TestFigureDrivers:
    def test_all_figures_run(self):
        for _, driver, *_ in FIGURES:
            result = driver()
            assert result.figure
            assert result.reproduced
            assert result.table()

    def test_figure10_headline_speedup(self):
        result = figure10()
        assert 90 < result.extras["avg_speedup"] < 160

    def test_figure10_ordering(self):
        result = figure10()
        for i in range(3):
            assert (result.reproduced["sgd"][i]
                    < result.reproduced["lazydp"][i]
                    < result.reproduced["lazydp_no_ans"][i]
                    < result.reproduced["dpsgd_f"][i])

    def test_figure11_overhead_fraction(self):
        result = figure11()
        fraction = result.reproduced["lazydp"][0]
        assert 0.08 < fraction < 0.25

    def test_figure11_split_sums_to_one(self):
        result = figure11()
        split = result.reproduced["lazydp"][1:4]
        assert sum(split) == pytest.approx(1.0)

    def test_figure13a_oom_entry(self):
        result = figure13a()
        assert result.reproduced["dpsgd_f"][-1] == float("inf")
        assert all(v < 10 for v in result.reproduced["lazydp"])

    def test_figure13c_lazydp_wins_everywhere(self):
        result = figure13c()
        for lazy, eager in zip(result.reproduced["lazydp"],
                               result.reproduced["dpsgd_f"]):
            assert eager / lazy > 10

    def test_figure14_overhead_range(self):
        result = figure14()
        for ratio in result.extras["lazydp_over_eana"]:
            assert 1.0 < ratio < 1.6

    def test_figure6_matches_measured_constants(self):
        result = figure6()
        reproduced = result.reproduced["roofline"]
        assert reproduced[1] == pytest.approx(
            paper.FIG6_NOISE_SAMPLING_GFLOPS, rel=0.01
        )

    def test_section72(self):
        result = section72()
        queue, history, fraction = result.reproduced["overheads"]
        assert queue == pytest.approx(paper.SEC72_INPUT_QUEUE_BYTES,
                                      rel=0.01)
        assert history == pytest.approx(paper.SEC72_HISTORY_TABLE_BYTES,
                                        rel=0.01)
        assert fraction < 0.01


class TestMeasuredMode:
    """The real trainers, stepped by the harness the figure cases use."""

    def test_stage_breakdown_keys(self):
        config = configs.small_dlrm(rows=500)
        runs = measure_steps("smoke", [("lazydp", "lazydp", config, 32)])
        stages = runs["lazydp"].trainer.timer.as_dict()
        assert stages["lazydp_dedup"] > 0
        assert stages["noise_sampling"] > 0
