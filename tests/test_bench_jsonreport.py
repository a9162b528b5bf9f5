"""Unit tests for the benchmark JSON reports and the regression gate.

The CI ``bench-regression`` job rests on the emit and gate functions of
``benchmarks/run.py``: artifacts must be written where the job uploads
them, and the baseline check must fail loudly — on regressions beyond
tolerance *and* on silently missing metrics — instead of printing and
returning 0.
"""

import json

import pytest

from benchmarks import run as jsonreport


BASELINE = {
    "tolerance": 0.25,
    "metrics": {
        "demo/throughput_ratio": {"value": 1.0, "direction": "higher"},
        "demo/exposed_seconds": {"value": 2.0, "direction": "lower"},
        "other/unrelated": {"value": 5.0, "direction": "higher"},
    },
}


class TestCheckAgainstBaseline:
    def test_within_tolerance_passes(self):
        failures = jsonreport.check_against_baseline(
            "demo", {"throughput_ratio": 0.8, "exposed_seconds": 2.4},
            BASELINE,
        )
        assert failures == []

    def test_regression_beyond_tolerance_fails(self):
        failures = jsonreport.check_against_baseline(
            "demo", {"throughput_ratio": 0.74, "exposed_seconds": 1.0},
            BASELINE,
        )
        assert len(failures) == 1
        assert "throughput_ratio" in failures[0]
        assert "regressed below" in failures[0]

    def test_lower_is_better_direction(self):
        failures = jsonreport.check_against_baseline(
            "demo", {"throughput_ratio": 1.2, "exposed_seconds": 2.6},
            BASELINE,
        )
        assert len(failures) == 1
        assert "exposed_seconds" in failures[0]
        assert "regressed above" in failures[0]

    def test_missing_pinned_metric_fails(self):
        failures = jsonreport.check_against_baseline(
            "demo", {"throughput_ratio": 1.0}, BASELINE
        )
        assert any("missing" in failure for failure in failures)

    def test_unpinned_metrics_are_informational(self):
        failures = jsonreport.check_against_baseline(
            "demo",
            {"throughput_ratio": 1.0, "exposed_seconds": 2.0,
             "wall_seconds": 1e9},
            BASELINE,
        )
        assert failures == []

    def test_other_benchmarks_not_gated(self):
        failures = jsonreport.check_against_baseline(
            "demo", {"throughput_ratio": 1.0, "exposed_seconds": 2.0},
            BASELINE,
        )
        assert failures == []        # other/unrelated never consulted

    def test_unknown_direction_fails(self):
        baseline = {"metrics": {"demo/x": {"value": 1, "direction": "up"}}}
        failures = jsonreport.check_against_baseline(
            "demo", {"x": 1.0}, baseline
        )
        assert any("unknown direction" in failure for failure in failures)


class TestWriteReport:
    def test_writes_artifact_with_prefix(self, tmp_path):
        path = jsonreport.write_report(
            "demo", {"ratio": 1.5}, meta={"rows": 10}, directory=tmp_path
        )
        assert path.name == "BENCH_demo.json"
        payload = json.loads(path.read_text())
        assert payload["benchmark"] == "demo"
        assert payload["metrics"] == {"ratio": 1.5}
        assert payload["meta"] == {"rows": 10}

    def test_rejects_non_numeric_metrics(self, tmp_path):
        with pytest.raises(TypeError, match="numeric"):
            jsonreport.write_report(
                "demo", {"verdict": "exact"}, directory=tmp_path
            )
        with pytest.raises(TypeError, match="numeric"):
            jsonreport.write_report(
                "demo", {"passed": True}, directory=tmp_path
            )


class TestCommittedBaseline:
    """The in-repo baseline must stay loadable and well-formed."""

    def test_baseline_shape(self):
        baseline = jsonreport.load_baseline()
        assert 0.0 < float(baseline["tolerance"]) < 1.0
        assert baseline["metrics"]
        for key, spec in baseline["metrics"].items():
            benchmark, _, metric = key.partition("/")
            assert benchmark and metric, key
            assert spec["direction"] in ("higher", "lower")
            assert float(spec["value"]) > 0.0

    def test_baseline_covers_all_smoke_benches(self):
        baseline = jsonreport.load_baseline()
        benches = {key.partition("/")[0] for key in baseline["metrics"]}
        assert benches == {"shard_scaling", "pipeline_overlap",
                           "async_inflight", "apply_fusion",
                           "serve_load"}
