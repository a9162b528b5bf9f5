"""The bench runner and its case registry.

``python benchmarks/run.py`` is the one way into the figure and engine
benches.  These tests pin the runner's policy on fake cases (a failing
or raising case fails the run without skipping the others; wall-clock
failures are retried, deterministic ones are not; the gate is applied
to what a case emits), the registry's coverage (every paper figure and
every bench this repo ever had is exactly one case), and — on one real
``--smoke`` run — that every pinned baseline key is emitted and that
running the benches leaves the work tree clean.
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

from benchmarks import run as runner
from benchmarks.cases import REGISTRY, Case, Result, Table, Timing, figures

ROOT = pathlib.Path(__file__).resolve().parent.parent

BASELINE = {
    "tolerance": 0.25,
    "metrics": {"demo/ratio": {"value": 1.0, "direction": "higher"}},
}


@pytest.fixture
def sandbox(tmp_path, monkeypatch):
    """Point the runner's outputs and baseline at ``tmp_path`` and hand
    back a function that installs fake cases as the whole registry."""
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(BASELINE))
    monkeypatch.setattr(runner, "BASELINE_PATH", baseline_path)
    monkeypatch.setattr(runner, "REPORTS_DIR", tmp_path / "reports")
    monkeypatch.setattr(runner, "OUT_DIR", tmp_path / "reports" / "out")

    def install(**cases):
        registry = {
            name: Case(name, "Figure 0", "a fake case", run)
            for name, run in cases.items()
        }
        monkeypatch.setattr(runner, "REGISTRY", registry)

    return install


def passing(calls):
    def run(tier):
        calls.append(tier)
        return Result([Table("model", "m"), Table("timed", "t", True)], {}, {}, [])

    return run


class TestRunnerPolicy:
    def test_passing_cases_exit_zero_and_split_reports(self, sandbox, tmp_path):
        calls = []
        sandbox(a=passing(calls), b=passing(calls))
        assert runner.main(["--smoke"]) == 0
        assert calls == ["smoke", "smoke"]
        assert (tmp_path / "reports" / "model.txt").read_text() == "m\n"
        assert (tmp_path / "reports" / "out" / "timed.txt").read_text() == "t\n"
        assert not (tmp_path / "reports" / "timed.txt").exists()

    def test_named_cases_only_and_full_tier_by_default(self, sandbox):
        calls_a, calls_b = [], []
        sandbox(a=passing(calls_a), b=passing(calls_b))
        assert runner.main(["b"]) == 0
        assert (calls_a, calls_b) == ([], ["full"])

    def test_unknown_case_is_a_usage_error(self, sandbox):
        sandbox(a=passing([]))
        with pytest.raises(SystemExit) as error:
            runner.main(["nope"])
        assert error.value.code == 2

    def test_failure_fails_the_run_without_skipping_the_rest(self, sandbox, capsys):
        calls = []
        sandbox(
            broken=lambda tier: Result([], {}, {}, ["slab bits differ"]),
            later=passing(calls),
        )
        assert runner.main(["--smoke"]) == 1
        assert calls == ["smoke"]
        assert "FAILED broken: slab bits differ" in capsys.readouterr().err

    def test_raising_case_fails_the_run_without_skipping_the_rest(self, sandbox):
        calls = []

        def raises(tier):
            raise RuntimeError("boom")

        sandbox(raises=raises, later=passing(calls))
        assert runner.main(["--smoke"]) == 1
        assert calls == ["smoke"]

    def test_wall_clock_failure_is_retried(self, sandbox):
        attempts = []

        def flaky(tier):
            attempts.append(tier)
            failures = [Timing("too slow")] if len(attempts) == 1 else []
            return Result([], {}, {}, failures)

        sandbox(flaky=flaky)
        assert runner.main(["--smoke"]) == 0
        assert len(attempts) == 2

    def test_persistent_wall_clock_failure_fails_after_the_retries(self, sandbox):
        attempts = []

        def slow(tier):
            attempts.append(tier)
            return Result([], {}, {}, [Timing("too slow")])

        sandbox(slow=slow)
        assert runner.main(["--smoke"]) == 1
        assert len(attempts) == 1 + runner.RETRIES

    def test_deterministic_failure_is_never_retried(self, sandbox):
        attempts = []

        def diverges(tier):
            attempts.append(tier)
            return Result([], {}, {}, [Timing("too slow"), "bits differ"])

        sandbox(diverges=diverges)
        assert runner.main(["--smoke"]) == 1
        assert len(attempts) == 1

    def test_gate_applies_to_what_the_case_emits(self, sandbox, tmp_path, capsys):
        sandbox(demo=lambda tier: Result([], {"demo": {"ratio": 0.5}}, {"n": 1}, []))
        assert runner.main(["--smoke"]) == 1
        assert "demo/ratio: 0.5 regressed below 0.75" in capsys.readouterr().err
        artifact = tmp_path / "reports" / "out" / "BENCH_demo.json"
        payload = json.loads(artifact.read_text())
        assert payload["metrics"] == {"ratio": 0.5}
        assert payload["meta"] == {"case": "demo", "tier": "smoke", "n": 1}

        sandbox(demo=lambda tier: Result([], {"demo": {"ratio": 0.9}}, {}, []))
        assert runner.main(["--smoke"]) == 0

    def test_missing_pinned_metric_fails(self, sandbox):
        sandbox(demo=lambda tier: Result([], {"demo": {"other": 1.0}}, {}, []))
        assert runner.main(["--smoke"]) == 1

    def test_a_gate_with_a_condition_applies_where_it_was_reported(self):
        """``only_where``: a count only one implementation reports is
        gated where the case reported that implementation ran, and is
        missing-means-failure there."""
        baseline = {
            "tolerance": 0.25,
            "metrics": {
                "demo/share": {"value": 0.1, "direction": "lower", "only_where": "vector"},
            },
        }

        def gate(metrics):
            return runner.check_against_baseline("demo", metrics, baseline)

        assert gate({"scalar": 1.0}) == []
        assert gate({"vector": 1.0, "share": 0.12}) == []
        assert gate({"vector": 1.0, "share": 0.2}) == [
            "demo/share: 0.2 regressed above 0.125 (baseline 0.1, tolerance 25%)"
        ]
        assert gate({"vector": 1.0}) == ["demo/share: metric missing from report"]

    def test_two_cases_may_not_write_one_artifact(self, sandbox, capsys):
        emit = lambda tier: Result([], {"demo": {"ratio": 1.0}}, {}, [])  # noqa: E731
        sandbox(first=emit, second=emit)
        assert runner.main(["--smoke"]) == 1
        assert "already written by first" in capsys.readouterr().err


class TestFigureBands:
    """The runner, not only tier-1, fails a figure on an out-of-band point."""

    def test_a_tightened_band_fails_its_case_once(self, sandbox, capsys):
        row = next(row for row in figures.FIGURES if row[0] == "fig12")
        name, driver, *_, bands = row
        points = figures.score(name, driver(), bands)
        worst = max(points, key=lambda point: point.relative_error)
        assert worst.relative_error > 0
        tight = row[:-1] + ({**bands, worst.series: worst.relative_error / 2},)
        runs = []

        def counted(tier):
            runs.append(tier)
            return figures.figure_run(*tight)(tier)

        failures = figures.figure_run(*tight)("smoke").failures
        assert failures and not any(isinstance(f, Timing) for f in failures)
        sandbox(tight=counted, untouched=figures.figure_run(*row))
        assert runner.main(["--smoke"]) == 1
        assert runs == ["smoke"]
        err = capsys.readouterr().err
        assert f"FAILED tight: fig12/{worst.series}@{worst.label}: " in err
        assert "FAILED untouched" not in err


#: Every row of the figure-to-benchmark table docs/reproducing.md
#: carried before the registry existed, and the case that took it over.
LEGACY_BENCHES = {
    "bench_fig03_training_breakdown.py": "fig03",
    "bench_fig05_model_update_breakdown.py": "fig05",
    "bench_fig06_avx_roofline.py": "fig06",
    "bench_fig10_end_to_end.py": "fig10",
    "bench_fig11_lazydp_breakdown.py": "fig11",
    "bench_fig12_energy.py": "fig12",
    "bench_fig13a_table_size.py": "fig13a",
    "bench_fig13b_pooling.py": "fig13b",
    "bench_fig13c_model_configs.py": "fig13c",
    "bench_fig13d_skew.py": "fig13d",
    "bench_fig14_eana.py": "fig14",
    "bench_sec42_kernel_optimization.py": "sec42",
    "bench_sec72_overheads.py": "sec72",
    "bench_ablation_ans.py": "ablation_ans",
    "bench_ablation_history.py": "ablation_history",
    "bench_ablation_sensitivity.py": "ablation_sensitivity",
    "bench_scaling_projection.py": "scaling_projection",
    "bench_shard_scaling.py": "plan_sweep",
    "bench_pipeline_overlap.py": "plan_sweep",
    "bench_async_inflight.py": "plan_sweep",
    "bench_apply_fusion.py": "apply_fusion",
    "bench_obs_overhead.py": "obs_overhead",
    "bench_serve_load.py": "serve_load",
}


class TestRegistryCoverage:
    def test_every_legacy_bench_has_a_case_and_every_case_a_reason(self):
        assert set(LEGACY_BENCHES.values()) == set(REGISTRY)

    def test_every_figure_driver_has_exactly_one_case(self):
        drivers = [row[1] for row in figures.FIGURES]
        assert all(callable(driver) for driver in drivers)
        assert len(set(drivers)) == len(drivers)
        names = [row[0] for row in figures.FIGURES]
        assert len(set(names)) == len(names) and set(names) <= set(REGISTRY)

    def test_duplicate_case_names_are_refused(self):
        from benchmarks.cases import case

        with pytest.raises(ValueError, match="duplicate bench case"):
            case("fig10", figure="x", shows="y")(lambda tier: None)

    def test_one_entry_point_and_no_test_functions(self):
        bench = ROOT / "benchmarks"
        outside_e2e = [
            path for path in bench.rglob("*.py") if bench / "e2e" not in path.parents
        ]
        parsers = [p for p in outside_e2e if "ArgumentParser" in p.read_text()]
        assert parsers == [bench / "run.py"]
        for path in outside_e2e:
            assert not path.name.startswith(("bench_", "conftest", "_jsonreport"))
            assert "def test_" not in path.read_text(), path
        assert not (ROOT / "tools" / "plan_matrix.py").exists()

    def test_docs_table_is_generated_from_the_registry(self):
        docs = (ROOT / "docs" / "reproducing.md").read_text(encoding="utf-8")
        assert runner.figure_table() in docs, (
            "docs/reproducing.md's figure-to-case table is out of sync; "
            "regenerate it with\n  PYTHONPATH=src python -c "
            '"from benchmarks.run import figure_table; print(figure_table())"'
        )


def _git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=False
    )


@pytest.fixture(scope="module")
def smoke_run():
    """One real ``run.py --smoke`` in a child process: its exit status,
    output, the artifacts it wrote, and ``git status`` before/after."""
    if _git("rev-parse", "--is-inside-work-tree").returncode != 0:
        pytest.skip("not a git checkout")
    before = _git("status", "--porcelain").stdout
    completed = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
        check=False,
    )
    after = _git("status", "--porcelain").stdout
    written = re.findall(r"^wrote (.+BENCH_.+\.json)$", completed.stdout, re.M)
    return completed, written, before, after


class TestSmokeRun:
    def test_passes_and_leaves_the_work_tree_clean(self, smoke_run):
        completed, _, before, after = smoke_run
        assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr
        assert f"{len(REGISTRY)} of {len(REGISTRY)} case(s) passed" in completed.stdout
        assert after == before

    def test_every_pinned_key_is_emitted_by_exactly_one_case(self, smoke_run):
        _, written, _, _ = smoke_run
        assert len(set(written)) == len(written)  # no artifact written twice
        emitted = {}
        for path in written:
            payload = json.loads(pathlib.Path(path).read_text())
            assert payload["meta"]["case"] in REGISTRY
            for metric in payload["metrics"]:
                emitted[f"{payload['benchmark']}/{metric}"] = payload["meta"]["case"]
        baseline = runner.load_baseline()["metrics"]
        assert len(baseline) == 22
        # A gate with `only_where` applies where its condition was emitted.
        pinned = {
            key for key, spec in baseline.items()
            if "only_where" not in spec
            or f"{key.partition('/')[0]}/{spec['only_where']}" in emitted
        }
        assert pinned <= set(emitted), sorted(pinned - set(emitted))
