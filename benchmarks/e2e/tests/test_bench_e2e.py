"""The benchmark's own tests, at ``--tiny`` geometry (2 000 rows, 12 steps).

Run with ``PYTHONPATH=src python -m pytest -q benchmarks/e2e`` (tier-1's
``testpaths`` does not collect this directory).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import threading

import pytest

from benchmarks.e2e import compare, harness, probes, suite, tracing
from benchmarks.e2e.workloads import DIGEST_GROUP, WORKLOADS

SPEC = probes.load_benchmark_spec()
NAMES = [workload.name for workload in WORKLOADS]
END_TO_END = [entry["name"] for entry in SPEC["end_to_end"]]
PER_LAYER = [entry["name"] for entry in SPEC["per_layer"]]
#: Counts the program makes that must repeat bit-for-bit on one seed.
EXACT = (
    "rng.philox_launches_per_step", "lazydp.catchup_rows_per_step",
    "procshard.roundtrips_per_step", "privacy.epsilon",
)
SEED = 7


def _shm_entries() -> set:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every workload once untraced and once traced, plus what was
    alive before and after."""
    out = tmp_path_factory.mktemp("e2e")
    before = (_shm_entries(), set(threading.enumerate()))
    reports = {}
    for name in NAMES:
        reports[name, 0] = harness.run_workload(name, SEED, 1.0, False, tiny=True)
        reports[name, 1] = harness.run_workload(
            name, SEED, 1.0, True, tiny=True, spans_path=out / f"{name}.json"
        )
    after = (_shm_entries(), set(threading.enumerate()))
    return reports, before, after


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    names = NAMES + END_TO_END + PER_LAYER
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])


@pytest.mark.parametrize("name", NAMES)
def test_every_declared_metric_is_emitted_exactly(runs, name):
    reports = runs[0]
    units = {e["name"]: e["unit"] for e in SPEC["end_to_end"] + SPEC["per_layer"]}
    for trace, declared in ((0, END_TO_END), (1, PER_LAYER)):
        report = reports[name, trace]
        assert list(report["metrics"]) == declared
        for metric, entry in report["metrics"].items():
            assert entry["unit"] == units[metric]
            assert math.isfinite(entry["value"]), metric
        assert report["correct"] and report["failed"] == 0
        assert report["attempted"] >= 1
    # End-to-end metrics must never read 0 on any workload.
    for metric, entry in reports[name, 0]["metrics"].items():
        assert entry["value"] > 0, metric


def test_result_line_has_exactly_the_contract_keys(runs):
    line = json.loads(harness.result_line(runs[0]["serial_uniform", 0]))
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert isinstance(line["attempted"], int) and isinstance(line["failed"], int)


def test_layers_report_where_they_work(runs):
    reports = runs[0]

    def value(name, metric):
        return reports[name, 1]["metrics"][metric]["value"]

    assert value("process_sharded_uniform", "procshard.roundtrips_per_step") > 0
    assert value("process_sharded_uniform", "procshard.worker_busy_ms") > 0
    assert value("serial_uniform", "procshard.roundtrips_per_step") == 0
    assert value("threads_composed_uniform", "pipeline.prefetch_busy_ms") > 0
    assert value("threads_composed_uniform", "async.apply_busy_ms") > 0
    assert value("threads_composed_uniform", "shard.update_ms") > 0
    assert value("serial_uniform", "shard.update_ms") == 0
    assert value("serve_zipf_live", "serve.refresh_ms") > 0
    assert value("serve_zipf_live", "serve.rows_caught_up") > 0
    for name in NAMES:
        assert value(name, "nn.forward_ms") > 0
        assert value(name, "kernels.stream_gbps") > 0
        assert value(name, "lazydp.ledger_gaps") == 0


@pytest.mark.parametrize("name", DIGEST_GROUP + ("serial_zipf_pooled",))
def test_exact_counts_repeat_across_same_seed_runs(runs, name):
    first = runs[0][name, 1]["metrics"]
    second = harness.run_workload(name, SEED, 1.0, True, tiny=True)["metrics"]
    for metric in EXACT:
        assert first[metric]["value"] == second[metric]["value"], metric


def test_released_digest_is_equal_across_engines(runs):
    reports = runs[0]
    digests = {reports[name, 0]["digest"] for name in DIGEST_GROUP}
    digests |= {reports[name, 1]["digest"] for name in DIGEST_GROUP}
    assert len(digests) == 1
    assert harness.check_digests(
        {name: reports[name, 0] for name in DIGEST_GROUP}
    )["ok"]


def test_forced_digest_mismatch_raises_ops_failed_frac(runs, tmp_path):
    reports = runs[0]

    def child(workload, seed, seconds, trace, args, spans):
        report = dict(reports[workload, trace])
        if workload == "process_sharded_uniform":
            report["digest"] = "0" * 64
        return report

    args = argparse.Namespace(
        seed=SEED, repeat=1, trace=0, tiny=True, json=str(tmp_path / "all.json")
    )
    assert suite.run_all(args, 1.0, child=child) == 1
    summary = json.loads((tmp_path / "all.json").read_text())
    assert summary["failed"] == 1 and summary["ops_failed_frac"] > 0
    assert not summary["runs"][0]["checks"][0]["ok"]

    honest = lambda workload, seed, seconds, trace, args, spans: reports[  # noqa: E731
        workload, trace
    ]
    assert suite.run_all(args, 1.0, child=honest) == 0


@pytest.mark.parametrize("name", NAMES)
def test_spans_form_a_forest_and_self_times_fit_the_wall(runs, name):
    report = runs[0][name, 1]
    with open(report["spans_file"], encoding="utf-8") as handle:
        spans = [
            (s["id"], s["name"], s["start"], s["end"], s["parent"], s["step"],
             s["thread"], s["count"])
            for s in json.load(handle)
        ]
    assert spans and len(spans) == report["spans"]
    ids = {span[0] for span in spans}
    assert len(ids) == len(spans)
    for span in spans:
        assert span[3] >= span[2]
        if span[4] is None:
            assert tracing.is_root(span), span
        else:
            assert span[4] in ids, span
    assert any(span[1] == "step" for span in spans)
    own = tracing.self_times(spans)
    extent: dict = {}
    total: dict = {}
    for span in spans:
        assert own[span[0]] >= -1e-9
        lo, hi = extent.get(span[6], (span[2], span[3]))
        extent[span[6]] = (min(lo, span[2]), max(hi, span[3]))
        total[span[6]] = total.get(span[6], 0.0) + own[span[0]]
    for thread, (lo, hi) in extent.items():
        assert total[thread] <= (hi - lo) + 1e-6, thread


def test_nothing_outlives_the_runs(runs):
    _, (shm_before, threads_before), (shm_after, threads_after) = runs
    assert shm_after <= shm_before
    assert not [t for t in threads_after - threads_before if t.is_alive()]


def _session_of(pid: str):
    """Session id of a live (non-zombie) process, else ``None``."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            state, _, _, session = handle.read().rpartition(")")[2].split()[:4]
    except (OSError, ValueError):
        return None
    return None if state == "Z" else int(session)


def test_no_process_outlives_the_command():
    """The driver's way: the command in a session of its own; when it
    returns, nothing of that session lives — neither a shard worker
    nor multiprocessing's resource tracker (which, left to itself,
    ends a moment after its parent)."""
    done = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e", "--workload",
         "process_sharded_uniform", "--seed", str(SEED), "--seconds", "1",
         "--trace", "0", "--tiny"],
        cwd=probes.REPO_ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    out, _ = done.communicate(timeout=300)
    left = [pid for pid in os.listdir("/proc")
            if pid.isdigit() and _session_of(pid) == done.pid]
    assert done.returncode == 0
    assert json.loads(out.splitlines()[-1])["correct"] is True
    assert left == []


def test_tracing_uninstall_restores_the_entry_points(runs):
    from repro import kernels
    from repro.data.loader import DataLoader
    from repro.shard.executor import SerialExecutor

    assert not hasattr(DataLoader.batch_for, "__wrapped__")
    assert SerialExecutor.run.__qualname__ == "SerialExecutor.run"
    table = kernels.active_kernel_table()
    assert not hasattr(table.fused_noisy_update, "__wrapped__")


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, "lower", 0.10)["verdict"] == "unchanged"
    slower = [value * 1.2 for value in steady]
    assert compare.verdict(steady, slower, "lower", 0.10)["verdict"] == "worse"
    assert compare.verdict(steady, slower, "higher", 0.10)["verdict"] == "better"
    assert compare.verdict(slower, steady, "lower", 0.10)["verdict"] == "better"
    noisy = [60.0, 140.0, 100.0, 75.0, 125.0]
    assert compare.verdict(steady, noisy, "lower", 0.10)["verdict"] == "unresolved"
    assert compare.verdict([1.0], [1.05], "lower", 0.10)["verdict"] == "unchanged"
    assert compare.verdict(steady, slower, "lower", None)["verdict"] == "layer"


def test_compare_reads_both_report_shapes(runs, tmp_path):
    reports = runs[0]
    single = tmp_path / "one.json"
    single.write_text(json.dumps(reports["serial_uniform", 0]))
    many = tmp_path / "many.json"
    many.write_text(json.dumps({"runs": [
        {"seed": SEED, "end_to_end": {"serial_uniform": reports["serial_uniform", 0]},
         "per_layer": {"serial_uniform": reports["serial_uniform", 1]}},
    ]}))
    rows = compare.compare(single, many)
    assert set(rows) == {("serial_uniform", metric) for metric in END_TO_END}
    assert all(row["verdict"] == "unchanged" for row in rows.values())
    layers = compare.compare(many, many, section="per_layer")
    assert set(layers) == {("serial_uniform", metric) for metric in PER_LAYER}
