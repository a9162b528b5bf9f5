"""The observability layer: tracer, metrics registry, engine wiring.

Three invariants carry the whole feature:

* **Observation never perturbs the computation.**  A traced run is
  bitwise identical to an untraced run — noise bits are pure functions
  of ``(seed, table, row, iteration)`` and the tracer only reads
  clocks.
* **The trace and the timers describe the same intervals.**  The
  StageTimer adapter hands its existing ``perf_counter`` pair to the
  tracer, so a span's exported duration and the accumulated stage
  seconds are the *same* float, and the trace-derived overlap agrees
  with the trainer's ``stats()["pipeline"]``.
* **Disabled means null-object.**  Without ``instrument()`` every
  engine sees ``NULL_OBS`` / a ``None`` timer tracer and the hot paths
  cost one attribute check.
"""

import json
import re
import threading
import time

import numpy as np
import pytest

from repro import configs
from repro.nn import DLRM
from repro.obs import (
    NULL_OBS,
    NULL_TRACER,
    Histogram,
    MetricsRegistry,
    NullTracer,
    Observability,
    Tracer,
)
from repro.session import ExecutionPlan, TrainSession
from repro.testing import make_loader
from repro.train import DPConfig
from repro.train.common import StageTimer


@pytest.fixture
def config():
    return configs.tiny_dlrm(num_tables=3, rows=64, dim=8, lookups=2)


def fit_plan(config, plan, iterations=4, batch=16, seed=7):
    """Build a session for ``plan``, fit it, return (session, result)."""
    session = TrainSession.build(DLRM(config, seed=seed), DPConfig(), plan,
                                 noise_seed=99)
    result = session.fit(
        make_loader(config, batch_size=batch, num_batches=iterations)
    )
    return session, result


def final_parameters(session):
    return {
        name: param.data.copy()
        for name, param in session.model.parameters().items()
    }


class TestTracer:
    def test_spans_land_on_named_per_thread_tracks(self):
        tracer = Tracer()
        with tracer.span("main_work", iteration=1):
            pass

        def worker():
            with tracer.span("worker_work"):
                pass

        thread = threading.Thread(target=worker, name="my-worker")
        thread.start()
        thread.join()

        assert set(tracer.track_names()) == {"main-loop", "my-worker"}
        payload = tracer.export()
        names = {
            event["args"]["name"]: event["tid"]
            for event in payload["traceEvents"]
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        spans = {
            event["name"]: event["tid"]
            for event in payload["traceEvents"] if event["ph"] == "X"
        }
        assert spans["main_work"] == names["main-loop"]
        assert spans["worker_work"] == names["my-worker"]

    def test_export_schema_and_args(self):
        tracer = Tracer()
        with tracer.span("stage", iteration=3):
            pass
        tracer.add_instant("marker", note="here")
        tracer.add_counter("occupancy", 2)
        events = tracer.export()["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        instant = [e for e in events if e["ph"] == "i"]
        counter = [e for e in events if e["ph"] == "C"]
        assert len(complete) == len(instant) == len(counter) == 1
        assert complete[0]["ts"] >= 0.0 and complete[0]["dur"] >= 0.0
        assert complete[0]["args"] == {"iteration": 3}
        assert instant[0]["s"] == "t"
        assert instant[0]["args"] == {"note": "here"}
        assert counter[0]["args"] == {"value": 2}

    def test_event_cap_drops_not_grows(self):
        tracer = Tracer(max_events_per_thread=4)
        for index in range(7):
            tracer.add_complete("e", 0.0, 1.0, {"i": index})
        assert tracer.events_recorded == 4
        assert tracer.events_dropped == 3
        payload = tracer.export()
        assert payload["otherData"]["events_dropped"] == 3
        assert len([e for e in payload["traceEvents"]
                    if e["ph"] == "X"]) == 4

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError, match="positive"):
            Tracer(max_events_per_thread=0)

    def test_save_writes_loadable_json(self, tmp_path):
        tracer = Tracer()
        with tracer.span("stage"):
            pass
        path = tmp_path / "trace.json"
        count = tracer.save(path)
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) == count
        assert payload["displayTimeUnit"] == "ms"

    def test_null_tracer_is_inert(self, tmp_path):
        assert not NULL_TRACER.enabled
        span = NULL_TRACER.span("anything", key="value")
        with span:
            pass
        # The null span is a shared singleton — no per-call allocation.
        assert NULL_TRACER.span("other") is span
        NULL_TRACER.add_complete("x", 0.0, 1.0)
        NULL_TRACER.add_instant("x")
        NULL_TRACER.add_counter("x", 1)
        assert NULL_TRACER.events_recorded == 0
        assert NULL_TRACER.export()["traceEvents"] == []
        with pytest.raises(RuntimeError, match="obs=trace"):
            NULL_TRACER.save(tmp_path / "never.json")
        assert isinstance(NULL_TRACER, NullTracer)


class TestHistogram:
    def test_percentiles_within_one_octave(self):
        histogram = Histogram()
        values = [(i + 1) / 1000 for i in range(1000)]
        for value in values:
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 1000
        assert snapshot["min"] == values[0]
        assert snapshot["max"] == values[-1]
        assert snapshot["mean"] == pytest.approx(sum(values) / 1000)
        # Bucket interpolation is exact to within the octave containing
        # the rank; the true p50 of this stream is 0.5.
        assert 0.25 <= snapshot["p50"] <= 1.0
        assert snapshot["p95"] <= snapshot["max"]
        assert snapshot["p99"] >= snapshot["p50"]

    def test_zero_and_overflow_values(self):
        histogram = Histogram()
        histogram.observe(0.0)
        histogram.observe(2.0 ** 40)
        assert histogram.min == 0.0
        assert histogram.max == 2.0 ** 40
        assert histogram.percentile(1.0) == 2.0 ** 40

    def test_empty_snapshot_and_bad_fraction(self):
        histogram = Histogram()
        assert histogram.snapshot() == {"count": 0, "sum": 0.0}
        assert histogram.percentile(0.5) != histogram.percentile(0.5)  # nan
        with pytest.raises(ValueError, match="fraction"):
            histogram.percentile(1.5)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_writers_and_snapshot(self):
        registry = MetricsRegistry()
        registry.inc("events", 3)
        registry.inc("events")
        registry.set_gauge("depth", 2)
        registry.observe("latency", 0.25)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"events": 4}
        assert snapshot["gauges"] == {"depth": 2.0}
        assert snapshot["histograms"]["latency"]["count"] == 1
        json.dumps(snapshot)  # must stay JSON-serializable


class TestStageTimerAdapter:
    def test_span_duration_is_the_timer_delta(self):
        """The adapter reuses the timer's own perf_counter pair, so the
        exported duration and the accumulated seconds are one float."""
        tracer = Tracer()
        timer = StageTimer(tracer=tracer)
        with timer.time("stage"):
            time.sleep(0.002)
        events = [e for e in tracer.export()["traceEvents"]
                  if e["ph"] == "X"]
        assert len(events) == 1
        assert events[0]["name"] == "stage"
        assert events[0]["dur"] == timer.totals["stage"] * 1e6

    def test_no_tracer_records_nothing(self):
        timer = StageTimer()
        with timer.time("stage"):
            pass
        assert timer.tracer is None
        assert timer.totals["stage"] > 0.0


class TestObsAxis:
    def test_rejects_all_off(self):
        with pytest.raises(ValueError, match="records nothing"):
            Observability(trace=False, metrics=False)

    def test_snapshot_reports_both_switches(self):
        obs = Observability(trace=True, metrics=False)
        assert obs.snapshot()["config"] == {"trace": True, "metrics": False}
        assert Observability().snapshot()["config"] == {
            "trace": False, "metrics": True,
        }

    @pytest.mark.parametrize("spec, expected", [
        ("obs=trace", "trace"),
        ("obs=metrics", "metrics"),
        ("obs=trace+metrics", "trace+metrics"),
        ("obs=metrics+trace", "trace+metrics"),
        ("obs=all", "trace+metrics"),
        ("obs=off", None),
        ("", None),
    ])
    def test_plan_spec_parses(self, spec, expected):
        assert ExecutionPlan.from_spec(spec).obs == expected

    def test_plan_spec_round_trips(self):
        for obs in (None, "trace", "metrics", "trace+metrics"):
            plan = ExecutionPlan(pipeline=2, obs=obs)
            assert ExecutionPlan.from_spec(plan.to_spec()) == plan

    def test_plan_spec_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode 'perfetto'"):
            ExecutionPlan.from_spec("obs=perfetto")

    def test_plan_rejects_unspelled_mode(self):
        with pytest.raises(ValueError, match="unknown obs mode"):
            ExecutionPlan(obs="metrics+trace")


class TestInstrumentedTraining:
    def test_traced_run_is_bitwise_identical(self, config):
        plain, _ = fit_plan(config, ExecutionPlan(
            pipeline=2,
        ))
        traced, _ = fit_plan(config, ExecutionPlan(
            pipeline=2,
            obs="trace+metrics",
        ))
        reference = final_parameters(plain)
        for name, data in final_parameters(traced).items():
            np.testing.assert_array_equal(data, reference[name])
        plain.close()
        traced.close()

    def test_stage_times_shape_unchanged_by_observability(self, config):
        plain, plain_result = fit_plan(config, ExecutionPlan())
        traced, traced_result = fit_plan(config, ExecutionPlan(
            obs="trace+metrics",
        ))
        assert plain_result.stage_times.keys() == \
            traced_result.stage_times.keys()
        assert plain.observability is None
        assert plain.trainer.obs is NULL_OBS
        assert plain.trainer.timer.tracer is None

    def test_train_result_counters(self, config, compiled_kernels):
        _, result = fit_plan(config, ExecutionPlan(
            obs="metrics",
        ))
        # The fused apply's counter is the flat engine's event: the
        # applies the numpy expressions ran, present and zero where the
        # apply is the compiled single pass.
        if compiled_kernels == "native":
            assert result.counters["numpy_applies"] == 0
        else:
            assert result.counters["numpy_applies"] > 0

    def test_counters_present_without_observability(self, config, compiled_kernels):
        _, result = fit_plan(config, ExecutionPlan())
        if compiled_kernels == "native":
            assert result.counters["numpy_applies"] == 0
        else:
            assert result.counters["numpy_applies"] > 0
        assert result.shard_times is None

    def test_sharded_shard_times_merge(self, config):
        session, result = fit_plan(config, ExecutionPlan(
            shards=2, backend="threads",
            obs="metrics",
        ))
        merged = result.shard_times
        assert len(merged["per_shard"]) == 2
        for stage, total in merged["summed"].items():
            assert total == pytest.approx(sum(
                shard.get(stage, 0.0) for shard in merged["per_shard"]
            ))
        skew = merged["skew"]
        update = merged["update_seconds"]
        assert skew["max"] == max(update)
        assert skew["min"] == min(update)
        assert skew["spread"] == pytest.approx(skew["max"] - skew["min"])
        # The tree reads the same timers the fit's result summarised.
        assert session.stats()["shards"] == merged
        session.close()

    def test_traced_pipeline_has_overlapping_worker_track(self, config):
        session, _ = fit_plan(config, ExecutionPlan(
            pipeline=2,
            obs="trace+metrics",
        ), iterations=6)
        tracer = session.observability.tracer
        names = tracer.track_names()
        assert "main-loop" in names and "noise-prefetch" in names
        payload = session.observability.export_trace()
        by_tid = {}
        for event in payload["traceEvents"]:
            if event["ph"] == "X":
                by_tid.setdefault(event["tid"], []).append(
                    (event["ts"], event["ts"] + event["dur"])
                )
        assert len(by_tid) >= 2
        # At least one worker span overlaps a main-track span in time:
        # the prefetch pipeline's entire point.
        tids = sorted(by_tid)
        overlaps = any(
            a_start < b_end and b_start < a_end
            for a_start, a_end in by_tid[tids[0]]
            for b_start, b_end in by_tid[tids[1]]
        )
        assert overlaps
        snapshot = session.observability.metrics.snapshot()
        assert snapshot["histograms"]["pipeline.staging_occupancy"][
            "count"] > 0
        assert 0.0 <= session.stats()["pipeline"]["hidden_fraction"] <= 1.0
        session.close()

    def test_async_traced_run_records_inflight(self, config):
        session, result = fit_plan(config, ExecutionPlan(
            async_=True, inflight=2,
            obs="trace+metrics",
        ), iterations=6)
        names = session.observability.tracer.track_names()
        assert "lazydp-apply" in names
        snapshot = session.observability.metrics.snapshot()
        assert snapshot["histograms"]["async.in_flight_depth"]["count"] > 0
        assert session.stats()["async"]["applies_completed"] == \
            result.iterations
        session.trainer.audit_noise_ledger(result.iterations)
        session.close()

    def test_philox_launches_counted(self, config):
        session, _ = fit_plan(config, ExecutionPlan(
            obs="metrics",
        ))
        gauges = session.observability.metrics.snapshot()["gauges"]
        assert gauges["rng.philox_launches"] > 0

    def test_session_stats_and_save_trace_gating(self, config, tmp_path):
        session, _ = fit_plan(config, ExecutionPlan(
            obs="metrics",
        ))
        assert "metrics" in session.stats()
        with pytest.raises(RuntimeError, match="obs=trace"):
            session.save_trace(tmp_path / "no.json")
        session.close()

        traced, _ = fit_plan(config, ExecutionPlan(
            obs="trace",
        ))
        path = tmp_path / "yes.json"
        count = traced.save_trace(path)
        assert len(json.loads(path.read_text())["traceEvents"]) == count
        assert "metrics" not in traced.stats()
        traced.close()

    def test_instrument_defaults_to_full_observability(self, config):
        from repro.lazydp import LazyDPTrainer

        trainer = LazyDPTrainer(DLRM(config, seed=7), DPConfig(),
                                noise_seed=99)
        assert trainer.obs is NULL_OBS
        obs = trainer.instrument()
        assert isinstance(obs, Observability)
        assert trainer.obs is obs
        assert trainer.timer.tracer is None  # default config: metrics only


class TestTraceTimerAgreement:
    def test_trace_hidden_fraction_matches_pipeline_stats(self):
        """The trace-derived hidden fraction (worker busy time not
        overlapping the main loop's pipeline_wait spans) must agree
        with the timer-derived pipeline stats within 10 points."""
        import importlib.util
        import pathlib

        spec = importlib.util.spec_from_file_location(
            "trace_report",
            pathlib.Path(__file__).resolve().parent.parent
            / "tools" / "trace_report.py",
        )
        trace_report = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(trace_report)

        # Wall-clock property.  The two derivations part only when the
        # main loop waits on a descheduled (not a computing) worker, so
        # each sample carries enough prefetch work (~30 ms) that a
        # scheduling hiccup is small next to it, and the best of five
        # samples is judged.
        config = configs.tiny_dlrm(num_tables=3, rows=4096, dim=16, lookups=4)
        gap = None
        for _ in range(5):
            session, _ = fit_plan(config, ExecutionPlan(
                pipeline=2,
                obs="trace+metrics",
            ), iterations=12, batch=256)
            summary = trace_report.summarize(
                session.observability.export_trace()
            )
            timer_hidden = \
                session.trainer.stats()["pipeline"]["hidden_fraction"]
            trace_hidden = [
                stats["hidden_fraction"]
                for name, stats in summary.get("overlap", {}).items()
                if name.startswith("noise-prefetch")
            ]
            session.close()
            assert trace_hidden, "prefetch worker track missing"
            gap = abs(trace_hidden[0] - timer_hidden)
            if gap <= 0.10:
                break
        assert gap <= 0.10


class TestCLITrace:
    def test_train_trace_flag_writes_valid_trace(
        self, tmp_path, capsys, compiled_kernels
    ):
        from repro.cli import main

        path = tmp_path / "run.json"
        code = main([
            "train", "--rows", "512", "--batch", "32", "--iterations", "3",
            "--plan", "pipeline=2,obs=metrics", "--trace", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "event counters" in out
        applies = re.search(r"numpy_applies\W+(\d+)", out)
        assert (int(applies.group(1)) == 0) == (compiled_kernels == "native")
        assert "trace            : wrote" in out
        payload = json.loads(path.read_text())
        tids = {e["tid"] for e in payload["traceEvents"]
                if e["ph"] == "X"}
        assert len(tids) >= 2

    def test_train_trace_on_legacy_algorithm(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "eana.json"
        code = main([
            "train", "--algorithm", "eana", "--rows", "256",
            "--batch", "16", "--iterations", "2", "--trace", str(path),
        ])
        assert code == 0
        assert json.loads(path.read_text())["traceEvents"]

    def test_plan_rejects_unknown_obs_mode(self, capsys):
        from repro.cli import main

        code = main([
            "train", "--rows", "256", "--batch", "16",
            "--iterations", "2", "--plan", "obs=bogus",
        ])
        assert code == 2
        assert "unknown mode 'bogus'" in capsys.readouterr().err
