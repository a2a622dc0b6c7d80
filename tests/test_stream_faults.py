"""Tests for :mod:`repro.stream.faults` and the lifecycle hardening it
motivates: seeded fault plans, flaky-source retry/dedupe, and the
cluster of shutdown/resume bugfix regressions (exact-``max_samples``
``finished``, cursors past EOF).

The end-to-end drills (which fork and SIGKILL a child engine) are marked
``chaos`` and run in their own CI job; everything else stays in the
default fast run.
"""

from __future__ import annotations

import json

import pytest

from repro.cdn.collector import write_samples_jsonl
from repro.errors import StreamError, TransientSourceError
from repro.stream import (
    FaultPlan,
    FaultSpec,
    FaultySource,
    IterableSource,
    JsonlDirectorySource,
    JsonlSource,
    StreamEngine,
    StreamMetrics,
    run_drill,
)
from repro.workloads.scenarios import two_week_study


@pytest.fixture(scope="module")
def study():
    return two_week_study(n_connections=400, seed=7)


def make_source(study, n=None):
    samples = study.samples if n is None else study.samples[:n]
    return IterableSource(samples, timestamps=study.timestamps)


def clean_rollup(study, n=None):
    return StreamEngine(make_source(study, n), geodb=study.geo).run()


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_generate_is_deterministic(self):
        a = FaultPlan.generate(5, 500, error_rate=0.05, duplicate_rate=0.05)
        b = FaultPlan.generate(5, 500, error_rate=0.05, duplicate_rate=0.05)
        assert a.to_dict() == b.to_dict()
        assert len(a) > 0
        c = FaultPlan.generate(6, 500, error_rate=0.05, duplicate_rate=0.05)
        assert a.to_dict() != c.to_dict()

    def test_json_roundtrip(self):
        plan = FaultPlan.generate(
            9, 300, error_rate=0.02, stall_rate=0.01,
            truncate_rate=0.01, duplicate_rate=0.02,
        )
        restored = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert restored.to_dict() == plan.to_dict()

    def test_at_indexes_faults(self):
        plan = FaultPlan(faults=[
            FaultSpec(index=7, kind="error"),
            FaultSpec(index=7, kind="duplicate"),
            FaultSpec(index=2, kind="stall"),
        ])
        assert [f.kind for _, f in plan.at(7)] == ["error", "duplicate"]
        assert plan.at(3) == []
        # construction sorted the faults by index
        assert [f.index for f in plan.faults] == [2, 7, 7]

    def test_validation(self):
        with pytest.raises(StreamError):
            FaultSpec(index=0, kind="meteor-strike")
        with pytest.raises(StreamError):
            FaultSpec(index=-1, kind="error")
        with pytest.raises(StreamError):
            FaultPlan.generate(1, 10, error_rate=1.5)
        with pytest.raises(StreamError):
            FaultPlan.from_dict({"version": 99, "faults": []})


# ----------------------------------------------------------------------
# Flaky sources: retry, truncation, duplicate delivery
# ----------------------------------------------------------------------
class TestFaultySource:
    def test_transient_errors_retried_to_parity(self, study):
        baseline = clean_rollup(study, 200)
        plan = FaultPlan(faults=[
            FaultSpec(index=3, kind="error"),
            FaultSpec(index=50, kind="truncate"),
            FaultSpec(index=50, kind="error"),  # two faults, same index
            FaultSpec(index=199, kind="error"),
        ])
        source = FaultySource(make_source(study, 200), plan)
        engine = StreamEngine(
            source, geodb=study.geo,
            max_source_retries=3, retry_backoff_seconds=0.0,
        )
        report = engine.run()
        assert report.finished
        assert report.rollup.to_dict() == baseline.rollup.to_dict()
        assert report.metrics["source_retries"] == 4
        assert source.injected["error"] == 3
        assert source.injected["truncate"] == 1

    def test_retry_budget_exhausted_raises(self, study):
        plan = FaultPlan(faults=[
            FaultSpec(index=10, kind="error"),
            FaultSpec(index=10, kind="error"),
        ])
        source = FaultySource(make_source(study, 50), plan)
        engine = StreamEngine(
            source, geodb=study.geo,
            max_source_retries=1, retry_backoff_seconds=0.0,
        )
        with pytest.raises(TransientSourceError):
            engine.run()

    def test_duplicates_dropped_to_parity(self, study):
        baseline = clean_rollup(study, 150)
        plan = FaultPlan(faults=[
            FaultSpec(index=0, kind="duplicate"),  # nothing to replay yet
            FaultSpec(index=5, kind="duplicate"),
            FaultSpec(index=80, kind="duplicate"),
            FaultSpec(index=149, kind="duplicate"),
        ])
        source = FaultySource(make_source(study, 150), plan)
        report = StreamEngine(source, geodb=study.geo).run()
        assert report.rollup.to_dict() == baseline.rollup.to_dict()
        assert report.metrics["duplicates_dropped"] == 3
        assert source.injected["duplicate"] == 3

    def test_stalls_only_slow_things_down(self, study):
        baseline = clean_rollup(study, 60)
        plan = FaultPlan(faults=[
            FaultSpec(index=10, kind="stall", stall_seconds=0.001),
        ])
        source = FaultySource(make_source(study, 60), plan)
        report = StreamEngine(source, geodb=study.geo).run()
        assert report.rollup.to_dict() == baseline.rollup.to_dict()
        assert source.injected["stall"] == 1

    def test_generated_storm_to_parity(self, study):
        baseline = clean_rollup(study, 300)
        plan = FaultPlan.generate(
            11, 300, error_rate=0.02, duplicate_rate=0.02, truncate_rate=0.01,
        )
        source = FaultySource(make_source(study, 300), plan)
        engine = StreamEngine(
            source, geodb=study.geo,
            max_source_retries=8, retry_backoff_seconds=0.0,
        )
        report = engine.run()
        assert report.finished
        assert report.rollup.to_dict() == baseline.rollup.to_dict()

    def test_checkpoint_resume_through_faulty_source(self, study, tmp_path):
        ck = str(tmp_path / "ck.json")
        baseline = clean_rollup(study, 200)
        plan = FaultPlan(faults=[FaultSpec(index=40, kind="error")])
        StreamEngine(
            FaultySource(make_source(study, 200), plan),
            geodb=study.geo,
            checkpoint_path=ck, checkpoint_interval=30,
            max_source_retries=2, retry_backoff_seconds=0.0,
        ).run(max_samples=90)
        resumed = StreamEngine(
            FaultySource(make_source(study, 200), FaultPlan()),
            geodb=study.geo,
            checkpoint_path=ck, checkpoint_interval=30,
        ).run(resume=True)
        assert resumed.rollup.to_dict() == baseline.rollup.to_dict()


# ----------------------------------------------------------------------
# Satellite regressions: engine, sources, metrics
# ----------------------------------------------------------------------
class TestSatelliteRegressions:
    def test_finished_with_exactly_max_samples(self, study):
        """A source holding exactly max_samples items is a finished
        stream: trailing windows must flush to the detector."""
        n = 120
        baseline = StreamEngine(
            IterableSource(study.samples[:n], timestamps=study.timestamps),
            geodb=study.geo,
        ).run()
        engine = StreamEngine(
            IterableSource(study.samples[:n], timestamps=study.timestamps),
            geodb=study.geo,
        )
        observed = []
        observe = engine.detector.observe

        def spy(country, window_start, rate, total):
            observed.append((country, window_start))
            return observe(country, window_start, rate, total)

        engine.detector.observe = spy
        report = engine.run(max_samples=n)
        assert report.finished
        # Every window was closed exactly once, the trailing ones too.
        windows = [
            (country, bucket)
            for bucket, slice_ in report.rollup.slices.items()
            for country in slice_.totals
        ]
        assert sorted(observed) == sorted(windows)
        assert report.rollup.to_dict() == baseline.rollup.to_dict()
        assert [e.to_dict() for e in report.events] == [
            e.to_dict() for e in baseline.events
        ]

    def test_not_finished_when_source_has_more(self, study):
        report = StreamEngine(
            make_source(study), geodb=study.geo
        ).run(max_samples=100)
        assert not report.finished
        assert report.rollup.n_records == 100

    def test_jsonl_cursor_past_eof_fails_loudly(self, study, tmp_path):
        path = str(tmp_path / "s.jsonl")
        write_samples_jsonl(path, study.samples[:20])
        source = JsonlSource(path)
        source.seek(50)  # checkpoint taken before the file was truncated
        with pytest.raises(StreamError, match="only 20 samples present"):
            list(source)

    def test_jsonl_cursor_at_exact_eof_is_fine(self, study, tmp_path):
        path = str(tmp_path / "s.jsonl")
        write_samples_jsonl(path, study.samples[:20])
        source = JsonlSource(path)
        source.seek(20)
        assert list(source) == []

    def test_jsonl_truncated_tail_line_is_transient(self, study, tmp_path):
        path = str(tmp_path / "s.jsonl")
        write_samples_jsonl(path, study.samples[:5])
        with open(path, "a") as fh:
            fh.write('{"conn_id": 99, "client_ip": "1.2.3')  # torn write
        source = JsonlSource(path)
        with pytest.raises(TransientSourceError, match="after 5 samples"):
            list(source)

    def test_jsonl_directory_cursor_past_eof_fails_loudly(self, study, tmp_path):
        write_samples_jsonl(str(tmp_path / "cap-000.jsonl"), study.samples[:20])
        write_samples_jsonl(str(tmp_path / "cap-001.jsonl"), study.samples[20:30])
        source = JsonlDirectorySource(str(tmp_path))
        source.seek(["cap-001.jsonl", 25])
        with pytest.raises(StreamError, match="only 10 samples present"):
            list(source)

    def test_metrics_snapshot_has_fault_counters(self):
        snap = StreamMetrics().snapshot()
        for key in ("source_retries", "duplicates_dropped"):
            assert snap[key] == 0

    def test_render_reports_survived_faults(self):
        metrics = StreamMetrics()
        metrics.source_retries = 2
        assert "faults survived" in metrics.render()


# ----------------------------------------------------------------------
# End-to-end fire drills (two of them SIGKILL a forked engine: own CI job)
# ----------------------------------------------------------------------
@pytest.mark.chaos
class TestDrills:
    def test_kill9_resume_drill(self, tmp_path):
        result = run_drill(
            "kill9-resume", connections=400, seed=7,
            checkpoint_dir=str(tmp_path),
        )
        assert result.ok, result.render()
        assert result.details["killed_by_sigkill"]

    def test_flaky_source_drill(self):
        result = run_drill("flaky-source", connections=250, seed=7)
        assert result.ok, result.render()
        assert result.details["source_retries"] > 0

    @pytest.mark.parametrize("point", ["segment-written", "manifest-swapped"])
    def test_store_compaction_drill(self, tmp_path, point):
        result = run_drill(
            "store-compaction", connections=400, seed=7,
            checkpoint_dir=str(tmp_path), store_chaos_point=point,
        )
        assert result.ok, result.render()
        assert result.details["killed_by_sigkill"]
        assert result.details["engine_parity"]
        assert result.details["store_query_parity"]
        assert result.details["detector_parity"]
        assert result.details["resumed_from"] > 0

    def test_unknown_drill_rejected(self):
        with pytest.raises(StreamError):
            run_drill("unplug-the-router")

    def test_cli_drill_flaky_source(self, capsys):
        from repro.cli import main

        code = main(["stream", "--drill", "flaky-source", "-n", "150"])
        out = capsys.readouterr().out
        assert code == 0
        assert "drill flaky-source: PASS" in out


class TestCliFaultPlan:
    def test_stream_with_fault_plan_file(self, study, tmp_path, capsys):
        from repro.cli import main

        samples_path = str(tmp_path / "s.jsonl")
        write_samples_jsonl(samples_path, study.samples[:60])
        plan = FaultPlan(faults=[
            FaultSpec(index=5, kind="error"),
            FaultSpec(index=30, kind="duplicate"),
        ])
        plan_path = str(tmp_path / "plan.json")
        with open(plan_path, "w") as fh:
            json.dump(plan.to_dict(), fh)
        code = main(["stream", samples_path, "--fault-plan", plan_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "stream finished after 60 connections" in out
        assert "faults survived: 1 source retries, 1 duplicates dropped" in out
