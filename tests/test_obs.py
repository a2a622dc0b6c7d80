"""Tests for :mod:`repro.obs`: the metrics registry, trace ring,
the :class:`Observability` facade, progress reporting, the export /
report round-trip, and the engine + CLI integration points.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.obs import (
    DEFAULT_LATENCY_BOUNDS,
    NULL_OBS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullObservability,
    Observability,
    ProgressReporter,
    Tracer,
    load_export,
    percentile_from_buckets,
    prometheus_name,
    render_obs_report,
    stage_rows,
)
from repro.stream import IterableSource, StreamEngine
from repro.workloads.scenarios import two_week_study


@pytest.fixture(scope="module")
def study():
    return two_week_study(n_connections=300, seed=11)


def make_source(study):
    return IterableSource(study.samples, timestamps=study.timestamps)


# ----------------------------------------------------------------------
# Registry: counters, gauges, histograms
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        c = registry.counter("source.retries")
        c.inc()
        c.inc(4)
        assert c.value == 5
        g = registry.gauge("queue.depth")
        g.set(7.0)
        g.inc()
        g.dec(3.0)
        assert g.value == 5.0

    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.get("a").value == 0
        assert registry.get("missing") is None

    def test_type_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("x")

    def test_histogram_observe_and_buckets(self):
        h = Histogram("t", bounds=[0.001, 0.01, 0.1])
        for v in (0.0005, 0.005, 0.005, 0.05, 5.0):
            h.observe(v)
        assert h.counts == [1, 2, 1, 1]  # last slot is overflow
        assert h.count == 5
        assert h.sum == pytest.approx(5.0605)
        assert h.mean == pytest.approx(5.0605 / 5)

    def test_histogram_bound_is_inclusive_upper_edge(self):
        h = Histogram("t", bounds=[0.001, 0.01])
        h.observe(0.001)  # exactly on the edge -> first bucket (le semantics)
        assert h.counts == [1, 0, 0]

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("t", bounds=[])
        with pytest.raises(ValueError):
            Histogram("t", bounds=[0.1, 0.1])
        with pytest.raises(ValueError):
            Histogram("t", bounds=[0.2, 0.1])

    def test_default_bounds_span_us_to_seconds(self):
        assert DEFAULT_LATENCY_BOUNDS[0] == pytest.approx(1e-6)
        assert DEFAULT_LATENCY_BOUNDS[-1] == pytest.approx(1e-6 * 2 ** 24)
        assert list(DEFAULT_LATENCY_BOUNDS) == sorted(DEFAULT_LATENCY_BOUNDS)

    def test_percentiles_interpolate_monotonically(self):
        h = Histogram("t", bounds=[0.001, 0.01, 0.1, 1.0])
        for _ in range(100):
            h.observe(0.005)
        p50 = h.percentile(50.0)
        p99 = h.percentile(99.0)
        assert 0.001 <= p50 <= 0.01
        assert p50 <= p99 <= 0.01

    def test_percentile_from_buckets_edges(self):
        assert percentile_from_buckets([0.1], [0, 0], 50.0) == 0.0  # empty
        # Everything in the overflow bucket reports the last finite bound.
        assert percentile_from_buckets([0.1, 0.2], [0, 0, 10], 99.0) == 0.2
        with pytest.raises(ValueError):
            percentile_from_buckets([0.1], [1, 0], 101.0)
        with pytest.raises(ValueError):
            percentile_from_buckets([0.1], [1, 0], -1.0)

    def test_prometheus_name(self):
        assert prometheus_name("wal.append") == "repro_wal_append"
        assert prometheus_name("classify", "seconds") == "repro_classify_seconds"
        assert prometheus_name("a-b.c") == "repro_a_b_c"

    def test_render_prometheus(self):
        registry = MetricsRegistry()
        registry.counter("source.retries", help="retried reads").inc(3)
        registry.gauge("queue.depth").set(2.5)
        h = registry.histogram("classify", bounds=[0.001, 0.01])
        h.observe(0.0005)
        h.observe(0.005)
        h.observe(5.0)
        text = registry.render_prometheus()
        assert "# HELP repro_source_retries_total retried reads" in text
        assert "# TYPE repro_source_retries_total counter" in text
        assert "repro_source_retries_total 3" in text
        assert "repro_queue_depth 2.5" in text
        # Cumulative le buckets plus the +Inf total.
        assert 'repro_classify_seconds_bucket{le="0.001"} 1' in text
        assert 'repro_classify_seconds_bucket{le="0.01"} 2' in text
        assert 'repro_classify_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_classify_seconds_count 3" in text
        assert text.endswith("\n")

    def test_summary_and_to_dict(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.histogram("h", bounds=[0.01]).observe(0.005)
        full = registry.to_dict()
        assert full["counters"] == {"c": 2}
        assert full["histograms"]["h"]["counts"] == [1, 0]
        compact = registry.summary()
        assert compact["histograms"]["h"]["count"] == 1
        assert "p50" in compact["histograms"]["h"]
        assert "p99" in compact["histograms"]["h"]
        # Both must be JSON-serialisable as-is.
        json.dumps(full)
        json.dumps(compact)


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_ring_keeps_most_recent(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            tracer.record(f"s{i}", start=float(i), duration=0.001)
        spans = tracer.spans()
        assert [s["name"] for s in spans] == ["s2", "s3", "s4"]
        assert tracer.total_spans == 5
        assert tracer.stats() == {
            "capacity": 3,
            "recorded": 3,
            "total_spans": 5,
            "total_events": 0,
        }

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_events_are_zero_duration_with_attrs(self):
        tracer = Tracer()
        tracer.record("classify", start=0.0, duration=0.002)
        tracer.event("worker.restart", worker_id=3, exitcode=-9)
        events = tracer.events()
        assert len(events) == 1
        assert events[0]["name"] == "worker.restart"
        assert events[0]["duration_seconds"] == 0.0
        assert events[0]["attrs"] == {"worker_id": 3, "exitcode": -9}
        assert tracer.events("engine.resume") == []
        assert len(tracer.events("worker.restart")) == 1
        assert tracer.total_events == 1

    def test_epoch_conversion_is_plausible(self):
        import time

        tracer = Tracer()
        tracer.record("s", start=time.perf_counter(), duration=0.0)
        ts = tracer.spans()[0]["ts"]
        assert abs(ts - time.time()) < 5.0

    def test_export_jsonl(self, tmp_path):
        tracer = Tracer()
        tracer.record("classify", start=1.0, duration=0.001)
        tracer.event("engine.resume", watermark=42.0)
        path = str(tmp_path / "spans.jsonl")
        assert tracer.export_jsonl(path) == 2
        lines = [json.loads(l) for l in open(path) if l.strip()]
        assert [l["name"] for l in lines] == ["classify", "engine.resume"]
        assert lines[1]["attrs"]["watermark"] == 42.0


# ----------------------------------------------------------------------
# Observability facade and the null implementation
# ----------------------------------------------------------------------
class TestObservability:
    def test_timer_is_cached_and_span_aliases_it(self):
        obs = Observability()
        t1 = obs.timer("classify")
        assert obs.timer("classify") is t1
        assert obs.span("classify") is t1

    def test_timer_context_manager_feeds_histogram_and_ring(self):
        obs = Observability()
        with obs.timer("classify"):
            pass
        hist = obs.registry.get("classify")
        assert hist.count == 1
        assert hist.sum >= 0.0
        assert obs.tracer.spans()[0]["name"] == "classify"

    def test_timer_records_even_when_body_raises(self):
        obs = Observability()
        with pytest.raises(RuntimeError):
            with obs.timer("classify"):
                raise RuntimeError("boom")
        assert obs.registry.get("classify").count == 1

    def test_record_routes_external_measurements(self):
        obs = Observability()
        t = obs.timer("classify.hit")
        t.record(0.25)
        hist = obs.registry.get("classify.hit")
        assert hist.count == 1
        assert hist.sum == pytest.approx(0.25)
        assert obs.tracer.spans()[0]["duration_seconds"] == pytest.approx(0.25)

    def test_summary_includes_span_stats(self):
        obs = Observability()
        obs.counter("c").inc()
        with obs.timer("t"):
            pass
        summary = obs.summary()
        assert summary["counters"] == {"c": 1}
        assert summary["spans"]["total_spans"] == 1
        json.dumps(summary)

    def test_export_and_load_round_trip(self, tmp_path):
        obs = Observability()
        obs.counter("source.retries").inc(2)
        obs.gauge("queue.depth").set(4)
        with obs.timer("classify"):
            pass
        obs.event("engine.resume", samples_done=10)
        out = str(tmp_path / "obs")
        paths = obs.export(out, extra={"records": 123})
        assert set(paths) == {"metrics.json", "metrics.prom", "spans.jsonl"}
        for path in paths.values():
            assert os.path.isfile(path)

        export = load_export(out)
        assert export.counters == {"source.retries": 2}
        assert export.gauges == {"queue.depth": 4}
        assert export.histograms["classify"]["count"] == 1
        assert export.metrics["extra"] == {"records": 123}
        assert export.metrics["version"] == 1
        resumes = export.events("engine.resume")
        assert len(resumes) == 1
        assert resumes[0]["attrs"]["samples_done"] == 10
        prom = open(paths["metrics.prom"]).read()
        assert "repro_source_retries_total 2" in prom

    def test_load_export_missing_metrics(self, tmp_path):
        with pytest.raises(ReproError, match="metrics.json"):
            load_export(str(tmp_path / "nope"))

    def test_stage_rows_and_report(self, tmp_path):
        obs = Observability()
        slow = obs.timer("rollup.fold")
        fast = obs.timer("classify")
        slow.record(0.5)
        slow.record(0.5)
        fast.record(0.001)
        obs.counter("classify.cache_hits").inc(9)
        obs.event("worker.restart", worker_id=0)
        out = str(tmp_path / "obs")
        obs.export(out)
        export = load_export(out)

        rows = stage_rows(export)
        assert rows[0]["stage"] == "rollup.fold"  # most busy time first
        assert rows[0]["count"] == 2
        assert rows[0]["share_pct"] > rows[1]["share_pct"]
        assert rows[0]["p50_us"] > 0
        assert rows[0]["p99_us"] >= rows[0]["p50_us"]

        text = render_obs_report(export)
        assert "Stage latencies" in text
        assert "bottleneck: rollup.fold" in text
        assert "classify.cache_hits" in text
        assert "worker.restart" in text

    def test_null_obs_is_inert(self, tmp_path):
        assert NULL_OBS.enabled is False
        assert isinstance(NULL_OBS, NullObservability)
        NULL_OBS.counter("c").inc(5)
        assert NULL_OBS.counter("c").value == 0
        NULL_OBS.gauge("g").set(3)
        NULL_OBS.histogram("h").observe(1.0)
        with NULL_OBS.timer("t"):
            pass
        NULL_OBS.timer("t").record(1.0)
        NULL_OBS.event("e", x=1)
        assert NULL_OBS.summary() == {}
        assert NULL_OBS.render_prometheus() == ""
        assert NULL_OBS.export(str(tmp_path / "o")) == {}
        assert not os.path.exists(str(tmp_path / "o"))


# ----------------------------------------------------------------------
# Progress reporter
# ----------------------------------------------------------------------
class _FakeMetrics:
    def __init__(self, records=0):
        self.records_out = records
        self.anomaly_events = 1
        self.source_retries = 0

    def samples_per_second(self):
        return 1000.0


class TestProgressReporter:
    def test_rate_limited_by_interval(self):
        clock = {"t": 0.0}
        lines = []
        reporter = ProgressReporter(
            interval_seconds=5.0, sink=lines.append, clock=lambda: clock["t"]
        )
        metrics = _FakeMetrics(records=100)
        assert reporter.maybe_report(metrics) is False  # too soon
        clock["t"] = 4.9
        assert reporter.maybe_report(metrics) is False
        clock["t"] = 5.1
        assert reporter.maybe_report(metrics) is True
        assert reporter.lines_emitted == 1
        assert len(lines) == 1
        assert "progress: 100 records" in lines[0]
        assert "1 anomalies" in lines[0]
        assert "retries" not in lines[0]

    def test_interval_rate_uses_delta(self):
        clock = {"t": 0.0}
        lines = []
        reporter = ProgressReporter(
            interval_seconds=1.0, sink=lines.append, clock=lambda: clock["t"]
        )
        clock["t"] = 2.0
        reporter.maybe_report(_FakeMetrics(records=200))
        assert "(interval 100/s)" in lines[0]
        clock["t"] = 4.0
        reporter.maybe_report(_FakeMetrics(records=500))
        assert "(interval 150/s)" in lines[1]

    def test_optional_parts_appear(self):
        clock = {"t": 10.0}
        lines = []
        reporter = ProgressReporter(
            interval_seconds=1.0, sink=lines.append, clock=lambda: clock["t"]
        )
        metrics = _FakeMetrics(records=10)
        metrics.source_retries = 3
        clock["t"] = 12.0
        reporter.maybe_report(metrics)
        assert "3 source retries" in lines[0]

    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            ProgressReporter(interval_seconds=0.0)


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
class TestEngineIntegration:
    def test_serial_run_populates_stage_metrics(self, study):
        engine = StreamEngine(make_source(study))
        report = engine.run()
        snap = report.metrics
        assert "obs" in snap
        hists = snap["obs"]["histograms"]
        # Every serial-path stage saw traffic.
        for stage in ("source.read", "rollup.fold", "anomaly.observe"):
            assert hists[stage]["count"] > 0, stage
        # With the default memo the classify path splits hit/miss.  The
        # counters are exact; classify timing is sampled 1-in-N, so the
        # weighted histogram counts estimate the same total and split.
        n = len(study.samples)
        counters = snap["obs"]["counters"]
        assert counters["classify.cache_hits"] > 0
        assert counters["classify.cache_misses"] > 0
        assert counters["classify.cache_hits"] + counters["classify.cache_misses"] == n
        hits = hists.get("classify.hit", {}).get("count", 0)
        misses = hists.get("classify.miss", {}).get("count", 0)
        assert hits + misses == n  # weighted total; n is stride-aligned
        assert abs(hits - counters["classify.cache_hits"]) < 0.25 * n
        assert snap["obs"]["spans"]["total_spans"] > 0

    def test_null_obs_disables_snapshot_section(self, study):
        engine = StreamEngine(make_source(study), obs=NULL_OBS)
        report = engine.run(max_samples=50)
        assert "obs" not in report.metrics
        assert report.samples_processed == 50  # the pipeline itself still works

    def test_uncached_serial_run_uses_plain_classify_stage(self, study):
        from repro.core.classifier import ClassifierConfig

        engine = StreamEngine(
            make_source(study),
            classifier_config=ClassifierConfig(cache_size=0),
        )
        report = engine.run(max_samples=40)
        hists = report.metrics["obs"]["histograms"]
        assert hists["classify"]["count"] == 40
        # Hit/miss timers are wired but never fed without a memo.
        assert hists.get("classify.hit", {"count": 0})["count"] == 0
        assert hists.get("classify.miss", {"count": 0})["count"] == 0

    def test_store_run_times_wal_and_seal(self, study, tmp_path):
        engine = StreamEngine(
            make_source(study), store_dir=str(tmp_path / "store")
        )
        report = engine.run()
        hists = report.metrics["obs"]["histograms"]
        assert hists["wal.append"]["count"] == len(study.samples)
        assert hists["wal.fsync"]["count"] > 0
        assert hists["segment.seal"]["count"] > 0

    def test_resume_emits_engine_resume_event(self, study, tmp_path):
        ck = str(tmp_path / "ck.json")
        StreamEngine(make_source(study), checkpoint_path=ck).run(
            max_samples=120
        )
        engine = StreamEngine(make_source(study), checkpoint_path=ck)
        report = engine.run(resume=True)
        events = engine.obs.tracer.events("engine.resume")
        assert len(events) == 1
        assert events[0]["attrs"]["samples_done"] == 120
        assert report.metrics["obs"]["counters"]["engine.resumes"] == 1

    def test_progress_reporter_wired_through_engine(self, study):
        lines = []
        reporter = ProgressReporter(interval_seconds=1e-9, sink=lines.append)
        engine = StreamEngine(make_source(study), progress=reporter)
        engine.run(max_samples=30)
        assert reporter.lines_emitted > 0
        assert lines and lines[0].startswith("progress: ")


# ----------------------------------------------------------------------
# CLI: stream --obs and the obs subcommand
# ----------------------------------------------------------------------
class TestObsCli:
    @pytest.fixture(scope="class")
    def export_dir(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("cli") / "obs")
        assert main(["stream", "-n", "120", "--seed", "4", "--obs", out]) == 0
        return out

    def test_stream_obs_writes_export(self, export_dir, capsys):
        for name in ("metrics.json", "metrics.prom", "spans.jsonl"):
            assert os.path.isfile(os.path.join(export_dir, name)), name
        with open(os.path.join(export_dir, "metrics.json")) as fh:
            payload = json.load(fh)
        assert payload["histograms"]["classify.hit"]["count"] >= 0
        assert "stream_metrics" in payload["extra"]

    def test_obs_report_command(self, export_dir, capsys):
        assert main(["obs", export_dir]) == 0
        out = capsys.readouterr().out
        assert "Stage latencies" in out
        assert "bottleneck:" in out
        assert "p50_us" in out and "p99_us" in out

    def test_obs_report_json(self, export_dir, capsys):
        assert main(["obs", export_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stages"]
        stages = {row["stage"] for row in payload["stages"]}
        assert "source.read" in stages
        assert "rollup.fold" in stages
        for row in payload["stages"]:
            assert row["p99_us"] >= row["p50_us"] >= 0

    def test_obs_missing_export_errors(self, tmp_path):
        # Same loud-failure contract as `repro query` on a typo'd path.
        with pytest.raises(ReproError, match="metrics.json"):
            main(["obs", str(tmp_path / "nothing")])

    def test_stream_progress_flag(self, capsys):
        assert main(["stream", "-n", "40", "--seed", "4",
                     "--progress", "0.000001"]) == 0
        err = capsys.readouterr().err
        assert "progress:" in err


class TestRegistryThreadSafety:
    """The serve tier mutates one registry from several threads.

    Unlocked ``value += n`` and bucket increments span multiple
    bytecodes and lose updates under concurrent interleaving; these
    hammers fail reliably on an unlocked registry (verified by
    reverting the metric locks) and pin the thread-safety contract.
    """

    N_THREADS = 8
    N_OPS = 2500

    def _hammer(self, target):
        import threading

        threads = [
            threading.Thread(target=target) for _ in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_counter_increments_are_not_lost(self):
        counter = Counter("hammer.counter")
        self._hammer(lambda: [counter.inc() for _ in range(self.N_OPS)])
        assert counter.value == self.N_THREADS * self.N_OPS

    def test_gauge_inc_dec_balance(self):
        gauge = Gauge("hammer.gauge")

        def work():
            for _ in range(self.N_OPS):
                gauge.inc(2.0)
                gauge.dec(1.0)

        self._hammer(work)
        assert gauge.value == self.N_THREADS * self.N_OPS

    def test_histogram_observations_are_not_lost(self):
        hist = Histogram("hammer.hist", bounds=(0.001, 0.01, 0.1, 1.0))

        def work():
            for i in range(self.N_OPS):
                hist.observe(0.0005 * (1 + i % 4))

        self._hammer(work)
        counts, total_sum = hist.snapshot()
        assert sum(counts) == self.N_THREADS * self.N_OPS
        expected = self.N_THREADS * sum(
            0.0005 * (1 + i % 4) for i in range(self.N_OPS)
        )
        assert total_sum == pytest.approx(expected)

    def test_registry_get_or_create_races_to_one_instance(self):
        import threading

        registry = MetricsRegistry()
        barrier = threading.Barrier(self.N_THREADS)
        got = []

        def work():
            barrier.wait()
            got.append(registry.counter("race.single"))

        self._hammer(work)
        assert len(got) == self.N_THREADS
        assert all(metric is got[0] for metric in got)

    def test_concurrent_observe_and_render(self):
        """Rendering while observers run never produces a torn page."""
        import threading

        registry = MetricsRegistry()
        counter = registry.counter("mix.counter")
        hist = registry.histogram("mix.hist", bounds=(0.001, 0.01, 0.1))
        stop = threading.Event()

        def observe():
            while not stop.is_set():
                counter.inc()
                hist.observe(0.005)

        threads = [threading.Thread(target=observe) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(50):
                text = registry.render_prometheus()
                cumulative = [
                    int(line.rsplit(" ", 1)[1])
                    for line in text.splitlines()
                    if line.startswith("repro_mix_hist_seconds_bucket")
                ]
                assert cumulative == sorted(cumulative)
        finally:
            stop.set()
            for thread in threads:
                thread.join()


class TestPrometheusExposition:
    """Validity of the ``/metrics`` text against the exposition format."""

    def make_registry(self):
        registry = MetricsRegistry()
        registry.counter("serve.requests", help="requests seen")
        registry.counter("plain")
        gauge = registry.gauge("queue.depth", help="records queued")
        gauge.set(7)
        hist = registry.histogram(
            "fold latency!", bounds=(0.001, 0.01, 0.1), help="fold time"
        )
        hist.observe(0.0005)
        hist.observe(0.05)
        hist.observe(99.0)  # overflow bucket
        return registry

    def test_help_and_type_precede_samples(self):
        text = self.make_registry().render_prometheus()
        lines = text.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("#"):
                continue
            name = line.split("{")[0].split(" ")[0]
            base = name
            for suffix in ("_bucket", "_sum", "_count"):
                if base.endswith(suffix):
                    base = base[: -len(suffix)]
            type_lines = [
                j for j, other in enumerate(lines)
                if other.startswith("# TYPE ") and other.split()[2] == base
            ]
            assert type_lines, f"no TYPE line for {name}"
            assert type_lines[0] < i, f"TYPE after sample for {name}"
        help_lines = [l for l in lines if l.startswith("# HELP")]
        assert any("requests seen" in l for l in help_lines)
        # HELP, when present, immediately precedes its TYPE line.
        for j, line in enumerate(lines):
            if line.startswith("# HELP "):
                assert lines[j + 1].startswith("# TYPE ")
                assert lines[j + 1].split()[2] == line.split()[2]

    def test_total_suffix_only_on_counters(self):
        text = self.make_registry().render_prometheus()
        for line in text.splitlines():
            if line.startswith("#"):
                kind = line.split()[1]
                name = line.split()[2]
                if line.startswith("# TYPE"):
                    ends_total = name.endswith("_total")
                    is_counter = line.split()[3] == "counter"
                    assert ends_total == is_counter, line
            else:
                name = line.split("{")[0].split(" ")[0]
                if name.endswith("_total"):
                    assert "le=" not in line

    def test_histogram_buckets_cumulative_and_end_plus_inf(self):
        text = self.make_registry().render_prometheus()
        buckets = [
            line for line in text.splitlines()
            if line.startswith("repro_fold_latency__seconds_bucket")
        ]
        assert buckets, text
        counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts), "le counts must be cumulative"
        assert 'le="+Inf"' in buckets[-1]
        assert counts[-1] == 3  # +Inf bucket equals _count
        assert f"repro_fold_latency__seconds_count 3" in text
        # The 99 s observation lives only in the overflow bucket.
        assert counts[-1] - counts[-2] == 1

    def test_names_are_sanitized(self):
        assert prometheus_name("fold latency!") == "repro_fold_latency_"
        assert prometheus_name("a.b-c", "seconds") == "repro_a_b_c_seconds"
        text = self.make_registry().render_prometheus()
        import re

        for line in text.splitlines():
            name = line.split()[2] if line.startswith("#") else (
                line.split("{")[0].split(" ")[0]
            )
            assert re.fullmatch(r"[a-zA-Z_:][a-zA-Z0-9_:]*", name), line

    def test_gauge_renders_current_value(self):
        text = self.make_registry().render_prometheus()
        assert "repro_queue_depth 7" in text


# ----------------------------------------------------------------------
# Tracer ring wrap-around and weighted sampled timers
# ----------------------------------------------------------------------
class TestTracerWrapAround:
    def test_spans_ordering_and_export_after_wrap(self, tmp_path):
        tracer = Tracer(capacity=4)
        for i in range(7):
            tracer.record(f"s{i}", start=float(i), duration=0.001)
        assert tracer._wrapped is True
        spans = tracer.spans()
        # Oldest survivor first: s0..s2 were overwritten in place.
        assert [s["name"] for s in spans] == ["s3", "s4", "s5", "s6"]
        ts = [s["ts"] for s in spans]
        assert ts == sorted(ts)
        path = str(tmp_path / "spans.jsonl")
        assert tracer.export_jsonl(path) == 4
        lines = [json.loads(l) for l in open(path) if l.strip()]
        assert [l["name"] for l in lines] == ["s3", "s4", "s5", "s6"]
        assert all(l["kind"] == "span" for l in lines)
        assert tracer.stats()["recorded"] == 4
        assert tracer.total_spans == 7

    def test_events_survive_a_span_flood_wrap(self):
        tracer = Tracer(capacity=2)
        tracer.event("engine.resume", cursor=9)
        for i in range(50):
            tracer.record("hot", start=float(i), duration=0.0001)
        assert tracer._wrapped is True
        assert [e["name"] for e in tracer.events()] == ["engine.resume"]
        # spans() still merges the event in timestamp order.
        assert sum(s["kind"] == "event" for s in tracer.spans()) == 1

    def test_weighted_timer_counts_are_exact_across_wrap(self):
        # A weight=N sampled timer must keep histogram counts exact
        # (every record counts N) even while the ring wraps: ring
        # writes are a flight recorder, histograms are the aggregate.
        obs = Observability(span_capacity=4)
        timer = obs.timer("classify.hit", sample=8)
        assert timer.weight == 8
        recorded = 33  # enough ring writes (every 8th) to wrap capacity 4
        for _ in range(recorded):
            timer.record(0.001)
        assert obs.tracer._wrapped is True
        hist = obs.registry.get("classify.hit")
        assert hist.count == recorded * 8
        assert hist.sum == pytest.approx(recorded * 8 * 0.001)
        # The context-manager path weights identically.
        with timer:
            pass
        assert hist.count == (recorded + 1) * 8


# ----------------------------------------------------------------------
# Histogram exemplars (trace ids on bucket lines)
# ----------------------------------------------------------------------
class TestHistogramExemplars:
    def test_set_exemplar_does_not_touch_counts(self):
        registry = MetricsRegistry()
        hist = registry.histogram("wal.append", bounds=(0.001, 0.01, 0.1))
        hist.observe(0.005)
        hist.set_exemplar(0.005, "a" * 32, 1700000000.0)
        assert hist.count == 1
        assert hist.exemplars[1][0] == "a" * 32
        # Last writer per bucket wins.
        hist.set_exemplar(0.006, "b" * 32, 1700000001.0)
        assert hist.exemplars[1][0] == "b" * 32
        assert len(hist.exemplars) == 1

    def test_exposition_suffix_only_on_exemplar_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("wal.append", bounds=(0.001, 0.01))
        hist.observe(0.005)
        hist.observe(5.0)  # lands in +Inf
        hist.set_exemplar(0.005, "c" * 32, 1700000000.0)
        text = registry.render_prometheus()
        buckets = [l for l in text.splitlines() if "_bucket" in l]
        assert len(buckets) == 3
        with_exemplar = [l for l in buckets if "trace_id" in l]
        assert len(with_exemplar) == 1
        assert 'le="0.01"' in with_exemplar[0]
        assert f'# {{trace_id="{"c" * 32}"}} 0.005' in with_exemplar[0]
        # Exemplar-free buckets keep the plain `name{le} count` shape
        # existing scrapers parse with rsplit.
        for line in buckets:
            if "trace_id" not in line:
                int(line.rsplit(" ", 1)[1])

    def test_to_dict_round_trips_exemplars(self):
        registry = MetricsRegistry()
        hist = registry.histogram("wal.append", bounds=(0.001, 0.01))
        payload = registry.to_dict()
        assert "exemplars" not in payload["histograms"]["wal.append"]
        hist.set_exemplar(0.002, "d" * 32, 1700000000.0)
        payload = registry.to_dict()
        exemplars = payload["histograms"]["wal.append"]["exemplars"]
        (entry,) = exemplars.values()
        assert entry == {"trace_id": "d" * 32, "value": 0.002,
                         "ts": 1700000000.0}
