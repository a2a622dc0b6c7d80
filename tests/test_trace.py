"""Tests for end-to-end request tracing: trace context parsing and
propagation, the bounded span-tree recorder, exemplars, the critical-
path analyzer, and the ``repro trace`` CLI.

The acceptance test is the serve round trip: one sampled
``POST /v1/samples`` must yield a single connected span tree -- one
trace id, valid parent links, no orphans -- spanning HTTP accept,
batcher enqueue and queue wait, classify, rollup fold, and WAL append,
with the trace id surfacing as an exemplar in ``/metrics``.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.cli import main
from repro.errors import ServeError, StreamError
from repro.obs import (
    NULL_RECORDER,
    HeadSampler,
    MetricsRegistry,
    Observability,
    SpanRecorder,
    TraceContext,
    build_trees,
    critical_path,
    mint_span_id,
    mint_trace_id,
    parse_traceparent,
    render_trace_report,
    stage_self_times,
    trace_report_data,
)
from repro.serve import ServeClient, ServeConfig, ServeService
from repro.stream import IterableSource, StreamEngine, StreamItem
from repro.workloads.scenarios import two_week_study


@pytest.fixture(scope="module")
def study():
    return two_week_study(n_connections=200, seed=13)


# ----------------------------------------------------------------------
# Trace context: minting, wire format, parsing
# ----------------------------------------------------------------------
class TestTraceContext:
    def test_mint_shapes(self):
        assert len(mint_trace_id()) == 32
        assert len(mint_span_id()) == 16
        assert mint_trace_id() != mint_trace_id()

    def test_traceparent_round_trip(self):
        ctx = TraceContext(mint_trace_id(), mint_span_id(), sampled=True)
        parsed = parse_traceparent(ctx.to_traceparent())
        assert parsed == ctx

    def test_unsampled_flag_round_trip(self):
        ctx = TraceContext(mint_trace_id(), mint_span_id(), sampled=False)
        header = ctx.to_traceparent()
        assert header.endswith("-00")
        assert parse_traceparent(header).sampled is False

    def test_with_parent_keeps_trace_id(self):
        ctx = TraceContext(mint_trace_id(), mint_span_id())
        child = ctx.with_parent("deadbeefdeadbeef")
        assert child.trace_id == ctx.trace_id
        assert child.span_id == "deadbeefdeadbeef"

    @pytest.mark.parametrize("header", [
        None,
        "",
        "not a header",
        "00-abc-def-01",                                   # wrong lengths
        "01-" + "a" * 32 + "-" + "b" * 16 + "-01",          # bad version
        "00-" + "A" * 32 + "-" + "b" * 16 + "-01",          # uppercase hex
        "00-" + "0" * 32 + "-" + "b" * 16 + "-01",          # all-zero trace
        "00-" + "a" * 32 + "-" + "0" * 16 + "-01",          # all-zero span
        "00-" + "a" * 32 + "-" + "b" * 16 + "-1",           # short flags
        "00-" + "a" * 32 + "-" + "b" * 16,                  # missing flags
    ])
    def test_malformed_is_treated_as_absent(self, header):
        assert parse_traceparent(header) is None


class TestHeadSampler:
    def test_zero_disables(self):
        sampler = HeadSampler(0)
        assert not any(sampler.decide() for _ in range(10))

    def test_one_samples_everything(self):
        sampler = HeadSampler(1)
        assert all(sampler.decide() for _ in range(10))

    def test_one_in_n_and_first_is_sampled(self):
        sampler = HeadSampler(4)
        decisions = [sampler.decide() for _ in range(9)]
        assert decisions == [True, False, False, False,
                             True, False, False, False, True]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            HeadSampler(-1)


# ----------------------------------------------------------------------
# The recorder: nesting, bounds, eviction, pinning, exemplars
# ----------------------------------------------------------------------
def _ctx():
    return TraceContext(mint_trace_id(), mint_span_id(), sampled=True)


class TestSpanRecorder:
    def test_inactive_recorder_stores_nothing(self):
        rec = SpanRecorder()
        assert rec.active is None
        assert rec.record_span("x", 0.0, 0.1) is None
        assert rec.spans() == []

    def test_unsampled_context_deactivates(self):
        rec = SpanRecorder()
        rec.activate(TraceContext(mint_trace_id(), mint_span_id(),
                                  sampled=False))
        assert rec.active is None

    def test_begin_finish_nest_under_stack(self):
        rec = SpanRecorder()
        ctx = _ctx()
        rec.activate(ctx)
        outer = rec.begin("fold")
        inner = rec.begin("wal.append")
        rec.finish(inner)
        rec.finish(outer)
        spans = {s["name"]: s for s in rec.spans()}
        assert spans["fold"]["parent"] == ctx.span_id
        assert spans["wal.append"]["parent"] == spans["fold"]["span"]
        assert spans["fold"]["trace"] == ctx.trace_id

    def test_record_span_explicit_ctx_parent_semantics(self):
        rec = SpanRecorder()
        ctx = _ctx()
        child = rec.record_span("queue", 0.0, 0.1, ctx=ctx)
        root = rec.record_span("request", 0.0, 0.2, ctx=ctx,
                               span_id=ctx.span_id, parent_id="")
        assert child is not None and root == ctx.span_id
        spans = {s["name"]: s for s in rec.spans()}
        assert spans["queue"]["parent"] == ctx.span_id
        assert spans["request"]["parent"] is None

    def test_max_spans_per_trace_drops_and_counts(self):
        rec = SpanRecorder(max_spans_per_trace=3)
        rec.activate(_ctx())
        for i in range(5):
            rec.record_span(f"s{i}", float(i), 0.01)
        assert len(rec.spans()) == 3
        assert rec.stats()["dropped_spans"] == 2

    def test_eviction_drops_cheapest_unpinned(self):
        rec = SpanRecorder(max_traces=2)
        cheap, costly, newcomer = _ctx(), _ctx(), _ctx()
        rec.record_span("a", 0.0, 0.001, ctx=cheap)
        rec.record_span("b", 0.0, 5.0, ctx=costly)
        rec.record_span("c", 0.0, 0.5, ctx=newcomer)
        traces = {s["trace"] for s in rec.spans()}
        assert traces == {costly.trace_id, newcomer.trace_id}
        assert rec.stats()["evicted_traces"] == 1

    def test_pinned_trace_survives_eviction(self):
        rec = SpanRecorder(max_traces=2)
        pinned, costly, newcomer = _ctx(), _ctx(), _ctx()
        rec.record_span("a", 0.0, 0.001, ctx=pinned)
        rec.pin(pinned.trace_id, "http.429")
        rec.record_span("b", 0.0, 5.0, ctx=costly)
        rec.record_span("c", 0.0, 0.5, ctx=newcomer)
        spans = rec.spans()
        traces = {s["trace"] for s in spans}
        assert pinned.trace_id in traces
        pinned_span = next(s for s in spans if s["trace"] == pinned.trace_id)
        assert pinned_span["pinned"] == "http.429"

    def test_exemplars_attach_to_matching_histograms(self):
        registry = MetricsRegistry()
        hist = registry.histogram("wal.append")
        rec = SpanRecorder(registry=registry)
        ctx = _ctx()
        rec.record_span("wal.append", time.perf_counter(), 0.002, ctx=ctx)
        assert hist.exemplars, "span did not leave an exemplar"
        (exemplar,) = hist.exemplars.values()
        assert exemplar[0] == ctx.trace_id
        text = registry.render_prometheus()
        assert f'# {{trace_id="{ctx.trace_id}"}}' in text

    def test_null_recorder_is_inert(self):
        NULL_RECORDER.activate(_ctx())
        assert NULL_RECORDER.active is None
        NULL_RECORDER.finish(NULL_RECORDER.begin("x"))
        assert NULL_RECORDER.record_span("x", 0.0, 0.1) is None
        assert NULL_RECORDER.spans() == []
        assert NULL_RECORDER.stats()["spans"] == 0


# ----------------------------------------------------------------------
# Offline analysis: trees, critical path, report
# ----------------------------------------------------------------------
def _span(name, trace, span, parent, ts, duration):
    return {"kind": "trace", "name": name, "trace": trace, "span": span,
            "parent": parent, "ts": ts, "duration_seconds": duration}


class TestSpanTreeAnalysis:
    def test_build_trees_links_and_orphans_become_roots(self):
        spans = [
            _span("request", "t1", "r", None, 0.0, 0.5),
            _span("fold", "t1", "f", "r", 0.1, 0.3),
            _span("wal", "t1", "w", "f", 0.2, 0.1),
            _span("orphan", "t1", "o", "missing-parent", 0.3, 0.05),
            {"kind": "span", "name": "ring-span", "ts": 0.0,
             "duration_seconds": 0.1},
        ]
        trees = build_trees(spans)
        roots = trees["t1"]
        assert [r.name for r in roots] == ["request", "orphan"]
        request = roots[0]
        assert [c.name for c in request.walk()] == ["request", "fold", "wal"]

    def test_critical_path_follows_latest_end(self):
        # The fold branch ends later than the request span itself: the
        # async tree's wall time is governed by the fold chain.
        spans = [
            _span("request", "t1", "r", None, 0.0, 0.2),
            _span("enqueue", "t1", "e", "r", 0.05, 0.01),
            _span("fold", "t1", "f", "r", 0.3, 0.4),
            _span("wal", "t1", "w", "f", 0.5, 0.15),
        ]
        path = critical_path(build_trees(spans)["t1"])
        assert [n.name for n in path] == ["request", "fold", "wal"]

    def test_self_time_subtracts_children_and_clamps(self):
        spans = [
            _span("fold", "t1", "f", None, 0.0, 0.4),
            _span("wal", "t1", "w", "f", 0.1, 0.3),
        ]
        trees = build_trees(spans)
        (fold,) = trees["t1"]
        assert fold.self_time() == pytest.approx(0.1)
        totals = stage_self_times(trees)
        assert totals["wal"] == pytest.approx(0.3)
        # A child reported longer than its parent must not go negative.
        overlong = build_trees([
            _span("fold", "t2", "f", None, 0.0, 0.1),
            _span("wal", "t2", "w", "f", 0.0, 0.5),
        ])
        assert overlong["t2"][0].self_time() == 0.0

    def test_report_data_ranks_filters_and_renders(self):
        spans = [
            _span("request", "slow", "r1", None, 0.0, 1.0),
            _span("fold", "slow", "f1", "r1", 0.1, 0.8),
            _span("request", "fast", "r2", None, 0.0, 0.01),
        ]
        data = trace_report_data(spans, top=1)
        assert data["n_traces"] == 2
        assert [t["trace_id"] for t in data["traces"]] == ["slow"]
        assert data["traces"][0]["critical_path"][0]["name"] == "request"
        filtered = trace_report_data(spans, top=5, trace_filter="fast")
        assert [t["trace_id"] for t in filtered["traces"]] == ["fast"]
        text = render_trace_report(data)
        assert "critical path:" in text
        assert "per-stage self time" in text
        assert "request" in text


# ----------------------------------------------------------------------
# Engine integration: pull-mode head sampling
# ----------------------------------------------------------------------
class TestEngineTracing:
    def test_trace_sample_n_validated(self, study):
        source = IterableSource(study.samples, timestamps=study.timestamps)
        with pytest.raises(StreamError):
            StreamEngine(source, trace_sample_n=-1)

    def test_pull_mode_traces_cover_the_fold_path(self, study, tmp_path):
        obs = Observability()
        engine = StreamEngine(
            IterableSource(study.samples, timestamps=study.timestamps),
            geodb=study.world.geo,
            store_dir=str(tmp_path / "store"),
            obs=obs,
            trace_sample_n=16,
        )
        report = engine.run()
        assert report.samples_processed == len(study.samples)
        spans = obs.trace_recorder.spans()
        assert spans, "head sampling produced no spans"
        names = {s["name"] for s in spans}
        assert "rollup.fold" in names
        assert "wal.append" in names
        assert names & {"classify", "classify.hit", "classify.miss"}
        # wal.append nests under the fold via the begin/finish stack.
        by_id = {s["span"]: s for s in spans}
        wal = next(s for s in spans if s["name"] == "wal.append")
        assert by_id[wal["parent"]]["name"] == "rollup.fold"
        # The recorder never leaks an active context past the run.
        assert obs.trace_recorder.active is None

    def test_untraced_run_records_no_trace_spans(self, study):
        obs = Observability()
        engine = StreamEngine(
            IterableSource(study.samples, timestamps=study.timestamps),
            geodb=study.world.geo,
            obs=obs,
        )
        engine.run()
        assert obs.trace_recorder.stats()["spans"] == 0

    def test_stream_item_trace_does_not_affect_equality(self, study):
        sample = study.samples[0]
        plain = StreamItem(sample=sample, ts=1.0)
        traced = StreamItem(sample=sample, ts=1.0, trace=_ctx())
        assert plain == traced


# ----------------------------------------------------------------------
# Serve round trip: the acceptance test
# ----------------------------------------------------------------------
class RunningService:
    def __init__(self, service):
        self.service = service
        self.thread = threading.Thread(target=service.run, daemon=True)

    def __enter__(self):
        self.thread.start()
        assert self.service.ready.wait(15), "service never became ready"
        return self.service

    def __exit__(self, exc_type, exc, tb):
        if self.thread.is_alive():
            self.service.request_shutdown_threadsafe()
        self.thread.join(timeout=30)
        assert not self.thread.is_alive(), "service failed to drain"


def _wait_folded(client, n, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            payload = client._json("GET", "/readyz")
        except ServeError:
            time.sleep(0.02)
            continue
        if payload.get("folded", -1) >= n and payload.get("queued") == 0:
            return
        time.sleep(0.02)
    raise AssertionError(f"server never folded {n} records")


class TestServeTracing:
    def test_sampled_post_yields_one_connected_span_tree(
        self, tmp_path, study, capsys
    ):
        obs_dir = str(tmp_path / "obs")
        service = ServeService(
            str(tmp_path / "store"),
            config=ServeConfig(port=0, batch_max_delay_seconds=0.005),
            geodb=study.geo,
            obs_dir=obs_dir,
        )
        n = 40
        with RunningService(service):
            client = ServeClient(port=service.port, trace_sample_n=1)
            client.post_samples(study.samples[:n],
                                timestamps=study.timestamps)
            ctx = client.last_trace
            assert ctx is not None and ctx.sampled
            _wait_folded(client, n)
            metrics_text = client.metrics_text()
            client.close()

        spans = [s for s in service.obs.trace_recorder.spans()
                 if s["trace"] == ctx.trace_id]
        assert spans, "the sampled POST left no spans"

        # One trace id, every parent link resolves, no orphans: the
        # only unrecorded parent is the client's root span id.
        by_id = {s["span"]: s for s in spans}
        roots = [s for s in spans if s["parent"] not in by_id]
        assert len(roots) == 1
        request = roots[0]
        assert request["name"] == "serve.http.samples"
        assert request["parent"] == ctx.span_id
        assert request["attrs"]["status"] == 202

        names = {s["name"] for s in spans}
        assert {"serve.http.samples", "batcher.enqueue",
                "batcher.queue_wait", "rollup.fold",
                "wal.append"} <= names
        assert names & {"classify.hit", "classify.miss", "classify"}

        # The whole tree hangs together under the request span.
        trees = build_trees(spans)
        assert list(trees) == [ctx.trace_id]
        assert len(trees[ctx.trace_id]) == 1
        walked = sum(1 for _ in trees[ctx.trace_id][0].walk())
        assert walked == len(spans)

        # The trace id surfaces as an exemplar on /metrics.
        assert f'trace_id="{ctx.trace_id}"' in metrics_text

        # ... and `repro trace` reconstructs the critical path from the
        # drain's export.
        assert main(["trace", obs_dir, "--trace", ctx.trace_id]) == 0
        out = capsys.readouterr().out
        assert ctx.trace_id in out
        assert "critical path:" in out
        assert "serve.http.samples" in out
        data = json.loads(
            (main(["trace", obs_dir, "--json"]), capsys.readouterr().out)[1]
        )
        assert data["n_traces"] >= 1
        assert any(t["trace_id"] == ctx.trace_id for t in data["traces"])

    def test_client_traceparent_is_echoed_and_unsampled_is_untraced(
        self, tmp_path, study
    ):
        service = ServeService(
            str(tmp_path / "store"),
            config=ServeConfig(port=0, trace_sample_n=0),
            geodb=study.geo,
        )
        with RunningService(service):
            client = ServeClient(port=service.port)
            unsampled = TraceContext(mint_trace_id(), mint_span_id(),
                                     sampled=False)
            status, headers, _ = client._request(
                "POST", "/v1/samples", body=b"[]",
                headers={"Content-Type": "application/json",
                         "traceparent": unsampled.to_traceparent()},
            )
            assert status == 202
            # Echoed untouched: the caller said "don't sample".
            assert headers.get("traceparent") == unsampled.to_traceparent()

            sampled = TraceContext(mint_trace_id(), mint_span_id())
            status, headers, _ = client._request(
                "POST", "/v1/samples", body=b"[]",
                headers={"Content-Type": "application/json",
                         "traceparent": sampled.to_traceparent()},
            )
            assert status == 202
            echoed = parse_traceparent(headers.get("traceparent"))
            assert echoed.trace_id == sampled.trace_id
            assert echoed.span_id != sampled.span_id  # server request span
            client.close()

        spans = service.obs.trace_recorder.spans()
        traces = {s["trace"] for s in spans}
        assert unsampled.trace_id not in traces
        assert sampled.trace_id in traces

    def test_rejections_are_pinned_with_request_context(
        self, tmp_path, study
    ):
        service = ServeService(
            str(tmp_path / "store"),
            config=ServeConfig(
                port=0,
                trace_sample_n=0,  # only the rejection mint traces here
                rate_records_per_second=1e6,
                rate_burst_records=8,
            ),
            geodb=study.geo,
        )
        with RunningService(service):
            client = ServeClient(port=service.port)
            status, headers, payload = client._request(
                "POST", "/v1/samples",
                body=json.dumps(
                    [s.to_dict() for s in study.samples[:9]]
                ).encode(),
                headers={"Content-Type": "application/json"},
            )
            assert status == 429
            body = json.loads(payload)
            assert body["request_id"] == headers["x-request-id"]
            client.close()

        spans = service.obs.trace_recorder.spans()
        rejected = [s for s in spans if s.get("pinned") == "http.429"]
        assert rejected, "429 was not captured as a pinned trace"
        assert rejected[0]["attrs"]["status"] == 429
        events = service.obs.tracer.events("serve.rejected")
        assert events and events[0]["attrs"]["status"] == 429
        assert events[0]["attrs"]["request_id"]

    def test_server_head_sampling_mints_without_client_header(
        self, tmp_path, study
    ):
        service = ServeService(
            str(tmp_path / "store"),
            config=ServeConfig(port=0, trace_sample_n=1,
                               batch_max_delay_seconds=0.005),
            geodb=study.geo,
        )
        with RunningService(service):
            client = ServeClient(port=service.port)  # no traceparent sent
            client.post_samples(study.samples[:5],
                                timestamps=study.timestamps)
            _wait_folded(client, 5)
            client.close()
        stats = service.obs.trace_recorder.stats()
        assert stats["traces"] >= 1
        assert stats["spans"] > 0


class TestTraceCli:
    def test_trace_errors_without_trace_spans(self, tmp_path, capsys):
        export = str(tmp_path / "obs")
        obs = Observability()
        obs.timer("classify").record(0.001)
        obs.export(export)
        assert main(["trace", export]) == 1
        assert "no trace spans" in capsys.readouterr().err

    def test_trace_filter_miss_errors(self, tmp_path, study, capsys):
        export = str(tmp_path / "obs")
        obs = Observability()
        engine = StreamEngine(
            IterableSource(study.samples[:64],
                           timestamps=study.timestamps),
            geodb=study.world.geo, obs=obs, trace_sample_n=8,
        )
        engine.run()
        obs.export(export)
        assert main(["trace", export, "--trace", "feedfacefeedface"]) == 1
        capsys.readouterr()
        assert main(["trace", export, "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "per-stage self time" in out
