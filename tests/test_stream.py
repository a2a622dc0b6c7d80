"""Tests for :mod:`repro.stream`: sources, rollups, checkpoint/resume,
push mode, and live anomaly detection.

The two load-bearing guarantees:

* **Batch parity** -- for a fixed seed, streaming end-to-end rollups are
  *identical* (exact floats, not approx) to ``classify_all`` +
  ``AnalysisDataset`` on the same world.
* **Kill safety** -- a stream stopped mid-run resumes from its
  checkpoint and converges to the same final rollup with no lost or
  duplicated connections.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.cdn.collector import write_samples_jsonl
from repro.core.aggregate import AnalysisDataset
from repro.core.classifier import TamperingClassifier
from repro.errors import CheckpointError, StreamError
from repro.stream import (
    AnomalyConfig,
    BoundedBuffer,
    CheckpointManager,
    EwmaDetector,
    IterableSource,
    JsonlDirectorySource,
    JsonlSource,
    StreamEngine,
    StreamItem,
    StreamRollup,
)
from repro.stream.faults import _rollup_fingerprint
from repro.workloads.profiles import profile_for
from repro.workloads.scenarios import (
    iran_protest_study,
    two_week_stream_source,
    two_week_study,
)
from repro.workloads.world import World


@pytest.fixture(scope="module")
def study():
    return two_week_study(n_connections=500, seed=7)


@pytest.fixture(scope="module")
def batch_dataset(study):
    return study.analyze()


def make_source(study):
    return IterableSource(study.samples, timestamps=study.timestamps)


# ----------------------------------------------------------------------
# Sources
# ----------------------------------------------------------------------
class TestSources:
    def test_iterable_source_cursor_roundtrip(self, study):
        source = make_source(study)
        items = list(source)
        assert len(items) == len(study.samples)
        assert source.cursor() == len(study.samples)

        source2 = make_source(study)
        source2.seek(100)
        rest = list(source2)
        assert [i.sample.conn_id for i in rest] == [
            i.sample.conn_id for i in items[100:]
        ]

    def test_iterable_source_uses_timestamps(self, study):
        source = make_source(study)
        item = next(iter(source))
        assert item.ts == study.timestamps[item.sample.conn_id]

    def test_jsonl_source(self, study, tmp_path):
        path = str(tmp_path / "s.jsonl")
        write_samples_jsonl(path, study.samples[:50])
        source = JsonlSource(path)
        items = list(source)
        assert [i.sample.conn_id for i in items] == [
            s.conn_id for s in study.samples[:50]
        ]
        assert source.cursor() == 50

        source.seek(30)
        assert [i.sample.conn_id for i in source] == [
            s.conn_id for s in study.samples[30:50]
        ]

    def test_jsonl_source_missing_file(self, tmp_path):
        with pytest.raises(StreamError):
            JsonlSource(str(tmp_path / "nope.jsonl"))

    def test_jsonl_directory_source(self, study, tmp_path):
        write_samples_jsonl(str(tmp_path / "cap-000.jsonl"), study.samples[:20])
        write_samples_jsonl(str(tmp_path / "cap-001.jsonl"), study.samples[20:45])
        source = JsonlDirectorySource(str(tmp_path))
        ids = [i.sample.conn_id for i in source]
        assert ids == [s.conn_id for s in study.samples[:45]]

        # resume from the middle of the second file
        source2 = JsonlDirectorySource(str(tmp_path))
        source2.seek(["cap-001.jsonl", 10])
        ids2 = [i.sample.conn_id for i in source2]
        assert ids2 == [s.conn_id for s in study.samples[30:45]]

    def test_simulator_source_matches_batch_run(self):
        source = two_week_stream_source(n_connections=60, seed=21)
        streamed = list(source)
        batch = two_week_study(n_connections=60, seed=21)
        assert [i.sample.conn_id for i in streamed] == [
            s.conn_id for s in batch.samples
        ]
        assert [i.ts for i in streamed] == [
            batch.timestamps[s.conn_id] for s in batch.samples
        ]
        # cursor counts specs, including unobservable connections
        assert source.cursor() == 60

    def test_simulator_source_seek_resumes_identically(self):
        source = two_week_stream_source(n_connections=60, seed=21)
        full = list(source)
        cut = 25
        # consume 'cut' items, note the cursor, re-create and seek
        source2 = two_week_stream_source(n_connections=60, seed=21)
        iterator = iter(source2)
        head = [next(iterator) for _ in range(cut)]
        cursor = source2.cursor()
        source3 = two_week_stream_source(n_connections=60, seed=21)
        source3.seek(cursor)
        tail = list(source3)
        assert [i.sample.conn_id for i in head + tail] == [
            i.sample.conn_id for i in full
        ]

    def test_bounded_buffer_backpressure(self):
        buffer = BoundedBuffer(capacity=2)
        assert buffer.push(1) and buffer.push(2)
        assert not buffer.push(3)  # full: rejected, not grown
        assert buffer.rejected == 1
        assert len(buffer) == 2
        assert buffer.pop() == 1
        assert buffer.push(3)
        assert buffer.drain() == [2, 3]
        with pytest.raises(StreamError):
            buffer.pop()
        with pytest.raises(StreamError):
            BoundedBuffer(0)


# ----------------------------------------------------------------------
# Rollup parity with the batch pipeline
# ----------------------------------------------------------------------
class TestRollupParity:
    @pytest.fixture(scope="class")
    def report(self, study):
        engine = StreamEngine(make_source(study), geodb=study.geo)
        return engine.run()

    def test_country_tampering_rate_identical(self, report, batch_dataset):
        assert (
            report.rollup.country_tampering_rate()
            == batch_dataset.country_tampering_rate()
        )

    def test_country_signature_shares_identical(self, report, batch_dataset):
        assert (
            report.rollup.country_signature_shares()
            == batch_dataset.country_signature_shares()
        )

    def test_timeseries_identical(self, report, batch_dataset):
        assert report.rollup.timeseries() == batch_dataset.timeseries(
            bucket_seconds=3600.0
        )

    def test_stage_statistics_identical(self, report, batch_dataset):
        assert report.rollup.stage_statistics() == batch_dataset.stage_statistics()

    def test_nothing_lost(self, report, study):
        assert report.rollup.n_records == len(study.samples)
        assert report.finished

    def test_rollup_serialization_roundtrip(self, report):
        data = json.loads(json.dumps(report.rollup.to_dict()))
        restored = StreamRollup.from_dict(data)
        assert restored.to_dict() == report.rollup.to_dict()
        assert (
            restored.country_tampering_rate()
            == report.rollup.country_tampering_rate()
        )

    def test_signature_hour_counts(self, report):
        for country in report.rollup.countries:
            for sig, series in report.rollup.signature_hour_counts(country).items():
                assert sig.is_tampering
                assert all(n > 0 for _, n in series)
                assert series == sorted(series)


class TestStoreRollupParity(TestRollupParity):
    """The same batch oracle, against the rollup a store materialises."""

    @pytest.fixture(scope="class")
    def report(self, study, tmp_path_factory):
        engine = StreamEngine(
            make_source(study), geodb=study.geo,
            store_dir=str(tmp_path_factory.mktemp("parity-store")),
        )
        report = engine.run()
        engine.store.close()
        return report


# ----------------------------------------------------------------------
# Checkpoint / kill / resume
# ----------------------------------------------------------------------
class TestCheckpointResume:
    def test_kill_and_resume_yields_identical_rollups(self, study, tmp_path):
        ck = str(tmp_path / "ck.json")
        baseline = StreamEngine(
            make_source(study), geodb=study.geo
        ).run()

        # "kill" mid-run: stop after 230 samples (checkpoint every 50,
        # so the last checkpoint is at 200 -- resume must redo 201-230
        # against the checkpointed state, not double-count them)
        engine1 = StreamEngine(
            make_source(study), geodb=study.geo,
            checkpoint_path=ck, checkpoint_interval=50,
        )
        partial = engine1.run(max_samples=230)
        assert not partial.finished
        assert os.path.exists(ck)

        engine2 = StreamEngine(
            make_source(study), geodb=study.geo,
            checkpoint_path=ck, checkpoint_interval=50,
        )
        resumed = engine2.run(resume=True)
        assert resumed.finished
        assert resumed.rollup.n_records == len(study.samples)
        assert resumed.rollup.to_dict() == baseline.rollup.to_dict()
        assert [e.to_dict() for e in resumed.events] == [
            e.to_dict() for e in baseline.events
        ]

    def test_resume_from_simulator_source(self, tmp_path):
        ck = str(tmp_path / "ck.json")
        source = two_week_stream_source(n_connections=80, seed=21)
        baseline = StreamEngine(source, geodb=source.world.geo).run()

        source1 = two_week_stream_source(n_connections=80, seed=21)
        StreamEngine(
            source1, geodb=source1.world.geo,
            checkpoint_path=ck, checkpoint_interval=20,
        ).run(max_samples=35)
        source2 = two_week_stream_source(n_connections=80, seed=21)
        resumed = StreamEngine(
            source2, geodb=source2.world.geo,
            checkpoint_path=ck, checkpoint_interval=20,
        ).run(resume=True)
        assert resumed.rollup.to_dict() == baseline.rollup.to_dict()

    def test_checkpoint_atomic_and_versioned(self, tmp_path):
        path = str(tmp_path / "ck.json")
        manager = CheckpointManager(path, interval=10)
        assert manager.load() is None
        manager.save({"cursor": 5}, samples_done=10)
        payload = manager.load()
        assert payload["cursor"] == 5 and payload["samples_done"] == 10
        assert not manager.due(15)
        assert manager.due(20)

        with open(path, "w") as fh:
            fh.write("{\"version\": 999}")
        with pytest.raises(CheckpointError):
            manager.load()
        with open(path, "w") as fh:
            fh.write("not json")
        with pytest.raises(CheckpointError):
            manager.load()

    def test_resume_without_checkpoint_path_raises(self, study):
        engine = StreamEngine(make_source(study), geodb=study.geo)
        with pytest.raises(StreamError):
            engine.run(resume=True)


# ----------------------------------------------------------------------
# Anomaly detection
# ----------------------------------------------------------------------
class TestAnomalyDetection:
    def test_detector_fires_on_step_change(self):
        detector = EwmaDetector(AnomalyConfig(min_windows=6))
        events = []
        for window in range(60):
            rate = 10.0 if window < 40 else 35.0
            events += detector.observe("XX", float(window), rate, total=100)
        starts = [e for e in events if e.kind == "start"]
        assert len(starts) == 1
        assert starts[0].window_start >= 40.0
        assert detector.is_active("XX")
        assert detector.active_countries == ["XX"]

    def test_detector_quiet_on_noise(self):
        import random

        rng = random.Random(5)
        detector = EwmaDetector()
        for window in range(300):
            rate = max(0.0, rng.gauss(10.0, 2.0))
            detector.observe("XX", float(window), rate, total=200)
        assert detector.events == []

    def test_detector_skips_thin_windows(self):
        detector = EwmaDetector(AnomalyConfig(min_window_total=5))
        assert detector.observe("XX", 0.0, 100.0, total=2) == []
        assert detector.baseline("XX") is None

    def test_detector_hysteresis_closes_incident(self):
        detector = EwmaDetector(AnomalyConfig(min_windows=6))
        events = []
        rates = [10.0] * 30 + [40.0] * 10 + [10.0] * 20
        for window, rate in enumerate(rates):
            events += detector.observe("XX", float(window), rate, total=100)
        kinds = [e.kind for e in events]
        assert kinds == ["start", "end"]
        assert not detector.is_active("XX")

    def test_detector_state_roundtrip(self):
        detector = EwmaDetector(AnomalyConfig(min_windows=6))
        for window in range(50):
            rate = 10.0 if window < 40 else 40.0
            detector.observe("XX", float(window), rate, total=100)
        restored = EwmaDetector.from_dict(
            json.loads(json.dumps(detector.to_dict()))
        )
        assert restored.is_active("XX") == detector.is_active("XX")
        assert restored.baseline("XX") == detector.baseline("XX")
        assert [e.to_dict() for e in restored.events] == [
            e.to_dict() for e in detector.events
        ]

    def test_invalid_configs_rejected(self):
        with pytest.raises(StreamError):
            AnomalyConfig(alpha=0.0)
        with pytest.raises(StreamError):
            AnomalyConfig(cusum_enter=1.0, cusum_exit=2.0)
        with pytest.raises(StreamError):
            AnomalyConfig(min_window_total=0)
        with pytest.raises(StreamError):
            AnomalyConfig(drift=-0.1)
        with pytest.raises(StreamError):
            AnomalyConfig(sigma_floor=0.0)
        with pytest.raises(StreamError):
            AnomalyConfig(sigma_floor=-1.0)

    def test_incident_closes_during_sparse_traffic(self):
        # Regression: thin windows used to return without touching the
        # CUSUM statistic, so an incident opened just before a traffic
        # lull (the post-blackout shape of the Iran case study) latched
        # active forever.  Thin windows must decay the statistic and
        # eventually emit the "end" event.
        config = AnomalyConfig(min_windows=6)
        detector = EwmaDetector(config)
        events = []
        rates = [10.0] * 30 + [40.0] * 10
        for window, rate in enumerate(rates):
            events += detector.observe("XX", float(window), rate, total=100)
        assert [e.kind for e in events] == ["start"]
        assert detector.is_active("XX")
        baseline_before = detector.baseline("XX")

        # Starve the country: every window is below min_window_total.
        for window in range(len(rates), len(rates) + 40):
            events += detector.observe("XX", float(window), 0.0, total=1)
        kinds = [e.kind for e in events]
        assert kinds == ["start", "end"]
        assert not detector.is_active("XX")
        # Thin windows carry no rate information: the frozen baseline
        # must not have been dragged toward the (meaningless) thin rates.
        assert detector.baseline("XX") == baseline_before

    def test_thin_windows_decay_within_cap_bound(self):
        # The cap bounds the statistic, so the incident must close
        # within ceil((cusum_cap - cusum_exit) / drift) thin windows.
        config = AnomalyConfig(min_windows=6)
        detector = EwmaDetector(config)
        for window in range(40):
            rate = 10.0 if window < 30 else 40.0
            detector.observe("XX", float(window), rate, total=100)
        assert detector.is_active("XX")
        import math as _math

        bound = _math.ceil((config.cusum_cap - config.cusum_exit) / config.drift)
        closed_after = None
        for i in range(bound + 1):
            if detector.observe("XX", 40.0 + i, 0.0, total=1):
                closed_after = i + 1
                break
        assert closed_after is not None and closed_after <= bound

    def test_thin_windows_before_baseline_are_noops(self):
        detector = EwmaDetector(AnomalyConfig(min_window_total=5))
        # No state yet: a thin window must not create one.
        assert detector.observe("XX", 0.0, 100.0, total=2) == []
        assert "XX" not in detector._states

    def test_state_roundtrip_mid_incident_is_byte_for_byte(self):
        # Checkpoint/restore while an incident is open: active flag,
        # frozen baseline, and event history must survive exactly.
        detector = EwmaDetector(AnomalyConfig(min_windows=6))
        for window in range(45):
            rate = 10.0 if window < 40 else 40.0
            detector.observe("XX", float(window), rate, total=100)
        detector.observe("YY", 0.0, 5.0, total=50)  # second country, no incident
        assert detector.is_active("XX")

        payload = json.dumps(detector.to_dict(), sort_keys=True)
        restored = EwmaDetector.from_dict(json.loads(payload))
        assert json.dumps(restored.to_dict(), sort_keys=True) == payload
        assert restored.is_active("XX")
        assert restored.baseline("XX") == detector.baseline("XX")
        assert restored._states["XX"] == detector._states["XX"]
        assert [e.to_dict() for e in restored.events] == [
            e.to_dict() for e in detector.events
        ]
        # The restored detector keeps behaving identically.
        for window in range(45, 60):
            expected = detector.observe("XX", float(window), 10.0, total=100)
            got = restored.observe("XX", float(window), 10.0, total=100)
            assert [e.to_dict() for e in got] == [e.to_dict() for e in expected]


@pytest.mark.slow
class TestAnomalyScenarios:
    def test_fires_on_iran_protests_and_quiet_on_us_baseline(self):
        # 6000 connections keeps IR's hourly windows above the
        # detector's min_window_total population guard.
        iran = iran_protest_study(n_connections=6000, seed=13)
        engine = StreamEngine(
            IterableSource(iran.samples, timestamps=iran.timestamps),
            geodb=iran.geo,
        )
        report = engine.run()
        ir_starts = [
            e for e in report.events if e.country == "IR" and e.kind == "start"
        ]
        assert ir_starts, "escalation in IR must raise an anomaly"
        protest_start = 1663027200.0
        days_in = (ir_starts[0].window_start - protest_start) / 86400.0
        # escalation ramps over days 0.5-3.5; detection should be live,
        # not a post-hoc artifact at the end of the window
        assert 0.5 <= days_in <= 6.0
        assert all(e.country != "DE" for e in report.events)

        # same engine configuration over a US-only baseline: no alerts
        us_world = World(
            profiles=[profile_for("US"), profile_for("DE")], seed=7, n_domains=800
        )
        us_study = two_week_study(n_connections=2500, seed=7, world=us_world)
        quiet = StreamEngine(
            IterableSource(us_study.samples, timestamps=us_study.timestamps),
            geodb=us_study.geo,
        ).run()
        assert [e for e in quiet.events if e.country == "US"] == []


# ----------------------------------------------------------------------
# Engine odds and ends
# ----------------------------------------------------------------------
class TestEngine:
    def test_metrics_snapshot(self, study):
        engine = StreamEngine(make_source(study), geodb=study.geo)
        report = engine.run(max_samples=100)
        snap = report.metrics
        assert snap["samples_in"] == 100
        assert snap["records_out"] == 100
        assert snap["samples_per_second"] > 0
        assert "throughput" in engine.metrics.render()

    def test_report_render(self, study):
        report = StreamEngine(
            make_source(study), geodb=study.geo
        ).run()
        text = report.render()
        assert "top tampered countries" in text
        assert "anomalies" in text

    def test_without_geodb_all_unattributed(self, study):
        report = StreamEngine(make_source(study)).run(max_samples=50)
        assert report.rollup.countries == ["??"]

    def test_ripe_windows_close_once_at_boundaries(self, study, tmp_path):
        engine = StreamEngine(
            None, bucket_seconds=3600.0,
            store_dir=str(tmp_path / "store"),
        )
        observed = []
        observe = engine.detector.observe

        def spy(country, bucket, rate, total):
            observed.append((bucket, total))
            return observe(country, bucket, rate, total)

        engine.detector.observe = spy
        engine.open_push()
        samples = iter(study.samples)

        def push(*stamps):
            engine.push_items([StreamItem(sample=next(samples), ts=t) for t in stamps])

        push(100.0, 200.0)
        assert observed == []
        push(3700.0)  # horizon 100 reaches bucket 0
        assert observed == [(0.0, 2)]
        assert engine.store.stats()["open_buckets"] == 1  # bucket 0 sealed
        push(3800.0)
        assert observed == [(0.0, 2)]
        push(150.0)  # late: bucket 0 closed; neither store nor detector counts it
        assert observed == [(0.0, 2)]
        assert engine.store.sealed_skips == 1
        engine.drain()
        assert observed == [(0.0, 2), (3600.0, 2)]


class _CrashAfter:
    """Delegating source that raises after N items, like a crash that
    leaves the last periodic checkpoint as the only durable one."""

    def __init__(self, inner, after):
        self.inner = inner
        self.after = after

    def __iter__(self):
        for count, item in enumerate(self.inner, 1):
            if count > self.after:
                raise RuntimeError("simulated crash")
            yield item

    def cursor(self):
        return self.inner.cursor()

    def seek(self, cursor):
        self.inner.seek(cursor)

    def close(self):
        self.inner.close()


class TestDetectorWindows:
    """Each (country, window) reaches the detector exactly once."""

    @pytest.fixture(scope="class")
    def by_verdict(self, study):
        classifier = TamperingClassifier()
        tampered, clean = [], []
        for sample in study.samples:
            is_tampering = classifier.classify(sample).signature.is_tampering
            (tampered if is_tampering else clean).append(sample)
        return tampered, clean

    @pytest.mark.parametrize("with_store", [False, True], ids=["memory", "store"])
    def test_late_record_leaves_an_active_incident_alone(
        self, by_verdict, tmp_path, with_store
    ):
        tampered, clean = iter(by_verdict[0]), iter(by_verdict[1])
        engine = StreamEngine(
            None,
            anomaly_config=AnomalyConfig(min_windows=3),
            store_dir=str(tmp_path / "store") if with_store else None,
        )
        engine.open_push()

        def hour(index, pool, n=6):
            return [
                StreamItem(sample=next(pool), ts=index * 3600.0 + 60.0 * k)
                for k in range(n)
            ]

        for index in range(4):  # a clean baseline
            engine.push_items(hour(index, clean))
        engine.push_items(hour(4, tampered))  # the spike
        engine.push_items(hour(5, clean, n=1))  # closes the spike window
        assert engine.detector.active_countries == ["??"]
        before = json.dumps(engine.detector.to_dict())
        events = [e.to_dict() for e in engine.detector.events]

        # A straggler for the closed first window, then one for the
        # closed spike window: neither may touch the detector.
        engine.push_items([StreamItem(sample=next(clean), ts=100.0)])
        engine.push_items([StreamItem(sample=next(tampered), ts=4 * 3600.0 + 5.0)])
        assert json.dumps(engine.detector.to_dict()) == before
        assert [e.to_dict() for e in engine.detector.events] == events
        if with_store:
            assert engine.store.sealed_skips == 2
        engine.drain(seal=False)

    @pytest.mark.parametrize("with_store", [False, True], ids=["memory", "store"])
    def test_restart_after_a_sealed_drain_feeds_no_window_twice(
        self, study, tmp_path, with_store
    ):
        # A sealed drain closes every window, including those above the
        # horizon; the restarted session must not feed them again.
        bucket = 4 * 3600.0
        items = sorted(
            (
                StreamItem(sample=s, ts=study.timestamps[s.conn_id])
                for s in study.samples
            ),
            key=lambda item: item.ts,
        )
        cut = next(
            k for k in range(len(items) // 2, len(items))
            if items[k].ts // bucket != items[k - 1].ts // bucket
        )

        def engine(name, **kwargs):
            return StreamEngine(
                None, geodb=study.geo, bucket_seconds=bucket,
                anomaly_config=AnomalyConfig(min_window_total=1),
                store_dir=str(tmp_path / name) if with_store else None,
                **kwargs,
            )

        whole = engine("whole")
        whole.open_push()
        whole.push_items(items)
        whole.drain()

        ck = str(tmp_path / "ck.json")
        first = engine("restarted", checkpoint_path=ck)
        first.open_push()
        first.push_items(items[:cut])
        first.drain(seal=True)
        if with_store:
            first.store.close()
        second = engine("restarted", checkpoint_path=ck)
        second.open_push(resume=True)
        second.push_items(items[cut:])
        second.drain()
        assert second.detector.to_dict() == whole.detector.to_dict()

    def test_resume_after_seals_keeps_every_window(self, study, tmp_path):
        # Four-hour windows, every one scored: each window the resume
        # could miss moves some country's baseline.
        config = dict(
            geodb=study.geo,
            bucket_seconds=4 * 3600.0,
            anomaly_config=AnomalyConfig(min_window_total=1),
        )
        clean = StreamEngine(make_source(study), **config)
        clean_report = clean.run()

        ck = str(tmp_path / "ck.json")
        store_dir = str(tmp_path / "store")
        crashed = StreamEngine(
            _CrashAfter(make_source(study), after=370),
            checkpoint_path=ck, checkpoint_interval=100,
            store_dir=store_dir, **config,
        )
        with pytest.raises(RuntimeError, match="simulated crash"):
            crashed.run()
        crashed.store.close()  # the WAL is flushed; the checkpoint is at 300
        checkpoint = CheckpointManager(ck).load()
        assert checkpoint["samples_done"] == 300
        assert crashed.store.manifest.generation > checkpoint["store"]["generation"]

        resumed = StreamEngine(
            make_source(study),
            checkpoint_path=ck, checkpoint_interval=100,
            store_dir=store_dir, **config,
        )
        report = resumed.run(resume=True)
        resumed.store.close()
        assert report.metrics["store"]["sealed_skips"] > 0
        assert _rollup_fingerprint(report.rollup) == _rollup_fingerprint(
            clean_report.rollup
        )
        assert resumed.detector.to_dict() == clean.detector.to_dict()
        assert [e.to_dict() for e in report.events] == [
            e.to_dict() for e in clean_report.events
        ]


# ----------------------------------------------------------------------
# Cooperative stop (request_stop / SIGTERM) and push mode
# ----------------------------------------------------------------------
class _StopTriggerSource:
    """Delegating source that requests an engine stop after N yields."""

    def __init__(self, inner, after):
        self.inner = inner
        self.after = after
        self.engine = None
        self.count = 0

    def __iter__(self):
        for item in self.inner:
            self.count += 1
            if self.count == self.after and self.engine is not None:
                self.engine.request_stop()
            yield item

    def cursor(self):
        return self.inner.cursor()

    def seek(self, cursor):
        self.inner.seek(cursor)

    def close(self):
        self.inner.close()


class TestCooperativeStop:
    def test_request_stop_checkpoints_and_resumes_identically(
        self, study, tmp_path
    ):
        ck = str(tmp_path / "ck.json")
        baseline = StreamEngine(
            make_source(study), geodb=study.geo
        ).run()

        source = _StopTriggerSource(make_source(study), after=217)
        engine1 = StreamEngine(
            source, geodb=study.geo,
            checkpoint_path=ck, checkpoint_interval=50,
        )
        source.engine = engine1
        partial = engine1.run()
        assert not partial.finished
        assert partial.samples_processed == 217
        assert os.path.exists(ck)

        resumed = StreamEngine(
            make_source(study), geodb=study.geo,
            checkpoint_path=ck, checkpoint_interval=50,
        ).run(resume=True)
        assert resumed.finished
        assert resumed.rollup.to_dict() == baseline.rollup.to_dict()
        assert [e.to_dict() for e in resumed.events] == [
            e.to_dict() for e in baseline.events
        ]

    def test_request_stop_with_store_resumes_identically(self, study, tmp_path):
        offline = StreamEngine(
            make_source(study), geodb=study.geo,
            store_dir=str(tmp_path / "offline"),
        ).run()

        ck = str(tmp_path / "ck.json")
        store_dir = str(tmp_path / "stopped")
        source = _StopTriggerSource(make_source(study), after=301)
        engine1 = StreamEngine(
            source, geodb=study.geo,
            checkpoint_path=ck, checkpoint_interval=50,
            store_dir=store_dir,
        )
        source.engine = engine1
        partial = engine1.run()
        assert not partial.finished
        engine1.store.close()

        engine2 = StreamEngine(
            make_source(study), geodb=study.geo,
            checkpoint_path=ck, checkpoint_interval=50,
            store_dir=store_dir,
        )
        resumed = engine2.run(resume=True)
        assert resumed.finished
        assert resumed.rollup.to_dict() == offline.rollup.to_dict()
        engine2.store.close()

    def test_stop_before_any_checkpoint_leaves_no_checkpoint(
        self, study, tmp_path
    ):
        ck = str(tmp_path / "ck.json")
        source = _StopTriggerSource(make_source(study), after=3)
        engine = StreamEngine(
            source, geodb=study.geo,
            checkpoint_path=ck, checkpoint_interval=50,
        )
        source.engine = engine
        partial = engine.run()
        assert not partial.finished
        # Stopped after 3 records: the due-interval never fired, but the
        # stop path writes a final resumable checkpoint anyway.
        assert os.path.exists(ck)
        resumed = StreamEngine(
            make_source(study), geodb=study.geo,
            checkpoint_path=ck, checkpoint_interval=50,
        ).run(resume=True)
        assert resumed.rollup.n_records == len(study.samples)


def store_files(directory):
    """Segment files and MANIFEST.json of a store: relative path -> bytes."""
    files = {}
    for dirpath, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, directory)
            if rel == "MANIFEST.json" or rel.startswith("segments" + os.sep):
                with open(path, "rb") as fh:
                    files[rel] = fh.read()
    return files


class TestPushMode:
    def _items(self, study):
        return [
            StreamItem(sample=s, ts=study.timestamps.get(s.conn_id))
            for s in study.samples
        ]

    def test_push_store_bytes_match_pull(self, study, tmp_path):
        pulled_dir = str(tmp_path / "pulled")
        StreamEngine(make_source(study), geodb=study.geo, store_dir=pulled_dir).run()

        pushed_dir = str(tmp_path / "pushed")
        engine = StreamEngine(None, geodb=study.geo, store_dir=pushed_dir)
        engine.open_push()
        items = self._items(study)
        for start in range(0, len(items), 97):
            engine.push_items(items[start:start + 97])
        engine.drain()
        engine.store.close()
        pulled = store_files(pulled_dir)
        assert "MANIFEST.json" in pulled and len(pulled) > 1
        assert store_files(pushed_dir) == pulled

    def test_push_matches_pull_exactly(self, study, tmp_path):
        baseline = StreamEngine(
            make_source(study), geodb=study.geo
        ).run()

        engine = StreamEngine(None, geodb=study.geo)
        engine.open_push()
        items = self._items(study)
        total = 0
        for start in range(0, len(items), 97):  # uneven batches
            total += engine.push_items(items[start:start + 97])
        report = engine.drain()
        assert total == len(items)
        assert report.finished
        assert report.rollup.to_dict() == baseline.rollup.to_dict()
        assert [e.to_dict() for e in report.events] == [
            e.to_dict() for e in baseline.events
        ]

    def test_push_store_pause_resume_parity(self, study, tmp_path):
        offline = StreamEngine(
            make_source(study), geodb=study.geo,
            store_dir=str(tmp_path / "offline"),
        ).run()

        ck = str(tmp_path / "ck.json")
        store_dir = str(tmp_path / "pushed")
        items = self._items(study)
        cut = len(items) // 2  # mid-bucket is fine: pause does not seal

        engine1 = StreamEngine(
            None, geodb=study.geo,
            checkpoint_path=ck, checkpoint_interval=100,
            store_dir=store_dir,
        )
        engine1.open_push()
        engine1.push_items(items[:cut])
        paused = engine1.drain(seal=False)
        assert not paused.finished
        engine1.store.close()

        engine2 = StreamEngine(
            None, geodb=study.geo,
            checkpoint_path=ck, checkpoint_interval=100,
            store_dir=store_dir,
        )
        engine2.open_push(resume=True)
        engine2.push_items(items[cut:])
        report = engine2.drain(seal=True)
        assert report.finished
        assert report.rollup.to_dict() == offline.rollup.to_dict()
        assert [e.to_dict() for e in report.events] == [
            e.to_dict() for e in offline.events
        ]
        engine2.store.close()
        assert store_files(store_dir) == store_files(str(tmp_path / "offline"))

    def test_periodic_push_checkpoint_cursor_counts_its_fold(self, study, tmp_path):
        # The push cursor is the fold count; a checkpoint written by the
        # fold of record 100 must say so, like the drain checkpoint does.
        ck = str(tmp_path / "ck.json")
        engine = StreamEngine(
            None, geodb=study.geo, checkpoint_path=ck, checkpoint_interval=100
        )
        engine.open_push()
        assert engine.push_items(self._items(study)[:120]) == 120
        periodic = CheckpointManager(ck).load()
        assert periodic["samples_done"] == 100
        assert periodic["cursor"] == 100
        engine.drain(seal=False)
        final = CheckpointManager(ck).load()
        assert final["samples_done"] == final["cursor"] == 120

    def test_push_mode_guards(self, study):
        with pytest.raises(StreamError, match="source-less"):
            StreamEngine(None).run()
        with pytest.raises(StreamError, match="source-less"):
            StreamEngine(make_source(study)).open_push()
        engine = StreamEngine(None)
        with pytest.raises(StreamError, match="push session"):
            engine.push_items([])
        with pytest.raises(StreamError, match="push session"):
            engine.drain()
        engine.open_push()
        with pytest.raises(StreamError, match="already open"):
            engine.open_push()
        with pytest.raises(StreamError, match="no checkpoint path"):
            engine.checkpoint_now()
        with pytest.raises(StreamError, match="no checkpoint path"):
            StreamEngine(None).open_push(resume=True)


@pytest.mark.chaos
class TestStreamSignals:
    def test_cli_sigterm_checkpoints_then_resume_parity(self, tmp_path):
        import signal
        import subprocess
        import time as _time

        study = two_week_study(n_connections=120, seed=31)
        samples_path = str(tmp_path / "samples.jsonl")
        write_samples_jsonl(samples_path, study.samples)
        n = len(study.samples)

        # Throttle the child with per-item stalls so the parent can
        # reliably signal it mid-run.
        plan_path = str(tmp_path / "faults.json")
        with open(plan_path, "w") as fh:
            json.dump({"faults": [
                {"index": i, "kind": "stall", "stall_seconds": 0.01}
                for i in range(n)
            ]}, fh)

        ck = str(tmp_path / "ck.json")
        store_dir = str(tmp_path / "store")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        cmd = [
            sys.executable, "-m", "repro", "stream", samples_path,
            "--checkpoint", ck, "--checkpoint-interval", "20",
            "--store", store_dir, "--fault-plan", plan_path,
        ]
        child = subprocess.Popen(
            cmd, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        deadline = _time.monotonic() + 30
        while not os.path.exists(ck):
            assert _time.monotonic() < deadline, "child never checkpointed"
            assert child.poll() is None, child.communicate()[1]
            _time.sleep(0.02)
        child.send_signal(signal.SIGTERM)
        out, err = child.communicate(timeout=30)
        assert child.returncode == 0, err
        assert "stopped by SIGTERM" in err
        assert "stream stopped" in out

        resume = subprocess.run(
            cmd + ["--resume"], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=60,
        )
        assert resume.returncode == 0, resume.stderr
        assert "stream finished" in resume.stdout

        from repro.store import RollupStore

        offline = StreamEngine(
            JsonlSource(samples_path),
            store_dir=str(tmp_path / "offline"),
        ).run()
        reader = RollupStore.open_read_only(store_dir)
        assert reader.to_rollup().to_dict() == offline.rollup.to_dict()
        reader.close()
