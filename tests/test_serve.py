"""Tests for :mod:`repro.serve`: the HTTP ingest/query tier.

The load-bearing assertion is the end-to-end parity gate: samples
ingested through ``POST /v1/samples`` -- including under concurrent
load with a 429 burst, and across a drain/restart -- must produce a
store whose queries are byte-for-byte identical to the same samples
run through the offline stream engine.  The unit classes pin down the
admission-control pieces (token buckets, the micro-batcher, the HTTP
parser) in isolation with injected clocks, so nothing sleeps.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import ServeError, StoreError
from repro.serve import (
    ClientRateLimiter,
    MicroBatcher,
    RetryLater,
    ServeClient,
    ServeConfig,
    ServeService,
)
from repro.serve.httpd import HttpProtocolError, _read_request
from repro.store import RollupStore, StoreQuery
from repro.stream import IterableSource, StreamEngine
from repro.workloads.scenarios import two_week_study

HOUR = 3600.0


@pytest.fixture(scope="module")
def study():
    return two_week_study(n_connections=300, seed=9)


def ordered(value):
    """Freeze dict key order into lists so ``==`` compares it too."""
    if isinstance(value, dict):
        return [[str(key), ordered(val)] for key, val in value.items()]
    if isinstance(value, (list, tuple)):
        return [ordered(item) for item in value]
    return value


def assert_store_parity(dir_a, dir_b):
    """All four query families byte-identical between two stores."""
    a = RollupStore.open_read_only(dir_a)
    b = RollupStore.open_read_only(dir_b)
    try:
        for family in ("country_tampering_rate", "timeseries",
                       "stage_statistics"):
            assert ordered(a.query(StoreQuery(family)).value) == ordered(
                b.query(StoreQuery(family)).value
            ), family
        for country in a.query(StoreQuery("country_tampering_rate")).value:
            fam = StoreQuery("signature_hour_counts", country=country)
            assert ordered(a.query(fam).value) == ordered(b.query(fam).value)
    finally:
        a.close()
        b.close()


def bucket_aligned_cut(study, minimum_fraction=0.5):
    """First index after ``minimum_fraction`` where the hour bucket turns."""
    ts = [study.timestamps.get(s.conn_id) for s in study.samples]
    floor = int(len(ts) * minimum_fraction)
    for i in range(max(1, floor), len(ts)):
        if ts[i] // HOUR != ts[i - 1] // HOUR:
            return i
    raise AssertionError("no bucket boundary in the back half of the study")


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# ----------------------------------------------------------------------
# Config
# ----------------------------------------------------------------------
class TestServeConfig:
    def test_defaults_validate(self):
        ServeConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        {"port": -1},
        {"port": 70000},
        {"batch_max_records": 0},
        {"batch_max_delay_seconds": -0.1},
        {"queue_max_records": 10, "batch_max_records": 20},
        {"rate_records_per_second": -1.0},
        {"rate_burst_records": 0},
        {"rate_max_clients": 0},
        {"max_body_bytes": 0},
    ])
    def test_bad_values_raise(self, kwargs):
        with pytest.raises(ServeError):
            ServeConfig(**kwargs).validate()


# ----------------------------------------------------------------------
# Token buckets
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        limiter = ClientRateLimiter(rate=2.0, burst=4.0, clock=clock)
        ok, wait = limiter.try_acquire("a", 4)
        assert ok and wait == 0.0
        ok, wait = limiter.try_acquire("a", 1)
        assert not ok and wait == pytest.approx(0.5)
        clock.advance(0.5)
        ok, _ = limiter.try_acquire("a", 1)
        assert ok

    def test_oversized_requests_get_finite_wait(self):
        clock = FakeClock()
        limiter = ClientRateLimiter(rate=1.0, burst=2.0, clock=clock)
        ok, wait = limiter.try_acquire("a", 100)
        assert not ok
        assert wait == pytest.approx(0.0)  # bucket starts full
        clock.advance(1000)
        ok, wait = limiter.try_acquire("a", 100)
        assert not ok and wait == pytest.approx(0.0)

    def test_clients_are_independent(self):
        clock = FakeClock()
        limiter = ClientRateLimiter(rate=1.0, burst=2.0, clock=clock)
        assert limiter.try_acquire("a", 2)[0]
        assert not limiter.try_acquire("a", 1)[0]
        assert limiter.try_acquire("b", 2)[0]

    def test_disabled_when_rate_zero(self):
        limiter = ClientRateLimiter(rate=0.0)
        for _ in range(100):
            assert limiter.try_acquire("a", 10**9) == (True, 0.0)

    def test_lru_eviction_bounds_the_table(self):
        clock = FakeClock()
        limiter = ClientRateLimiter(
            rate=1.0, burst=5.0, max_clients=2, clock=clock
        )
        limiter.try_acquire("a", 5)  # drain a's bucket
        limiter.try_acquire("b", 1)
        limiter.try_acquire("c", 1)  # evicts a (LRU)
        assert len(limiter._buckets) == 2
        # a re-enters with a fresh (full) bucket, same as a new client.
        assert limiter.try_acquire("a", 5)[0]


# ----------------------------------------------------------------------
# Micro-batcher
# ----------------------------------------------------------------------
class TestMicroBatcher:
    def make(self, batch=4, delay=10.0, queue=16, clock=None):
        return MicroBatcher(batch, delay, queue, clock=clock or FakeClock())

    def test_flush_on_size(self):
        batcher = self.make(batch=4)
        assert batcher.offer([1, 2, 3, 4, 5])
        assert batcher.next_batch() == [1, 2, 3, 4]
        assert batcher.depth() == 1

    def test_flush_on_deadline(self):
        clock = FakeClock()
        batcher = self.make(batch=100, delay=0.5, queue=200, clock=clock)
        batcher.offer([1, 2])
        clock.advance(0.6)  # past the deadline: a short batch flushes
        assert batcher.next_batch() == [1, 2]

    def test_bounded_offer_refuses_all_or_nothing(self):
        batcher = self.make(queue=6)
        assert batcher.offer([1, 2, 3, 4])
        assert not batcher.offer([5, 6, 7])  # 4 + 3 > 6
        assert batcher.depth() == 4  # nothing partially admitted
        assert batcher.refused == 3
        assert batcher.offer([5, 6])

    def test_close_flushes_remainder_then_none(self):
        batcher = self.make(batch=100, delay=100.0, queue=200)
        batcher.offer([1, 2, 3])
        batcher.close()
        assert not batcher.offer([4])  # closed admits nothing
        assert batcher.next_batch() == [1, 2, 3]
        assert batcher.next_batch() is None

    def test_fifo_across_offers(self):
        batcher = self.make(batch=3)
        batcher.offer([1])
        batcher.offer([2, 3])
        assert batcher.next_batch() == [1, 2, 3]

    def test_worker_wakes_on_size_threshold(self):
        # Real clock: a blocked consumer must wake when the producer
        # crosses the batch threshold, not only on deadline expiry.
        batcher = MicroBatcher(2, 30.0, 16)
        got = []
        thread = threading.Thread(
            target=lambda: got.append(batcher.next_batch())
        )
        thread.start()
        time.sleep(0.05)
        batcher.offer([1, 2])
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert got == [[1, 2]]

    def test_would_ever_fit(self):
        batcher = self.make(queue=16)
        assert batcher.would_ever_fit(16)
        assert not batcher.would_ever_fit(17)


# ----------------------------------------------------------------------
# HTTP parsing
# ----------------------------------------------------------------------
def parse_http(raw, max_header=65536, max_body=1 << 20):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await _read_request(reader, "test-peer", max_header, max_body)

    return asyncio.run(go())


class TestHttpParsing:
    def test_get_with_query_params(self):
        request = parse_http(
            b"GET /v1/query?family=timeseries&start=1.5 HTTP/1.1\r\n"
            b"Host: x\r\n\r\n"
        )
        assert request.method == "GET"
        assert request.path == "/v1/query"
        assert request.query == {"family": "timeseries", "start": "1.5"}
        assert request.peer == "test-peer"

    def test_post_with_body(self):
        request = parse_http(
            b"POST /v1/samples HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd"
        )
        assert request.body == b"abcd"
        assert request.headers["content-length"] == "4"

    def test_clean_eof_returns_none(self):
        assert parse_http(b"") is None

    @pytest.mark.parametrize("raw,status", [
        (b"GARBAGE\r\n\r\n", 400),
        (b"GET /x SPDY/3\r\n\r\n", 400),
        (b"GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n", 400),
        (b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
        (b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", 400),
        (b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 400),
    ])
    def test_malformed_requests(self, raw, status):
        with pytest.raises(HttpProtocolError) as excinfo:
            parse_http(raw)
        assert excinfo.value.status == status

    def test_oversize_body_is_413(self):
        with pytest.raises(HttpProtocolError) as excinfo:
            parse_http(
                b"POST /x HTTP/1.1\r\nContent-Length: 999\r\n\r\n",
                max_body=10,
            )
        assert excinfo.value.status == 413

    def test_oversize_headers_rejected(self):
        raw = b"GET /x HTTP/1.1\r\n" + b"A: " + b"b" * 200 + b"\r\n\r\n"
        with pytest.raises(HttpProtocolError) as excinfo:
            parse_http(raw, max_header=100)
        assert excinfo.value.status == 400


# ----------------------------------------------------------------------
# In-process service harness
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
        self.stop()

    def stop(self):
        if self.thread.is_alive():
            self.service.request_shutdown_threadsafe()
        self.thread.join(timeout=30)
        assert not self.thread.is_alive(), "service failed to drain"


def wait_folded(client, n, timeout=15.0):
    """Poll /readyz until the engine has folded ``n`` records."""
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


class TestServiceEndpoints:
    def test_health_ready_and_routing(self, tmp_path, study):
        service = ServeService(
            str(tmp_path / "store"), config=ServeConfig(port=0),
            geodb=study.geo,
        )
        with RunningService(service):
            client = ServeClient(port=service.port)
            assert client.healthz() == {"status": "ok"}
            assert client.ready() is True
            status, _, _ = client._request("GET", "/no/such/route")
            assert status == 404
            status, headers, _ = client._request("GET", "/v1/samples")
            assert status == 405
            assert headers.get("allow") == "POST"
            status, _, _ = client._request("POST", "/healthz")
            assert status == 405
            client.close()

    def test_request_id_echo_on_success_and_errors(self, tmp_path, study):
        service = ServeService(
            str(tmp_path / "store"), config=ServeConfig(port=0),
            geodb=study.geo,
        )
        with RunningService(service):
            client = ServeClient(port=service.port)
            # No client id sent: the server mints one per response.
            status, headers, _ = client._request("GET", "/healthz")
            assert status == 200
            minted = headers.get("x-request-id")
            assert minted
            status, headers, _ = client._request("GET", "/healthz")
            assert headers.get("x-request-id") != minted

            # A client-supplied id is echoed verbatim -- on errors too,
            # and injected into the JSON error body for log correlation.
            supplied = {"X-Request-Id": "req-abc-123"}
            status, headers, payload = client._request(
                "POST", "/v1/samples", body=b"not json",
                headers={"Content-Type": "application/json", **supplied},
            )
            assert status == 400
            assert headers.get("x-request-id") == "req-abc-123"
            assert json.loads(payload)["request_id"] == "req-abc-123"

            status, headers, payload = client._request(
                "GET", "/no/such/route", headers=supplied
            )
            assert status == 404
            assert headers.get("x-request-id") == "req-abc-123"
            assert json.loads(payload)["request_id"] == "req-abc-123"

            status, headers, _ = client._request(
                "POST", "/v1/query", headers=supplied
            )
            assert status == 405
            assert headers.get("x-request-id") == "req-abc-123"

            # The stdlib client helper tracks what it sent vs. got back.
            client.post_samples(study.samples[:2],
                                timestamps=study.timestamps)
            assert client.last_request_id
            assert client.last_response_request_id == client.last_request_id
            client.close()

    def test_bad_payloads_are_400(self, tmp_path, study):
        service = ServeService(
            str(tmp_path / "store"), config=ServeConfig(port=0),
            geodb=study.geo,
        )
        with RunningService(service):
            client = ServeClient(port=service.port)
            bad_src = study.samples[0].to_dict()
            bad_src["packets"][0]["src"] = "not-an-ip"
            for body in (b"not json", b"[1, 2, 3]", b'{"sample": {}}',
                         b'[{"not_a_sample": true}]',
                         json.dumps([bad_src]).encode()):
                status, _, payload = client._request(
                    "POST", "/v1/samples", body=body
                )
                assert status == 400, body
                assert b"error" in payload
            # Empty body is fine: zero records accepted.
            assert client.post_samples([]) == {"accepted": 0, "queued": 0}
            client.close()

    def test_oversize_batch_is_413(self, tmp_path, study):
        service = ServeService(
            str(tmp_path / "store"),
            config=ServeConfig(
                port=0, batch_max_records=4, queue_max_records=8
            ),
            geodb=study.geo,
        )
        with RunningService(service):
            client = ServeClient(port=service.port)
            with pytest.raises(ServeError, match="413"):
                client.post_samples(study.samples[:9])
            client.close()

    def test_rate_limit_answers_429_with_retry_after(self, tmp_path, study):
        service = ServeService(
            str(tmp_path / "store"),
            config=ServeConfig(
                port=0,
                rate_records_per_second=1.0,
                rate_burst_records=2,
            ),
            geodb=study.geo,
        )
        with RunningService(service):
            client = ServeClient(port=service.port, client_id="limited")
            # Larger than the burst: can never pass outright.
            with pytest.raises(RetryLater) as excinfo:
                client.post_samples(study.samples[:3])
            assert excinfo.value.retry_after >= 1
            # Within burst: admitted; immediately again: out of tokens.
            assert client.post_samples(study.samples[:2])["accepted"] == 2
            with pytest.raises(RetryLater):
                client.post_samples(study.samples[2:4])
            # A different client has its own bucket.
            other = ServeClient(port=service.port, client_id="fresh")
            assert other.post_samples(study.samples[4:6])["accepted"] == 2
            metrics = client.metrics_text()
            assert "repro_serve_rejected_ratelimit_total" in metrics
            client.close()
            other.close()

    def test_queue_full_answers_429(self, tmp_path, study):
        service = ServeService(
            str(tmp_path / "store"),
            config=ServeConfig(
                port=0, batch_max_records=4, queue_max_records=8,
                batch_max_delay_seconds=0.01,
            ),
            geodb=study.geo,
        )
        with RunningService(service):
            client = ServeClient(port=service.port)
            # Wedge the fold: the worker blocks on the engine lock with
            # at most one batch in hand, so the queue cannot drain.
            with service._engine_lock:
                assert client.post_samples(study.samples[:8])["accepted"] == 8
                time.sleep(0.1)  # let the worker take its one batch
                with pytest.raises(RetryLater) as excinfo:
                    client.post_samples(study.samples[8:16])
                assert excinfo.value.retry_after >= 1
            wait_folded(client, 8)
            assert client.post_samples(study.samples[8:16])["accepted"] == 8
            client.close()

    def test_query_and_anomalies_roundtrip(self, tmp_path, study):
        service = ServeService(
            str(tmp_path / "store"), config=ServeConfig(port=0),
            geodb=study.geo,
        )
        with RunningService(service):
            client = ServeClient(port=service.port)
            client.post_samples(study.samples, timestamps=study.timestamps)
            wait_folded(client, len(study.samples))
            result = client.query("country_tampering_rate")
            assert result["family"] == "country_tampering_rate"
            assert result["value"]  # sealed buckets are visible live
            assert result["open_buckets_scanned"] == 0
            result = client.query("timeseries", country=None)
            assert set(result) >= {"value", "generation", "buckets_scanned"}
            anomalies = client.anomalies()
            assert anomalies["count"] == len(anomalies["events"])
            with pytest.raises(ServeError, match="400"):
                client.query("no_such_family")
            status, _, _ = client._request(
                "GET", "/v1/query?family=timeseries&start=abc"
            )
            assert status == 400
            client.close()

    def test_metrics_exposition_includes_endpoint_latency(
        self, tmp_path, study
    ):
        service = ServeService(
            str(tmp_path / "store"), config=ServeConfig(port=0),
            geodb=study.geo,
        )
        with RunningService(service):
            client = ServeClient(port=service.port)
            client.healthz()
            text = client.metrics_text()
            assert "# TYPE repro_serve_http_healthz_seconds histogram" in text
            assert 'repro_serve_http_healthz_seconds_bucket{le="+Inf"}' in text
            assert "repro_serve_http_requests_total" in text
            assert "repro_serve_http_healthz_inflight 0" in text
            client.close()


# ----------------------------------------------------------------------
# Parity gates
# ----------------------------------------------------------------------
def offline_store(study, directory, samples=None):
    source = IterableSource(
        samples if samples is not None else study.samples,
        timestamps=study.timestamps,
    )
    engine = StreamEngine(
        source, geodb=study.geo, store_dir=directory
    )
    report = engine.run()
    engine.store.close()
    return report


class TestServeParity:
    def test_sequential_ingest_is_byte_identical_to_offline(
        self, tmp_path, study
    ):
        offline_store(study, str(tmp_path / "offline"))

        serve_dir = str(tmp_path / "served")
        service = ServeService(
            serve_dir,
            config=ServeConfig(
                port=0, batch_max_records=32, batch_max_delay_seconds=0.005
            ),
            geodb=study.geo,
        )
        runner = RunningService(service)
        with runner:
            client = ServeClient(port=service.port)
            for start in range(0, len(study.samples), 53):  # uneven POSTs
                client.post_samples(
                    study.samples[start:start + 53],
                    timestamps=study.timestamps,
                )
            wait_folded(client, len(study.samples))
            client.close()
            runner.stop()  # graceful drain seals the tail
        assert service.report is not None and service.report.finished
        assert_store_parity(serve_dir, str(tmp_path / "offline"))

    def test_concurrent_load_with_429s_and_restart_parity(
        self, tmp_path, study
    ):
        """The acceptance gate: concurrency + a 429 burst + drain/restart.

        Admission order is kept deterministic the honest way -- the
        ingest client sends batch k+1 only after batch k is accepted --
        while a concurrent flood client (whose batches exceed the token
        burst, so every one is rejected with 429) and concurrent query
        readers provide the contention.  The flood never pollutes the
        store, so the final state must be byte-identical to offline.
        """
        offline_store(study, str(tmp_path / "offline"))
        cut = bucket_aligned_cut(study)
        serve_dir = str(tmp_path / "served")
        config = ServeConfig(
            port=0,
            batch_max_records=32,
            batch_max_delay_seconds=0.005,
            rate_records_per_second=1e6,  # refills instantly...
            rate_burst_records=64,        # ...but bursts above 64 never pass
        )

        def flood_and_read(service, stop_event, saw_429, errors):
            flood = ServeClient(port=service.port, client_id="flood")
            reader = ServeClient(port=service.port, client_id="reader")
            oversized = study.samples[:65]  # burst is 64
            while not stop_event.is_set():
                try:
                    flood.post_samples(oversized)
                    errors.append("flood batch was admitted")
                    return
                except RetryLater:
                    saw_429.append(1)
                except ServeError:
                    pass  # drain race: connection refused / 503
                try:
                    reader.query("timeseries")
                    reader.anomalies()
                    reader.metrics_text()
                except ServeError:
                    pass
            flood.close()
            reader.close()

        def serve_phase(samples, resume_expected, folded_target):
            service = ServeService(serve_dir, config=config, geodb=study.geo)
            runner = RunningService(service)
            stop_event = threading.Event()
            saw_429, errors = [], []
            with runner:
                hammer = threading.Thread(
                    target=flood_and_read,
                    args=(service, stop_event, saw_429, errors),
                )
                hammer.start()
                try:
                    client = ServeClient(port=service.port, client_id="main")
                    for start in range(0, len(samples), 48):
                        batch = samples[start:start + 48]
                        while True:  # in-order: retry THIS batch until in
                            try:
                                client.post_samples(
                                    batch, timestamps=study.timestamps
                                )
                                break
                            except RetryLater as exc:
                                time.sleep(min(exc.retry_after, 0.05))
                    wait_folded(client, folded_target)
                    client.close()
                finally:
                    stop_event.set()
                    hammer.join(timeout=30)
                runner.stop()
            assert not errors, errors
            assert saw_429, "flood client never drew a 429"
            assert service.report is not None
            # Per-endpoint status-class counters: the main client's
            # accepted batches are 2xx, every flood rejection is a 4xx
            # (the drain-race 503s land in 5xx, never in 4xx).
            registry = service.obs.registry
            assert registry.get("serve.http.samples.2xx").value > 0
            assert registry.get("serve.http.samples.4xx").value >= len(
                saw_429
            )
            assert registry.get("serve.http.query.2xx").value > 0
            assert registry.get("serve.http.query.4xx").value == 0

        # Phase 1: first half (ends on a bucket boundary), then drain.
        serve_phase(study.samples[:cut], False, cut)
        # Phase 2: restart over the same store, resume, second half.
        serve_phase(study.samples[cut:], True, len(study.samples))

        assert_store_parity(serve_dir, str(tmp_path / "offline"))


# ----------------------------------------------------------------------
# CLI smoke: real process, real SIGTERM
# ----------------------------------------------------------------------
@pytest.mark.chaos
class TestServeCli:
    def _spawn(self, store, port, extra=()):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(__file__), "..", "src"
        )
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--store", store, "--port", str(port),
            "--batch-records", "64", "--batch-delay", "0.01",
        ] + list(extra)
        return subprocess.Popen(
            cmd, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )

    def _wait_ready(self, client, child, timeout=30):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            assert child.poll() is None, child.communicate()[1]
            try:
                if client.ready():
                    return
            except ServeError:
                pass
            time.sleep(0.05)
        raise AssertionError("server never became ready")

    def test_serve_smoke_post_query_scrape_sigterm(self, tmp_path):
        import socket

        study = two_week_study(n_connections=150, seed=13)
        cut = bucket_aligned_cut(study)
        store = str(tmp_path / "store")
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]

        # Boot, POST the first half, query it back, scrape, SIGTERM.
        child = self._spawn(store, port)
        client = ServeClient(port=port)
        self._wait_ready(client, child)
        # No geodb in the CLI path: samples classify with their own
        # country attribution, exactly like `repro stream <file>`.
        result = client.post_samples(
            study.samples[:cut], timestamps=study.timestamps
        )
        assert result["accepted"] == cut
        wait_folded(client, cut)
        query = client.query("timeseries")
        assert query["value"], "live query returned nothing"
        scrape = client.metrics_text()
        assert "repro_serve_records_accepted_total" in scrape
        client.close()
        child.send_signal(signal.SIGTERM)
        out, err = child.communicate(timeout=60)
        assert child.returncode == 0, err
        assert "drained after" in err

        # Restart over the same store on an ephemeral port: the
        # "serving on" line must name the port actually bound.
        child = self._spawn(store, 0)
        line = child.stderr.readline()
        while line and "serving on" not in line:
            line = child.stderr.readline()
        match = re.search(r"serving on [^:]+:(\d+) ", line)
        assert match, line
        port = int(match.group(1))
        assert port != 0, line
        client = ServeClient(port=port)
        self._wait_ready(client, child)
        client.post_samples(study.samples[cut:], timestamps=study.timestamps)
        wait_folded(client, len(study.samples))
        client.close()
        child.send_signal(signal.SIGTERM)
        out, err = child.communicate(timeout=60)
        assert child.returncode == 0, err

        # Byte-identical to the same samples streamed offline.
        offline = str(tmp_path / "offline")
        engine = StreamEngine(
            IterableSource(study.samples, timestamps=study.timestamps),
            store_dir=offline,
        )
        engine.run()
        engine.store.close()
        assert_store_parity(store, offline)
