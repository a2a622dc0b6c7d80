"""ServeService: HTTP ingest/query wired onto the push-mode engine.

Threading model, deliberately minimal::

    event-loop thread          ingest worker thread
    -----------------          --------------------
    HTTP parse/route           MicroBatcher.next_batch()
    admission control     -->  engine.push_items(batch)
    MicroBatcher.offer()       (classify + geolocate + fold +
    read-only store queries     seal + checkpoint)

The event loop never folds and the worker never parses HTTP.  The two
meet at the :class:`~repro.serve.batcher.MicroBatcher` (bounded,
thread-safe) and at ``_engine_lock``, which the loop takes only for
cheap snapshots (the anomaly log) and for the final drain.  Queries
run against a **read-only** :class:`~repro.store.store.RollupStore`
snapshot that re-snapshots when the writer's manifest generation
advances -- readers never block the writer.

Because ingest is admitted in FIFO order into a single fold thread,
the records a server applies are exactly the concatenation of admitted
POST bodies -- which is what makes the end-to-end parity gate (serve
ingest vs. offline ``repro stream`` over the same samples) byte-exact.

Graceful drain (SIGTERM/SIGINT or :meth:`ServeService.request_shutdown`):
stop accepting connections -> close the batcher -> worker folds the
remaining micro-batches -> checkpoint -> seal -> export obs -> exit 0.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import signal
import threading
import time
from typing import Callable, Dict, List, Optional

from repro.cdn.collector import ConnectionSample, checked_timestamp
from repro.errors import ReproError, ServeError, StoreError
from repro.obs import (
    NULL_OBS,
    REQUEST_ID_HEADER,
    TRACEPARENT_HEADER,
    HeadSampler,
    Observability,
    TraceContext,
    mint_request_id,
    mint_span_id,
    mint_trace_id,
    parse_traceparent,
)
from repro.serve.batcher import MicroBatcher
from repro.serve.config import SERVE_CHECKPOINT_NAME, ServeConfig
from repro.serve.httpd import HttpRequest, HttpResponse, HttpServer
from repro.serve.ratelimit import ClientRateLimiter
from repro.store import RollupStore, StoreQuery
from repro.stream import StreamEngine, StreamItem
from repro.stream.rollup import DEFAULT_BUCKET_SECONDS

__all__ = ["ServeService"]

_ENDPOINTS = ("samples", "query", "anomalies", "metrics", "healthz", "readyz")


def _jsonable(value):
    """Make query values JSON-safe (enum keys become their values)."""
    if isinstance(value, dict):
        return {
            (k.value if hasattr(k, "value") else str(k)): _jsonable(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _parse_sample_entries(
    body: bytes, trace: Optional[TraceContext] = None
) -> List[StreamItem]:
    """Decode a POST body: JSON array or JSONL, raw or ``ts``-wrapped.

    Each entry is either a plain :class:`ConnectionSample` dict or
    ``{"ts": <float>, "sample": {...}}``; the wrapper carries the
    connection start time when the producer knows it (the simulator
    tap does), mirroring :class:`~repro.stream.source.StreamItem`.
    A wrapper ``ts`` must pass
    :func:`~repro.cdn.collector.checked_timestamp` once made a float.

    ``trace`` (the request's server-side trace context, when sampled)
    rides on every item so the batcher and engine can attach their
    spans to the request's tree.
    """
    text = body.decode("utf-8").strip()
    if not text:
        return []
    if text.startswith("["):
        entries = json.loads(text)
        if not isinstance(entries, list):
            raise ValueError("expected a JSON array")
    else:
        entries = [
            json.loads(line)
            for line in text.splitlines()
            if line.strip()
        ]
    items: List[StreamItem] = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError("each entry must be a JSON object")
        if "sample" in entry:
            ts = entry.get("ts")
            if ts is not None:
                ts = checked_timestamp(float(ts), "ts")
            payload = entry["sample"]
        else:
            ts = None
            payload = entry
        items.append(StreamItem(
            sample=ConnectionSample.from_dict(payload), ts=ts, trace=trace,
        ))
    return items


class ServeService:
    """The serve tier: one store directory, one listener, one fold."""

    def __init__(
        self,
        store_dir: str,
        config: Optional[ServeConfig] = None,
        obs_dir: Optional[str] = None,
        obs: Optional[Observability] = None,
        geodb=None,
        bucket_seconds: float = DEFAULT_BUCKET_SECONDS,
        grace_seconds: float = 0.0,
        anomaly_config=None,
        checkpoint_interval: int = 5000,
    ) -> None:
        self.config = config or ServeConfig()
        self.config.validate()
        self.store_dir = store_dir
        self.obs_dir = obs_dir
        self.obs = obs if obs is not None else Observability(
            trace_capture=self.config.trace_capture_traces
        )
        self.engine = StreamEngine(
            None,
            geodb=geodb,
            bucket_seconds=bucket_seconds,
            grace_seconds=grace_seconds,
            anomaly_config=anomaly_config,
            checkpoint_path=os.path.join(store_dir, SERVE_CHECKPOINT_NAME),
            checkpoint_interval=checkpoint_interval,
            store_dir=store_dir,
            obs=self.obs,
        )
        self.batcher = MicroBatcher(
            self.config.batch_max_records,
            self.config.batch_max_delay_seconds,
            self.config.queue_max_records,
            obs=self.obs,
        )
        self.limiter = ClientRateLimiter(
            self.config.rate_records_per_second,
            burst=self.config.rate_burst_records,
            max_clients=self.config.rate_max_clients,
        )
        self.httpd = HttpServer(
            self._handle,
            host=self.config.host,
            port=self.config.port,
            max_header_bytes=self.config.max_header_bytes,
            max_body_bytes=self.config.max_body_bytes,
        )
        #: The query tier's snapshot; never writes, never blocks ingest.
        self.reader: Optional[RollupStore] = None

        self._engine_lock = threading.Lock()
        self._worker: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown_event: Optional[asyncio.Event] = None
        self._draining = False
        self.report = None
        #: Set once the engine is folded past its first checkpoint --
        #: the /readyz contract -- and cleared at drain or when the
        #: ingest worker dies.  A threading.Event so test harnesses can
        #: await startup from another thread.
        self.ready = threading.Event()
        self.port: Optional[int] = None
        self.ingest_errors = 0

        reg = self.obs
        self._h_endpoint = {
            name: reg.histogram(f"serve.http.{name}") for name in _ENDPOINTS
        }
        self._g_inflight = {
            name: reg.gauge(f"serve.http.{name}.inflight")
            for name in _ENDPOINTS
        }
        #: serve.http.<endpoint>.2xx/4xx/5xx -- rejection rates (413,
        #: 429, 503) are scrapeable without log parsing.
        self._c_status = {
            name: {
                2: reg.counter(f"serve.http.{name}.2xx"),
                4: reg.counter(f"serve.http.{name}.4xx"),
                5: reg.counter(f"serve.http.{name}.5xx"),
            }
            for name in _ENDPOINTS
        }
        #: Server-side head sampling for requests with no traceparent;
        #: loop-thread only.  The recorder collects each sampled
        #: request's span tree (see repro.obs.spantree).
        self._trace_sampler = HeadSampler(self.config.trace_sample_n)
        self._rec = getattr(self.obs, "trace_recorder", None)
        self._c_requests = reg.counter("serve.http.requests")
        self._c_rejected_rate = reg.counter("serve.rejected.ratelimit")
        self._c_rejected_queue = reg.counter("serve.rejected.queue_full")
        self._c_rejected_oversize = reg.counter("serve.rejected.oversize")
        self._c_bad_request = reg.counter("serve.bad_request")
        self._c_accepted = reg.counter("serve.records_accepted")
        self._c_ingest_errors = reg.counter("serve.ingest_errors")
        self._g_draining = reg.gauge("serve.draining")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def run(self, on_ready: Optional[Callable[[], None]] = None) -> int:
        """Serve until a signal or :meth:`request_shutdown`; exit 0.

        ``on_ready`` is called on the loop thread once the listening
        socket is bound (``self.port`` holds the real port by then).
        """
        asyncio.run(self._amain(on_ready))
        return 0

    async def _amain(self, on_ready: Optional[Callable[[], None]]) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()

        resume = os.path.exists(
            os.path.join(self.store_dir, SERVE_CHECKPOINT_NAME)
        )
        self.engine.open_push(resume=resume)
        # readyz = "folded past its first checkpoint": write one
        # immediately so a crash before the first due-interval still
        # resumes cleanly, and readiness certifies durable state.
        self.engine.checkpoint_now()
        self.reader = RollupStore.open_read_only(self.store_dir, obs=NULL_OBS)

        self._worker = threading.Thread(
            target=self._ingest_worker, name="serve-ingest", daemon=True
        )
        self._worker.start()
        await self.httpd.start()
        self.port = self.httpd.port

        try:
            for sig in (signal.SIGTERM, signal.SIGINT):
                self._loop.add_signal_handler(sig, self.request_shutdown)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-unix loops; tests drive request_shutdown directly

        self.ready.set()
        self.obs.event("serve.ready", port=self.port, resumed=resume)
        if on_ready is not None:
            on_ready()
        try:
            await self._shutdown_event.wait()
        finally:
            await self._drain()

    async def _drain(self) -> None:
        """stop accepting -> flush micro-batches -> checkpoint -> seal."""
        self._draining = True
        self._g_draining.set(1)
        self.ready.clear()
        await self.httpd.stop()
        self.batcher.close()
        if self._worker is not None:
            await self._loop.run_in_executor(None, self._worker.join)
        with self._engine_lock:
            self.report = self.engine.drain(seal=self.config.drain_seal)
            self.engine.store.close()
        if self.reader is not None:
            self.reader.close()
        self.obs.event(
            "serve.drained",
            records=self.report.samples_processed,
            sealed=self.config.drain_seal,
        )
        if self.obs_dir:
            self.obs.export(
                self.obs_dir, extra={"stream_metrics": self.report.metrics}
            )

    def request_shutdown(self) -> None:
        """Begin a graceful drain; callable only from the loop thread."""
        if self._shutdown_event is not None:
            self._draining = True
            self._shutdown_event.set()

    def request_shutdown_threadsafe(self) -> None:
        """Thread-safe shutdown trigger for harnesses and tests."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.request_shutdown)

    # ------------------------------------------------------------------
    # Ingest worker
    # ------------------------------------------------------------------
    def _ingest_worker(self) -> None:
        try:
            while True:
                batch = self.batcher.next_batch()
                if batch is None:
                    return
                try:
                    with self._engine_lock:
                        self.engine.push_items(batch)
                except ReproError as exc:
                    # A batch the classifier cannot digest must not kill
                    # the fold loop; it was validated at POST time, so
                    # this is exceptional enough to count and log loudly.
                    self.ingest_errors += 1
                    self._c_ingest_errors.inc()
                    self.obs.event(
                        "serve.ingest_error", error=str(exc), records=len(batch)
                    )
        except BaseException as exc:
            # Nothing folds any more: say so, and fail /readyz, rather
            # than keep acknowledging records into a queue nobody drains.
            self.ready.clear()
            self.obs.event("serve.ingest_worker_died", error=repr(exc))
            raise

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _handle(self, request: HttpRequest) -> HttpResponse:
        # Every response -- errors included -- echoes a request id for
        # client-side correlation: the client's own if it sent one,
        # a minted one otherwise.
        request_id = request.headers.get(REQUEST_ID_HEADER) or mint_request_id()
        path = request.path.rstrip("/") or "/"
        if path == "/v1/samples":
            name, method = "samples", "POST"
        elif path == "/v1/query":
            name, method = "query", "GET"
        elif path == "/v1/anomalies":
            name, method = "anomalies", "GET"
        elif path == "/metrics":
            name, method = "metrics", "GET"
        elif path == "/healthz":
            name, method = "healthz", "GET"
        elif path == "/readyz":
            name, method = "readyz", "GET"
        else:
            return self._finalize(
                request, None, request_id, None, None,
                HttpResponse.error(404, f"no route for {request.path!r}"),
            )
        client_ctx = parse_traceparent(request.headers.get(TRACEPARENT_HEADER))
        if request.method != method:
            return self._finalize(
                request, name, request_id, None, client_ctx,
                HttpResponse.error(
                    405,
                    f"{request.method} not allowed on {path}",
                    headers=(("Allow", method),),
                ),
            )

        # The request's server-side context: same trace id as the
        # client's (when it sent a sampled traceparent), parented onto
        # a freshly minted request span id that all ingest-side spans
        # (batcher wait, fold, WAL) will hang under.  Without a client
        # header, 1 in trace_sample_n ingest requests is head-sampled.
        ctx: Optional[TraceContext] = None
        if client_ctx is not None:
            if client_ctx.sampled:
                ctx = TraceContext(client_ctx.trace_id, mint_span_id(), True)
        elif name == "samples" and self._trace_sampler.decide():
            ctx = TraceContext(mint_trace_id(), mint_span_id(), True)
        request.trace = ctx
        request.request_id = request_id

        self._c_requests.inc()
        gauge = self._g_inflight[name]
        gauge.inc()
        start = time.perf_counter()
        try:
            response = getattr(self, f"_endpoint_{name}")(request)
        finally:
            gauge.dec()
            self._h_endpoint[name].observe(time.perf_counter() - start)
        return self._finalize(
            request, name, request_id, ctx, client_ctx, response
        )

    def _finalize(
        self,
        request: HttpRequest,
        name: Optional[str],
        request_id: str,
        ctx: Optional[TraceContext],
        client_ctx: Optional[TraceContext],
        response: HttpResponse,
    ) -> HttpResponse:
        """Status-class counters, request span, id echo -- every exit."""
        status = response.status
        if name is not None:
            bucket = self._c_status[name].get(status // 100)
            if bucket is not None:
                bucket.inc()
        rejection = status in (413, 429, 503) and name == "samples"
        rec = self._rec
        if rec is not None:
            if rejection and ctx is None:
                # Rejections are always captured, sampled or not: the
                # 429 burst is exactly the tail worth inspecting later.
                trace_id = (
                    client_ctx.trace_id if client_ctx is not None
                    else mint_trace_id()
                )
                ctx = TraceContext(trace_id, mint_span_id(), True)
            if ctx is not None:
                now = time.perf_counter()
                start = request.received or now
                rec.record_span(
                    f"serve.http.{name}" if name else "serve.http.unknown",
                    start,
                    now - start,
                    ctx=ctx,
                    span_id=ctx.span_id,
                    parent_id=(
                        client_ctx.span_id if client_ctx is not None else ""
                    ),
                    attrs={"status": status, "request_id": request_id},
                )
                if rejection:
                    rec.pin(ctx.trace_id, f"http.{status}")
        if rejection:
            self.obs.event(
                "serve.rejected",
                endpoint=name,
                status=status,
                request_id=request_id,
            )
        extra = ((REQUEST_ID_HEADER, request_id),)
        if ctx is not None:
            extra += ((TRACEPARENT_HEADER, ctx.to_traceparent()),)
        elif client_ctx is not None:
            # Unsampled contexts are echoed untouched: the sampling
            # decision belongs to the caller's head, not to us.
            extra += ((TRACEPARENT_HEADER, client_ctx.to_traceparent()),)
        response.headers = response.headers + extra
        if status >= 400 and response.content_type == "application/json":
            try:
                payload = json.loads(response.body)
            except (json.JSONDecodeError, UnicodeDecodeError):
                payload = None
            if isinstance(payload, dict) and "request_id" not in payload:
                payload["request_id"] = request_id
                response.body = json.dumps(
                    payload, separators=(",", ":")
                ).encode("utf-8")
        return response

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _endpoint_samples(self, request: HttpRequest) -> HttpResponse:
        if self._draining or not self.ready.is_set():
            # Not ready also covers a dead ingest worker: nothing would
            # fold what a 202 acknowledged.
            return HttpResponse.error(
                503, "draining or not ready; not accepting new samples"
            )
        trace = getattr(request, "trace", None)
        try:
            items = _parse_sample_entries(request.body, trace=trace)
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            # OverflowError: float() of a JSON integer past 1.8e308.
            self._c_bad_request.inc()
            return HttpResponse.error(400, f"bad samples payload: {exc}")
        if not items:
            return HttpResponse.json({"accepted": 0, "queued": 0}, status=202)
        if not self.batcher.would_ever_fit(len(items)):
            self._c_rejected_oversize.inc()
            return HttpResponse.error(
                413,
                f"batch of {len(items)} records exceeds queue capacity "
                f"{self.batcher.queue_max_records}; split the request",
            )

        client = request.headers.get("x-client-id", request.peer)
        allowed, wait = self.limiter.try_acquire(client, len(items))
        if not allowed:
            self._c_rejected_rate.inc()
            return HttpResponse.error(
                429,
                f"rate limit exceeded for client {client!r}",
                headers=(("Retry-After", str(max(1, math.ceil(wait)))),),
            )
        if trace is not None and self._rec is not None:
            enq_start = time.perf_counter()
            offered = self.batcher.offer(items)
            self._rec.record_span(
                "batcher.enqueue",
                enq_start,
                time.perf_counter() - enq_start,
                ctx=trace,
                attrs={"records": len(items)},
            )
        else:
            offered = self.batcher.offer(items)
        if not offered:
            self._c_rejected_queue.inc()
            # One flush deadline is the soonest the queue can move.
            retry = max(1, math.ceil(self.config.batch_max_delay_seconds))
            return HttpResponse.error(
                429,
                "ingest queue is full",
                headers=(("Retry-After", str(retry)),),
            )
        self._c_accepted.inc(len(items))
        return HttpResponse.json(
            {"accepted": len(items), "queued": self.batcher.depth()},
            status=202,
        )

    def _endpoint_query(self, request: HttpRequest) -> HttpResponse:
        family = request.query_str("family", "country_tampering_rate")
        try:
            start = request.query_str("start")
            end = request.query_str("end")
            start = float(start) if start is not None else None
            end = float(end) if end is not None else None
        except ValueError:
            self._c_bad_request.inc()
            return HttpResponse.error(400, "start/end must be numbers")
        countries = None
        raw = request.query_str("countries")
        if raw:
            countries = tuple(c.strip() for c in raw.split(",") if c.strip())
        try:
            query = StoreQuery(
                family,
                start=start,
                end=end,
                countries=countries,
                country=request.query_str("country"),
            )
            self.reader.maybe_refresh()
            result = self._query_with_retry(query)
        except StoreError as exc:
            self._c_bad_request.inc()
            return HttpResponse.error(400, str(exc))
        return HttpResponse.json({
            "family": family,
            "value": _jsonable(result.value),
            "generation": self.reader.manifest.generation,
            "segments_scanned": result.segments_scanned,
            "segments_skipped": result.segments_skipped,
            "buckets_scanned": result.buckets_scanned,
            "open_buckets_scanned": result.open_buckets_scanned,
        })

    def _query_with_retry(self, query: StoreQuery):
        try:
            return self.reader.query(query)
        except StoreError as exc:
            # A compaction swapped the manifest under our snapshot and
            # deleted its inputs; re-snapshot once and retry.
            if "refresh and retry" not in str(exc):
                raise
            self.reader.maybe_refresh(force=True)
            return self.reader.query(query)

    def _endpoint_anomalies(self, request: HttpRequest) -> HttpResponse:
        with self._engine_lock:
            events = [event.to_dict() for event in self.engine.detector.events]
        return HttpResponse.json({"count": len(events), "events": events})

    def _endpoint_metrics(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse.text(self.obs.render_prometheus())

    def _endpoint_healthz(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse.json({"status": "ok"})

    def _endpoint_readyz(self, request: HttpRequest) -> HttpResponse:
        if self._draining or not self.ready.is_set():
            return HttpResponse.error(503, "not ready")
        return HttpResponse.json({
            "status": "ready",
            "folded": self.engine._n_folded,
            "queued": self.batcher.depth(),
        })
