"""The stream engine: source → classify → rollup → anomaly → report.

:class:`StreamEngine` is the long-running service loop.  It takes
:class:`~repro.stream.source.StreamItem` values -- pulled from a
:class:`~repro.stream.source.SampleSource` by :meth:`StreamEngine.run`,
or handed over by the serving tier through
:meth:`StreamEngine.push_items` -- and runs each through one serial
loop: classify, geolocate, fold into a
:class:`~repro.stream.rollup.StreamRollup` (or the durable store), close
hour windows as virtual time advances -- feeding each window's counts,
read from its bucket slice, to the
:class:`~repro.stream.anomaly.EwmaDetector` -- and periodically snapshot
everything through a :class:`~repro.stream.checkpoint.CheckpointManager`.

Checkpoint correctness rests on one invariant: a record is folded
before the next one is pulled, so the source cursor read at a record's
pull is exactly "the source is consumed through this record" once that
record is folded -- and every checkpoint is written after a fold.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Dict, Iterator, List, Optional

from repro.cdn.geo import GeoDatabase
from repro.core.classifier import ClassifierConfig, TamperingClassifier
from repro.errors import CheckpointError, StreamError, TransientSourceError
from repro.obs import (
    NULL_RECORDER,
    HeadSampler,
    Observability,
    ProgressReporter,
    TraceContext,
    mint_span_id,
    mint_trace_id,
)
from repro.stream.anomaly import AnomalyConfig, AnomalyEvent, EwmaDetector
from repro.stream.checkpoint import CheckpointManager
from repro.stream.metrics import StreamMetrics
from repro.stream.rollup import DEFAULT_BUCKET_SECONDS, StreamRecord, StreamRollup
from repro.stream.source import SampleSource, StreamItem
from repro.store import BucketSlice, RollupStore

__all__ = ["StreamEngine", "StreamReport"]

#: Timing-sample strides (powers of two) for the hottest per-record
#: spans: only every Nth occurrence is clocked, and the recorded span
#: carries weight N in its histogram.  Occurrence *counters* stay exact
#: -- sampling only applies to latency measurement.
_READ_SAMPLE = 8
_CLASSIFY_SAMPLE = 4


@dataclasses.dataclass
class StreamReport:
    """What a (possibly partial) stream run produced."""

    rollup: StreamRollup
    events: List[AnomalyEvent]
    metrics: dict
    finished: bool
    samples_processed: int

    def render(self, top: int = 10) -> str:
        """Human-readable summary block for the CLI."""
        lines = [
            f"stream {'finished' if self.finished else 'stopped'} after "
            f"{self.samples_processed} connections "
            f"({self.rollup.n_records} in rollup)",
        ]
        rates = sorted(
            self.rollup.country_tampering_rate().items(), key=lambda kv: -kv[1]
        )
        if rates:
            lines.append("top tampered countries:")
            for country, rate in rates[:top]:
                lines.append(f"  {country}: {rate:.1f}%")
        if self.events:
            lines.append("anomalies:")
            for event in self.events:
                lines.append(
                    f"  [{event.kind}] {event.country} window={event.window_start:.0f} "
                    f"rate={event.rate:.1f}% baseline={event.baseline:.1f}% "
                    f"z={event.zscore:.1f}"
                )
        else:
            lines.append("anomalies: none")
        return "\n".join(lines)


class StreamEngine:
    """Online counterpart of ``classify_all`` + ``AnalysisDataset``."""

    def __init__(
        self,
        source: Optional[SampleSource],
        geodb: Optional[GeoDatabase] = None,
        *,
        classifier_config: Optional[ClassifierConfig] = None,
        bucket_seconds: float = DEFAULT_BUCKET_SECONDS,
        grace_seconds: float = 0.0,
        anomaly_config: Optional[AnomalyConfig] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_interval: int = 5000,
        max_source_retries: int = 3,
        retry_backoff_seconds: float = 0.05,
        store_dir: Optional[str] = None,
        store_config: Optional[object] = None,
        store_chaos: Optional[object] = None,
        obs: Optional[Observability] = None,
        progress: Optional[ProgressReporter] = None,
        trace_sample_n: int = 0,
    ) -> None:
        if max_source_retries < 0:
            raise StreamError("max_source_retries must be >= 0")
        if retry_backoff_seconds < 0:
            raise StreamError("retry_backoff_seconds must be >= 0")
        if trace_sample_n < 0:
            raise StreamError("trace_sample_n must be >= 0")
        self.source = source
        self.geodb = geodb
        self.classifier_config = classifier_config or ClassifierConfig()
        self.bucket_seconds = bucket_seconds
        self.grace_seconds = grace_seconds
        self.rollup = StreamRollup(bucket_seconds=bucket_seconds)
        self.detector = EwmaDetector(anomaly_config)
        self.metrics = StreamMetrics()
        #: Stage-level timers/counters; pass ``repro.obs.NULL_OBS`` to
        #: disable instrumentation entirely.
        self.obs = obs if obs is not None else Observability()
        self.metrics.obs = self.obs
        self.progress = progress
        self._t_fold = self.obs.timer("rollup.fold")
        self._t_anomaly = self.obs.timer("anomaly.observe")
        self._t_checkpoint = self.obs.timer("checkpoint.write")
        self._c_source_retries = self.obs.counter("source.retries")
        #: Request-scoped span recorder (see repro.obs.spantree).  The
        #: untraced hot path only ever reads ``.active is None`` off it.
        self._trace_rec = getattr(self.obs, "trace_recorder", NULL_RECORDER)
        #: Pull-mode head sampling: mint a TraceContext for 1 in N items
        #: so `repro stream --trace-sample N` yields span trees without
        #: an HTTP tier in front.  Push-mode contexts arrive on the
        #: items themselves (the serving tier mints them).
        self.trace_sample_n = trace_sample_n
        self._trace_sampler = HeadSampler(trace_sample_n) if trace_sample_n else None
        self.max_source_retries = max_source_retries
        self.retry_backoff_seconds = retry_backoff_seconds
        self.checkpointer = (
            CheckpointManager(checkpoint_path, interval=checkpoint_interval)
            if checkpoint_path
            else None
        )
        if store_dir is not None:
            self.store: Optional[RollupStore] = RollupStore(
                store_dir,
                bucket_seconds=bucket_seconds,
                config=store_config,
                chaos=store_chaos,
                obs=self.obs,
            )
        else:
            self.store = None
        #: records folded so far (equals ``rollup.n_records`` without a
        #: store; with one, the rollup stays empty until the final
        #: materialisation, so the engine counts folds itself).
        self._n_folded = 0
        #: Every window starting at or below this has closed: it was fed
        #: to the detector once, and a late record for it never is.
        self._fed_through = -math.inf
        #: Lower bound on the oldest bucket start above ``_fed_through``
        #: that holds records (-inf = unknown).  Buckets ripen only once
        #: per bucket boundary, so while the horizon is below it the
        #: per-fold ripeness sweep has nothing to find.
        self._oldest_open = -math.inf
        self._watermark: Optional[float] = None
        #: What a checkpoint records as "consumed through here": the
        #: source cursor read at the last pull (pull mode; that record
        #: is folded before anything else happens), or the fold count
        #: after the last pushed record (push mode).
        self._safe_cursor: Optional[object] = None
        self._source_exhausted = False
        #: Cooperative stop flag (signal handlers, service drain).  The
        #: run loop checks it between folds, so a stop always lands on a
        #: record boundary with a consistent checkpointable state.
        self._stop_requested = False
        self._classifier: Optional[TamperingClassifier] = None
        self._push_open = False

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def _restore(self) -> None:
        assert self.checkpointer is not None
        payload = self.checkpointer.load()
        if payload is None:
            if self.store is not None and self.store.is_dirty:
                raise CheckpointError(
                    "store directory already holds ingested state but no "
                    "checkpoint exists to align the source cursor with it; "
                    "start over with an empty store directory"
                )
            return
        if "fed_through" not in payload:
            raise CheckpointError(
                "checkpoint predates the slice-based rollup format; "
                "start over with an empty checkpoint and store"
            )
        if payload["bucket_seconds"] != self.bucket_seconds:
            raise CheckpointError(
                "checkpoint bucket size differs from engine configuration"
            )
        if self.store is not None:
            if "store" not in payload:
                raise CheckpointError(
                    "checkpoint was written without a store; cannot resume "
                    "it into a store-backed engine"
                )
            self.store.restore(payload["store"])
        elif "store" in payload:
            raise CheckpointError(
                "checkpoint was written by a store-backed engine; configure "
                "the same --store directory to resume it"
            )
        else:
            self.rollup = StreamRollup.from_dict(payload["rollup"])
        self.detector = EwmaDetector.from_dict(payload["anomaly"])
        self._n_folded = payload["samples_done"]
        fed = payload["fed_through"]
        self._fed_through = -math.inf if fed is None else fed
        self._oldest_open = -math.inf
        self._watermark = payload["watermark"]
        self._safe_cursor = payload["cursor"]
        if self.source is not None:
            self.source.seek(payload["cursor"])
        self.metrics.resumed_from = payload["samples_done"]
        self.metrics.checkpoints_written = 0
        self.obs.counter("engine.resumes").inc()
        self.obs.event(
            "engine.resume",
            samples_done=payload["samples_done"],
            watermark=payload["watermark"],
        )

    def _checkpoint_state(self) -> dict:
        state = {
            "bucket_seconds": self.bucket_seconds,
            "cursor": self._safe_cursor,
            "watermark": self._watermark,
            "anomaly": self.detector.to_dict(),
            "fed_through": (
                None if self._fed_through == -math.inf else self._fed_through
            ),
        }
        if self.store is not None:
            # Sealed history lives in segments; the checkpoint carries
            # only the open tail -- O(open buckets), not O(history).
            state["store"] = self.store.checkpoint_state()
        else:
            state["rollup"] = self.rollup.to_dict()
        return state

    # ------------------------------------------------------------------
    # Windowing
    # ------------------------------------------------------------------
    def _close_ripe_windows(self) -> None:
        """Close every window the horizon has passed: feed, then seal."""
        if self._watermark is None:
            return
        horizon = self._watermark - self.bucket_seconds - self.grace_seconds
        if horizon < self._oldest_open:
            if horizon > self._fed_through:
                self._fed_through = horizon
            return
        self._feed_windows(horizon)
        if self.store is not None:
            # The same horizon that closes detector windows seals store
            # buckets: an in-order source can never touch them again.
            if self.store.seal_through(horizon):
                self.store.maybe_compact()

    def _unfed_slices(self) -> Dict[float, BucketSlice]:
        counters = self.store if self.store is not None else self.rollup
        return counters.slices_after(self._fed_through)

    def _feed_windows(self, horizon: float) -> None:
        """Feed the detector every window in (fed horizon, ``horizon``],
        in (bucket, country) order, from the windows' bucket slices."""
        slices = self._unfed_slices()
        ripe = sorted(bucket for bucket in slices if bucket <= horizon)
        if ripe:
            # One anomaly.observe span per non-empty sweep, not per
            # window: most records ripen nothing, and a per-window span
            # would make the detector look like a per-record stage.
            events_before = self.metrics.anomaly_events
            with self._t_anomaly:
                for bucket in ripe:
                    slice_ = slices[bucket]
                    for country in sorted(slice_.totals):
                        total = slice_.totals[country]
                        rate = 100.0 * slice_.matches.get(country, 0) / total
                        events = self.detector.observe(country, bucket, rate, total)
                        self.metrics.anomaly_events += len(events)
            rec = self._trace_rec
            if (
                rec.active is not None
                and self.metrics.anomaly_events > events_before
            ):
                # The record whose arrival closed an alerting window is
                # worth keeping whole, however fast it was.
                rec.pin(rec.active.trace_id, "anomaly")
        if horizon > self._fed_through:
            self._fed_through = horizon
        self._oldest_open = min(
            (bucket for bucket in slices if bucket > horizon), default=math.inf
        )

    def _fold(self, record: StreamRecord) -> None:
        """Geolocate, roll up, advance windows, checkpoint when due."""
        if self.geodb is not None:
            geo = self.geodb.lookup_or_none(record.client_ip)
            if geo is not None:
                record = record.located(geo.country, geo.asn)
        rec = self._trace_rec
        token = rec.begin("rollup.fold") if rec.active is not None else None
        with self._t_fold:
            if self.store is not None:
                self.store.add(record)
            else:
                self.rollup.add(record)
        if token is not None:
            rec.finish(token)
        self._n_folded += 1
        self.metrics.on_record_out(record.is_tampering)

        bucket = self.rollup.bucket_of(record.ts)
        if bucket < self._oldest_open:
            # This record's bucket is now the oldest one open (a late
            # record's bucket is swept once, to seal it, but not fed).
            self._oldest_open = bucket
        if self._watermark is None or record.ts > self._watermark:
            self._watermark = record.ts
        self._close_ripe_windows()

        if self.checkpointer is not None and self.checkpointer.due(self._n_folded):
            self.checkpoint_now()
        if self.progress is not None:
            self.progress.maybe_report(self.metrics)

    # ------------------------------------------------------------------
    # Input plumbing
    # ------------------------------------------------------------------
    def _source_items(self) -> Iterator[StreamItem]:
        """Iterate the source, absorbing transient errors with backoff.

        A :class:`~repro.errors.TransientSourceError` (I/O hiccup,
        half-written JSONL tail line, injected fault) re-seeks the
        source to its own cursor and re-iterates; the failure budget is
        *consecutive* -- any successful item resets it.  Every other
        error propagates immediately.
        """
        failures = 0
        # A warm read is a couple of microseconds, so per-read clocks
        # would tax it visibly: time 1 in _READ_SAMPLE reads and let the
        # weighted histogram estimate the rest (see SpanTimer).
        t_read = self.obs.timer("source.read", sample=_READ_SAMPLE)
        n_reads = 0
        while True:
            iterator = iter(self.source)
            try:
                while True:
                    if n_reads & (_READ_SAMPLE - 1):
                        item = next(iterator)
                    else:
                        with t_read:
                            item = next(iterator)
                    n_reads += 1
                    failures = 0
                    yield item
            except StopIteration:
                return
            except TransientSourceError:
                failures += 1
                if failures > self.max_source_retries:
                    raise
                self.metrics.source_retries += 1
                self._c_source_retries.inc()
                if self.retry_backoff_seconds > 0:
                    time.sleep(self.retry_backoff_seconds * (2 ** (failures - 1)))
                self.source.seek(self.source.cursor())

    def _pulled(self, max_samples: Optional[int]) -> Iterator[StreamItem]:
        """Deduplicated, head-sampled source items; tracks the cursor.

        The caller folds each item before asking for the next one, so
        the cursor read here is checkpoint-safe from that fold on.
        """
        iterator = self._source_items()
        pulled = 0
        for item in iterator:
            cursor = self.source.cursor()
            if cursor == self._safe_cursor:
                # An unchanged cursor means the source redelivered the
                # item it already handed out (at-least-once upstream,
                # retry replay): drop it, or the rollup double-counts.
                self.metrics.duplicates_dropped += 1
                continue
            self._safe_cursor = cursor
            pulled += 1
            sampler = self._trace_sampler
            if sampler is not None and sampler.decide():
                item = dataclasses.replace(
                    item,
                    trace=TraceContext(mint_trace_id(), mint_span_id(), True),
                )
            yield item
            if max_samples is not None and pulled >= max_samples:
                # The cap may coincide with the end of the source; peek
                # so a source holding exactly max_samples items still
                # reports finished and flushes its trailing windows.
                try:
                    next(iterator)
                except StopIteration:
                    self._source_exhausted = True
                return
        self._source_exhausted = True

    def _records(self, items: Iterator[StreamItem]) -> Iterator[StreamRecord]:
        """Classify items in order: the one path pull and push share.

        Each record's ``seq`` is its fold ordinal; the caller folds it
        before the next item is classified.
        """
        classifier = self._classifier
        obs = self.obs
        # With the memo enabled, timings are routed into hit/miss
        # histograms (a cache hit is ~feature extraction only, a miss
        # runs the full signature cascade); the split is detected from
        # the classifier's own hit counter, so it costs one compare.
        # Only every _CLASSIFY_SAMPLE-th record is clocked -- the
        # hit/miss *counters* are exact, the latency histograms are
        # weight-corrected estimates.
        split = self.classifier_config.cache_size > 0 and obs.enabled
        t_hit = obs.timer("classify.hit", sample=_CLASSIFY_SAMPLE)
        t_miss = obs.timer("classify.miss", sample=_CLASSIFY_SAMPLE)
        t_classify = obs.timer("classify")
        c_hits = obs.counter("classify.cache_hits")
        c_misses = obs.counter("classify.cache_misses")
        rec = self._trace_rec
        perf = time.perf_counter
        on_sample_in = self.metrics.on_sample_in
        # ``traced`` mirrors whether the recorder holds this thread's
        # active context.  Activation happens *here*, per item, because
        # the generator stays suspended while the caller folds the
        # yielded record -- so fold/WAL/seal spans all land under the
        # right request context without any parameter threading.
        traced = False
        try:
            for item in items:
                seq = self._n_folded
                on_sample_in()
                trace = item.trace
                if trace is not None or traced:
                    rec.activate(trace)
                    traced = rec.active is not None
                if split:
                    hits_before = classifier.cache_hits
                    if not traced and seq & (_CLASSIFY_SAMPLE - 1):
                        result = classifier.classify(item.sample)
                        if classifier.cache_hits > hits_before:
                            c_hits.inc()
                        else:
                            c_misses.inc()
                    else:
                        start = perf()
                        result = classifier.classify(item.sample)
                        duration = perf() - start
                        hit = classifier.cache_hits > hits_before
                        if not seq & (_CLASSIFY_SAMPLE - 1):
                            # Only stride observations feed the weighted
                            # histograms; a traced off-stride measurement
                            # must not inflate their estimated counts.
                            (t_hit if hit else t_miss).record(duration, start)
                        (c_hits if hit else c_misses).inc()
                        if traced:
                            rec.record_span(
                                "classify.hit" if hit else "classify.miss",
                                start, duration,
                            )
                elif traced:
                    start = perf()
                    with t_classify:
                        result = classifier.classify(item.sample)
                    rec.record_span("classify", start, perf() - start)
                else:
                    with t_classify:
                        result = classifier.classify(item.sample)
                yield StreamRecord.from_result(result, seq=seq, ts=item.ts)
        finally:
            if traced:
                rec.activate(None)

    # ------------------------------------------------------------------
    # Session start and finish (shared by pull and push mode)
    # ------------------------------------------------------------------
    def _begin(self, resume: bool) -> None:
        """Restore a checkpoint or refuse a populated store; start clocks."""
        if resume:
            if self.checkpointer is None:
                raise StreamError("resume requested but no checkpoint path configured")
            self._restore()
        elif self.store is not None and self.store.is_dirty:
            raise StreamError(
                "store directory already holds ingested state; resume from "
                "its checkpoint or start over with an empty directory "
                "(re-ingesting into a populated store would double-count)"
            )
        self._classifier = TamperingClassifier(self.classifier_config)
        self.metrics.start()

    def _finish(self, seal: bool) -> StreamReport:
        """End the session: flush windows and seal (``seal``) or leave
        them open for a resumed session, checkpoint, then report.

        Sealing freezes the trailing open buckets into segments so
        restarts (and `repro query`) see the whole history on disk.  A
        pause must not seal: the resumed session delivers more records
        for those buckets, and sealing would silently drop them (see
        ``RollupStore.sealed_skips``).
        """
        if seal:
            # End of stream: close every window still open.
            self._feed_windows(max(self._unfed_slices(), default=-math.inf))
            if self.store is not None:
                self.store.seal_open()
                self.store.maybe_compact()
        if self.checkpointer is not None and self._n_folded:
            self.checkpoint_now()
        if self.store is not None:
            self.store.flush()
            self.metrics.store_stats = self.store.stats()
            # Materialise the full (sealed + open) history so the report
            # and every downstream consumer see the same rollup a
            # store-less engine would have built.
            self.rollup = self.store.to_rollup()
        self._classifier = None
        return StreamReport(
            rollup=self.rollup,
            events=list(self.detector.events),
            metrics=self.metrics.snapshot(),
            finished=seal,
            samples_processed=self.rollup.n_records,
        )

    def checkpoint_now(self) -> None:
        """Write a checkpoint of the current state immediately."""
        if self.checkpointer is None:
            raise StreamError("no checkpoint path configured")
        with self._t_checkpoint:
            self.checkpointer.save(self._checkpoint_state(), self._n_folded)
        self.metrics.checkpoints_written += 1

    # ------------------------------------------------------------------
    # Pull mode
    # ------------------------------------------------------------------
    def run(
        self,
        max_samples: Optional[int] = None,
        resume: bool = False,
    ) -> StreamReport:
        """Drain the source (or ``max_samples`` of it) and report.

        With ``resume=True`` and an existing checkpoint, the engine
        restores rollup/detector/window state and seeks the source to
        the checkpointed cursor first -- nothing is reprocessed,
        nothing is skipped.
        """
        if self.source is None:
            raise StreamError(
                "run() needs a source; a source-less engine is driven "
                "through open_push()/push_items()/drain()"
            )
        self._begin(resume)
        try:
            for record in self._records(self._pulled(max_samples)):
                self._fold(record)
                if self._stop_requested:
                    break
        finally:
            self.metrics.stop()
            self.source.close()
        return self._finish(
            seal=self._source_exhausted and not self._stop_requested
        )

    def request_stop(self) -> None:
        """Ask a running ``run()`` loop to stop at the next record.

        Safe to call from a signal handler or another thread: it only
        sets a flag.  The loop finishes folding the current record,
        writes a resumable checkpoint (when one is configured), and
        returns a report with ``finished=False`` -- exactly the state a
        later ``run(resume=True)`` continues from.  Open store buckets
        are deliberately **not** sealed (see :meth:`_finish`).
        """
        self._stop_requested = True

    # ------------------------------------------------------------------
    # Push mode (the serve tier's entry point)
    # ------------------------------------------------------------------
    def open_push(self, resume: bool = False) -> None:
        """Start a push-ingest session on a source-less engine.

        Instead of pulling a :class:`SampleSource`, callers hand the
        engine already-timestamped items via :meth:`push_items` and end
        the session with :meth:`drain`.  ``resume=True`` restores an
        existing checkpoint (there is no source cursor to seek; the
        checkpoint's fold count plus the store's WAL truncation carry
        the alignment).
        """
        if self.source is not None:
            raise StreamError("open_push() requires a source-less engine")
        if self._push_open:
            raise StreamError("push session already open")
        self._begin(resume)
        self._stop_requested = False
        self._push_open = True

    def push_items(self, items: List[StreamItem]) -> int:
        """Classify and fold a batch of items; returns records folded.

        Items must arrive in non-decreasing ``ts`` order across calls
        (same contract as a pull source): watermark advancement seals
        store buckets behind the stream, and a late record for a sealed
        bucket would be dropped as a ``sealed_skip``.
        """
        if not self._push_open:
            raise StreamError("no push session open; call open_push() first")
        before = self._n_folded
        for record in self._records(iter(items)):
            # The push cursor is the fold count including this record,
            # set before the fold so a checkpoint it writes agrees.
            self._safe_cursor = self._n_folded + 1
            self._fold(record)
        return self._n_folded - before

    def drain(self, seal: bool = True) -> StreamReport:
        """End a push session: flush windows, checkpoint, seal, report.

        ``seal=True`` is the end of the stream: close every window,
        freeze the trailing open buckets into segments (readers see the
        whole history on disk).  ``seal=False`` is a pause: windows and
        open buckets stay open -- in the checkpoint and WAL -- for a
        resumed session that will keep feeding the same buckets.
        """
        if not self._push_open:
            raise StreamError("no push session open; call open_push() first")
        self.metrics.stop()
        report = self._finish(seal)
        self._push_open = False
        return report
