"""Span ledger recorded from outside the program under test.

The launchers (``server.py``, ``stream.py``) wrap each layer's entry
points *before* the service is constructed, so the program itself is
unmodified.  Every wrapped call records wall time (``time.monotonic``,
which is the same clock in every process on Linux) and CPU time
(``time.thread_time``):

* ``CALL`` spans nest on a thread-local stack and are kept one by one.
* ``RECORD`` calls (once per record: classify, geo lookup, ...) are not
  kept one by one; they are aggregated into their nearest enclosing
  ``CALL`` span as ``[count, wall, cpu, self_wall, self_cpu]``.
* ``ROOT`` spans are ``CALL`` spans that bound a whole thread (the event
  loop, the ingest worker); their self time is the thread's work that no
  finer span covers.
* Coroutines that interleave (``_read_request``) are recorded flat by
  the caller with :meth:`Ledger.flat`, never on the stack.

Self time = span - the part its children cover.  Spans stay in memory
and :meth:`Ledger.write` dumps them as ``spans.jsonl`` at exit.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from typing import Dict, List, Optional

CALL, RECORD, ROOT = "call", "record", "root"

_now = time.monotonic
_cpu = time.thread_time


class Ledger:
    """Thread-safe span store; see the module docstring."""

    def __init__(self) -> None:
        self._local = threading.local()
        self.spans: List[dict] = []
        #: RECORD calls made with no CALL span open on their thread.
        self.loose: Dict[str, List[float]] = {}
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, kind: str) -> list:
        """Open a frame: [name, kind, t0, c0, child_wall, child_cpu, agg]."""
        stack = self._stack()
        if kind == RECORD:
            agg = stack[-1][6] if stack else self.loose
        else:
            agg = {}
        frame = [name, kind, _now(), _cpu(), 0.0, 0.0, agg]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        wall = _now() - frame[2]
        cpu = _cpu() - frame[3]
        stack = self._stack()
        stack.pop()
        if stack:
            parent = stack[-1]
            parent[4] += wall
            parent[5] += cpu
        self_wall = wall - frame[4]
        self_cpu = cpu - frame[5]
        name, kind = frame[0], frame[1]
        if kind == RECORD:
            agg = frame[6]
            if agg is self.loose:
                with self._lock:
                    _accumulate(agg, name, wall, cpu, self_wall, self_cpu)
            else:  # owned by one CALL frame on this thread
                _accumulate(agg, name, wall, cpu, self_wall, self_cpu)
            return
        self.spans.append({
            "name": name,
            "kind": kind,
            "thread": threading.current_thread().name,
            "parent": stack[-1][0] if stack else None,
            "start": frame[2],
            "wall": wall,
            "cpu": cpu,
            "self_wall": self_wall,
            "self_cpu": self_cpu,
            "agg": frame[6],
        })

    def flat(self, name: str, start: float, wall: float) -> None:
        """A span from an interleaving coroutine: wall time only."""
        self.spans.append({
            "name": name, "kind": "flat", "thread": "loop", "parent": None,
            "start": start, "wall": wall, "cpu": 0.0,
            "self_wall": wall, "self_cpu": 0.0, "agg": {},
        })

    # -- wrapping --------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, kind: str = CALL) -> None:
        """Replace ``owner.attr`` (function, method, classmethod,
        coroutine function or generator function) with a timed twin."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self._timed(raw.__func__, name, kind)))
        elif isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(self._timed(raw.__func__, name, kind)))
        else:
            setattr(owner, attr, self._timed(raw, name, kind))

    def _timed(self, fn, name: str, kind: str):
        enter, exit_ = self.enter, self.exit
        if inspect.iscoroutinefunction(fn):
            # Only for coroutines with no suspension point inside (the
            # frame must not interleave with another task's frames).
            @functools.wraps(fn)
            async def timed_coro(*args, **kwargs):
                frame = enter(name, kind)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    exit_(frame)
            return timed_coro
        if inspect.isgeneratorfunction(fn):
            # Each next() is one RECORD call (e.g. one source read).
            @functools.wraps(fn)
            def timed_gen(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    frame = enter(name, RECORD)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        exit_(frame)
                    yield item
            return timed_gen

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = enter(name, kind)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)
        return timed

    # -- export ----------------------------------------------------------
    def write(self, path: str, extra: Optional[dict] = None) -> None:
        """Write spans (one JSON object per line), then one ``extra`` line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
            if self.loose:
                fh.write(json.dumps({
                    "name": "(no enclosing span)", "kind": "loose",
                    "thread": "", "parent": None, "start": 0.0, "wall": 0.0,
                    "cpu": 0.0, "self_wall": 0.0, "self_cpu": 0.0,
                    "agg": self.loose,
                }) + "\n")
            fh.write(json.dumps({"kind": "extra", **(extra or {})}) + "\n")


def instrument(ledger: Ledger, serve: bool) -> dict:
    """Wrap every pipeline layer's entry points; call before construction.

    Layers are named after their modules.  Private entry points are
    wrapped where a layer has no public one.  With ``serve`` the HTTP
    tier is wrapped too, plus a per-record queue-wait clock on the
    batcher and a 10 ms event-loop ticker.  Returns the dict those two
    fill in (``queue_waits``, ``ticks``).
    """
    from repro.cdn import collector, geo
    from repro.core import classifier
    from repro.store import compaction, store, wal
    from repro.stream import anomaly, checkpoint, engine, source

    extra: dict = {"queue_waits": [], "ticks": []}
    wrap = ledger.wrap
    wrap(engine.StreamEngine, "run", "stream.engine.run")
    wrap(engine.StreamEngine, "push_items", "stream.engine.push_items")
    wrap(engine.StreamEngine, "_fold", "stream.engine.fold", RECORD)
    wrap(classifier.TamperingClassifier, "classify", "core.classifier.classify", RECORD)
    wrap(geo.GeoDatabase, "lookup_or_none", "cdn.geo.lookup", RECORD)
    wrap(collector.ConnectionSample, "from_dict", "cdn.collector.from_dict", RECORD)
    wrap(source.JsonlSource, "__iter__", "stream.source.read", RECORD)
    wrap(store.RollupStore, "add", "store.add", RECORD)
    wrap(store.RollupStore, "_seal_buckets", "store.seal")
    wrap(store.RollupStore, "to_rollup", "store.materialise")
    wrap(store.RollupStore, "maybe_refresh", "store.refresh")
    wrap(store.RollupStore, "query", "store.query")
    wrap(wal.WriteAheadLog, "sync", "store.wal.sync")
    wrap(compaction.Compactor, "_merge_level", "store.compact")
    wrap(checkpoint.CheckpointManager, "save", "stream.checkpoint.save")
    wrap(anomaly.EwmaDetector, "observe", "stream.anomaly.observe", RECORD)
    if serve:
        _instrument_serve(ledger, extra)
    return extra


def _instrument_serve(ledger: Ledger, extra: dict) -> None:
    import asyncio
    from collections import deque

    from repro.serve import batcher, httpd, ratelimit, service

    wrap = ledger.wrap
    wrap(service.ServeService, "run", "serve.loop", ROOT)
    wrap(service.ServeService, "_ingest_worker", "serve.ingest_worker", ROOT)
    # _handle awaits nothing, so its frame cannot interleave with
    # another task's frames on the loop thread.
    wrap(service.ServeService, "_handle", "serve.service.handle")
    wrap(service, "_parse_sample_entries", "serve.service.decode")
    wrap(ratelimit.ClientRateLimiter, "try_acquire", "serve.ratelimit.acquire")

    read_request = httpd._read_request

    async def timed_read(*args, **kwargs):
        request = await read_request(*args, **kwargs)
        if request is not None:
            # ``received`` is perf_counter, which is CLOCK_MONOTONIC on
            # Linux like time.monotonic.
            ledger.flat("serve.httpd.read", request.received,
                        time.perf_counter() - request.received)
        return request

    httpd._read_request = timed_read

    # Queue wait per record: FIFO stamps at offer, popped at next_batch.
    # The stamp is pushed before the offer so the worker always finds it.
    pending: deque = deque()
    lock = threading.Lock()
    waits = extra["queue_waits"]
    offer, next_batch = batcher.MicroBatcher.offer, batcher.MicroBatcher.next_batch

    def stamped_offer(self, records):
        with lock:
            pending.append([_now(), len(records)])
        accepted = offer(self, records)
        if not accepted:
            with lock:
                pending.pop()  # only the loop thread appends
        return accepted

    def stamped_next_batch(self):
        batch = next_batch(self)
        if batch:
            now, left = _now(), len(batch)
            with lock:
                while left:
                    head = pending[0]
                    taken = min(left, head[1])
                    waits.append((now, now - head[0], taken))
                    head[1] -= taken
                    left -= taken
                    if not head[1]:
                        pending.popleft()
        return batch

    batcher.MicroBatcher.offer = stamped_offer
    batcher.MicroBatcher.next_batch = stamped_next_batch
    wrap(batcher.MicroBatcher, "offer", "serve.batcher.offer")
    wrap(batcher.MicroBatcher, "next_batch", "serve.batcher.next_batch")

    ticks = extra["ticks"]
    start = httpd.HttpServer.start

    async def start_with_ticker(self):
        await start(self)
        loop = asyncio.get_running_loop()

        def tick(due):
            now = _now()
            ticks.append((now, now - due, _cpu()))
            loop.call_later(0.01, tick, now + 0.01)

        loop.call_later(0.01, tick, _now() + 0.01)

    httpd.HttpServer.start = start_with_ticker


def vm_hwm_kb() -> int:
    """Peak resident set of this process (Linux ``VmHWM``), in KiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _accumulate(agg, name, wall, cpu, self_wall, self_cpu) -> None:
    row = agg.get(name)
    if row is None:
        agg[name] = [1, wall, cpu, self_wall, self_cpu]
    else:
        row[0] += 1
        row[1] += wall
        row[2] += cpu
        row[3] += self_wall
        row[4] += self_cpu


def read_spans(path: str):
    """(spans, extra) from a file written by :meth:`Ledger.write`."""
    spans, extra = [], {}
    with open(path) as fh:
        for line in fh:
            entry = json.loads(line)
            if entry.get("kind") == "extra":
                extra = entry
            else:
                spans.append(entry)
    return spans, extra


def layer_totals(spans, start: float = float("-inf"), end: float = float("inf")):
    """name -> [count, wall, cpu, self_wall, self_cpu] over a time window.

    CALL/flat spans count when they *start* inside ``[start, end)``;
    aggregated RECORD rows ride with their enclosing span.  ROOT spans
    are whole-thread bounds, reported under their own name only when
    the window is unbounded.
    """
    totals: Dict[str, List[float]] = {}
    unbounded = start == float("-inf") and end == float("inf")
    for span in spans:
        if span["kind"] in (ROOT, "loose"):
            if not unbounded:
                continue
        elif not start <= span["start"] < end:
            continue
        if span["kind"] != "loose":
            _accumulate(totals, span["name"], span["wall"], span["cpu"],
                        span["self_wall"], span["self_cpu"])
        for name, row in span["agg"].items():
            mine = totals.setdefault(name, [0, 0.0, 0.0, 0.0, 0.0])
            for i, value in enumerate(row):
                mine[i] += value
    return totals
