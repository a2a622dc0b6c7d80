"""Ring-buffered trace spans cheap enough for per-record hot paths.

The span ring is one preallocated ``array('d')`` holding three doubles
per span -- ``(name index, start, duration)`` -- written in place at a
wrapping cursor.  Stage names are interned to small indices once, at
timer-creation time, so recording a span is three adjacent double
stores and a cursor bump: no allocation (the transient floats are
copied out and freed), nothing for the garbage collector to trace, and
one cache line touched instead of three.  Both halves matter -- an
earlier deque-of-tuples ring cost the engine's fold loop several
percent of throughput in GC traffic and cold stores alone
(``benchmarks/bench_obs_overhead.py`` guards the budget).

The ring keeps the most recent ``capacity`` spans as a flight
recorder; complete per-stage distributions live in the histograms
(:mod:`repro.obs.registry`), so losing old spans loses no aggregate
information.  Lifecycle *events* (engine resume, serve rejections) are
rare and load-bearing -- the fire drills assert on them -- so they live
in their own small buffer where a flood of hot-path spans can never
evict them; they surface as zero-duration spans with ``kind="event"``
and an attrs dict.

Span start times are recorded as raw ``perf_counter`` values and
converted to epoch seconds only at export time, using a
``time.time()``/``perf_counter()`` pair captured when the tracer was
created.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import deque
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["Tracer"]

#: Doubles per ring slot: (name index, start, duration).
_SLOT = 3

#: Separate bound for the lifecycle-event buffer (events are rare).
DEFAULT_EVENT_CAPACITY = 256


class Tracer:
    """Bounded recorder of recent spans and lifecycle events."""

    def __init__(
        self,
        capacity: int = 4096,
        event_capacity: int = DEFAULT_EVENT_CAPACITY,
    ) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.capacity = capacity
        # The hot ring: SpanTimer writes _buf[_pos:_pos+3] in place.
        self._buf = array("d", bytes(8 * _SLOT * capacity))
        self._pos = 0  # in doubles, always a multiple of _SLOT
        self._wrapped = False
        self._name_table: List[str] = []
        self._name_index: Dict[str, float] = {}
        self._events: deque = deque(maxlen=max(1, event_capacity))
        self.total_spans = 0
        self.total_events = 0
        # Pairing these two clocks once lets every span carry only the
        # cheap monotonic reading; epoch conversion happens at export.
        self._epoch_time = time.time()
        self._epoch_perf = time.perf_counter()

    # ------------------------------------------------------------------
    def _register_name(self, name: str) -> float:
        """Intern ``name``; the returned float index is what slots store."""
        index = self._name_index.get(name)
        if index is None:
            index = float(len(self._name_table))
            self._name_table.append(name)
            self._name_index[name] = index
        return index

    def record(self, name: str, start: float, duration: float) -> None:
        """Append a finished span (``start`` is a ``perf_counter`` value).

        ``SpanTimer`` inlines this write; the method exists for direct
        callers and tests.
        """
        buf = self._buf
        i = self._pos
        buf[i] = self._register_name(name)
        buf[i + 1] = start
        buf[i + 2] = duration
        i += _SLOT
        if i == len(buf):
            self._pos = 0
            self._wrapped = True
        else:
            self._pos = i
        self.total_spans += 1

    def event(self, name: str, **attrs: object) -> None:
        """Record a zero-duration lifecycle event (restart, resume...)."""
        self._events.append((name, time.perf_counter(), attrs or None))
        self.total_spans += 1
        self.total_events += 1

    # ------------------------------------------------------------------
    def _to_epoch(self, perf_value: float) -> float:
        return self._epoch_time + (perf_value - self._epoch_perf)

    @property
    def _filled(self) -> int:
        """How many ring slots hold spans."""
        return self.capacity if self._wrapped else self._pos // _SLOT

    def _ring_entries(self) -> Iterator[Tuple[str, float, float]]:
        """(name, start, duration) oldest first, unwrapping the cursor."""
        buf = self._buf
        names = self._name_table
        offsets = range(self._pos, len(buf), _SLOT) if self._wrapped else ()
        for i in list(offsets) + list(range(0, self._pos, _SLOT)):
            yield names[int(buf[i])], buf[i + 1], buf[i + 2]

    def spans(self) -> List[Dict[str, object]]:
        """Ring spans plus events as JSON-safe dicts, oldest first."""
        out: List[Dict[str, object]] = []
        for name, start, duration in self._ring_entries():
            out.append(
                {
                    "name": name,
                    "ts": self._to_epoch(start),
                    "duration_seconds": duration,
                    "kind": "span",
                }
            )
        out.extend(self.events())
        out.sort(key=lambda span: span["ts"])
        return out

    def events(self, name: Optional[str] = None) -> List[Dict[str, object]]:
        """Just the buffered events, optionally filtered by name."""
        out: List[Dict[str, object]] = []
        for event_name, start, attrs in self._events:
            if name is not None and event_name != name:
                continue
            span: Dict[str, object] = {
                "name": event_name,
                "ts": self._to_epoch(start),
                "duration_seconds": 0.0,
                "kind": "event",
            }
            if attrs:
                span["attrs"] = attrs
            out.append(span)
        return out

    def export_jsonl(self, path: str) -> int:
        """Write the ring as one JSON object per line; returns span count."""
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
        return len(spans)

    def stats(self) -> Dict[str, int]:
        return {
            "capacity": self.capacity,
            "recorded": self._filled + len(self._events),
            "total_spans": self.total_spans,
            "total_events": self.total_events,
        }
