"""Load generation and the statistics the benchmark reports.

One asyncio thread drives at most two keep-alive HTTP/1.1 connections.

Open loop: every request has a *due* time fixed before timing starts; it
is sent at that time, or as soon as its connection is free if the
previous reply is late.  Latency is measured from the due time, so a
stall is charged to every request it delays.  Generator lateness (how
late the loop woke for a request whose connection was idle) is kept
separately: when it is large the generator, not the server, was the
bottleneck.

Closed loop: ingest POSTs back to back, holding back while the server
reports a deep queue, so the rate found is the one the server sustains
without rejecting anything.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import math
import time
from typing import Awaitable, Callable, List, Optional, Sequence, Tuple

clock = time.monotonic

#: Candidate percentiles, highest first.
PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


# -- statistics ---------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of unsorted values."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supported_percentile(n: int, highest: float = 99.9) -> Optional[float]:
    """The highest candidate percentile (at most ``highest``) with at
    least ten samples beyond it, or None when even the median has not."""
    for q in PERCENTILES:
        if q <= highest and round(n * (100.0 - q) / 100.0, 6) >= 10:
            return q
    return None


def weighted_percentile(pairs: Sequence[Tuple[float, int]], q: float) -> float:
    """Percentile ``q`` of values given as (value, weight) pairs."""
    ordered = sorted(pairs)
    total = sum(w for _, w in ordered)
    if not total:
        raise ValueError("percentile of no samples")
    target = q / 100.0 * total
    seen = 0
    for value, weight in ordered:
        seen += weight
        if seen >= target:
            return value
    return ordered[-1][0]


def visibility_lags(posts, readiness, folded_base: int = 0) -> List[Tuple[float, float]]:
    """(probe time, lag seconds) for every readiness probe.

    ``posts`` are (due, records, accepted) in send order; ``readiness``
    are (reply time, folded count).  The lag is the age of the newest
    folded record: reply time minus the due time of the accepted POST
    holding record number ``folded - folded_base``.  Rejected POSTs
    never fold, so only accepted ones advance the count.
    """
    dues, cumulative, total = [], [], 0
    for due, records, accepted in posts:
        if accepted:
            total += records
            dues.append(due)
            cumulative.append(total)
    lags = []
    for at, folded in readiness:
        k = folded - folded_base
        if k <= 0 or not cumulative:
            continue
        index = min(bisect.bisect_left(cumulative, k), len(dues) - 1)
        lags.append((at, at - dues[index]))
    return lags


# -- HTTP ----------------------------------------------------------------
def http_request(method: str, target: str, body: bytes = b"") -> bytes:
    """Raw HTTP/1.1 keep-alive request bytes."""
    head = (
        f"{method} {target} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


class Connection:
    """One keep-alive connection; requests are strictly serial on it."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def request(self, raw: bytes) -> Tuple[int, bytes]:
        """Send one request; (status, body).  Reconnects once if closed."""
        if self.writer is None:
            await self.open()
        self.writer.write(raw)
        head = await self.reader.readuntil(b"\r\n\r\n")
        status = int(head[9:12])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        body = await self.reader.readexactly(length) if length else b""
        return status, body

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.writer = self.reader = None


class Outcome:
    """One request's fate; times are ``clock()`` seconds."""

    __slots__ = ("due", "sent", "done", "status", "body", "lateness", "tag")

    def __init__(self, due, tag) -> None:
        self.due, self.tag = due, tag
        self.sent = self.done = None
        self.status = 0  # 0 = transport error or never sent
        self.body = b""
        self.lateness = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def latency(self) -> float:
        """Seconds from due to reply; infinite when it failed."""
        return self.done - self.due if self.ok else math.inf


async def open_loop(conn: Connection, plan: Sequence[Tuple[float, bytes, object]],
                    deadline: Optional[float] = None) -> List[Outcome]:
    """Send (due, raw request, tag) entries in order at their due times.

    Entries still unsent at ``deadline`` are returned unsent (failed).
    """
    outcomes = []
    for due, raw, tag in plan:
        outcome = Outcome(due, tag)
        outcomes.append(outcome)
        now = clock()
        if now < due:
            await asyncio.sleep(due - now)
            outcome.lateness = clock() - due
        elif deadline is not None and now > deadline:
            continue
        outcome.sent = clock()
        try:
            outcome.status, outcome.body = await conn.request(raw)
        except (OSError, asyncio.IncompleteReadError, asyncio.LimitOverrunError, ValueError):
            await conn.close()
            outcome.status = 0
        outcome.done = clock()
    return outcomes


async def closed_loop(conn: Connection, next_post: Callable[[], Optional[Tuple[bytes, object]]],
                      queued: Callable[[], Awaitable[int]], until: Optional[float] = None,
                      hold_queued: int = 1024, pause: float = 0.005) -> list:
    """POST ``next_post()`` entries back to back until it returns None or
    ``until`` passes; returns the tags of the accepted ones, in order.

    Whenever a 202 reports more than ``hold_queued`` records queued, the
    next POST waits until ``queued()`` (polled every ``pause``) is back
    under it, so the server's queue never fills.  A 429 is retried after
    ``pause``; any other status raises ``ValueError``.
    """
    accepted = []
    while until is None or clock() < until:
        entry = next_post()
        if entry is None:
            break
        raw, tag = entry
        while True:
            status, body = await conn.request(raw)
            if status != 429:
                break
            await asyncio.sleep(pause)
        if status != 202:
            raise ValueError(f"ingest POST answered {status}")
        accepted.append(tag)
        if json.loads(body)["queued"] > hold_queued:
            while await queued() > hold_queued:
                await asyncio.sleep(pause)
    return accepted
