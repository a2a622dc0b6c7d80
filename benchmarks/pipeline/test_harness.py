"""Tests of the pipeline benchmark's own code (not of the program).

Run explicitly; a few seconds, no program under test, no simulation:

    PYTHONPATH=src python -m pytest benchmarks/pipeline/test_harness.py -q
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import ledger  # noqa: E402
import loadgen  # noqa: E402


# -- percentile-support rule ------------------------------------------------
@pytest.mark.parametrize("n, expected", [
    (10_000, 99.9), (1000, 99.0), (600, 98.0), (300, 95.0),
    (100, 90.0), (40, 75.0), (20, 50.0), (19, None),
])
def test_supported_percentile_keeps_ten_samples_beyond(n, expected):
    assert loadgen.supported_percentile(n) == expected


def test_supported_percentile_respects_ceiling():
    assert loadgen.supported_percentile(10_000, highest=99.0) == 99.0


def test_weighted_percentile_counts_weights():
    pairs = [(1.0, 98), (50.0, 2)]
    assert loadgen.weighted_percentile(pairs, 50) == 1.0
    assert loadgen.weighted_percentile(pairs, 99) == 50.0


# -- due-time latency accounting ----------------------------------------------
async def _stalling_server(stall_on: int, stall: float):
    """HTTP server answering 200 at once, except request ``stall_on``."""
    count = [0]

    async def handle(reader, writer):
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
                await reader.readexactly(length)
                count[0] += 1
                if count[0] == stall_on:
                    await asyncio.sleep(stall)
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_latency_is_charged_from_due_time_through_a_stall():
    async def scenario():
        server = await _stalling_server(stall_on=3, stall=0.2)
        port = server.sockets[0].getsockname()[1]
        conn = loadgen.Connection("127.0.0.1", port)
        start = loadgen.clock() + 0.05
        raw = loadgen.http_request("GET", "/")
        plan = [(start + 0.02 * k, raw, k) for k in range(8)]
        outcomes = await loadgen.open_loop(conn, plan)
        await conn.close()
        server.close()
        await server.wait_closed()
        return outcomes

    outcomes = asyncio.run(scenario())
    assert all(o.ok for o in outcomes)
    stalled = outcomes[2]
    assert stalled.latency >= 0.2
    # Requests due during the stall waited for it: their latency counts
    # the wait from their due time, not from when they were sent.
    for later in outcomes[3:6]:
        assert later.sent - later.due > 0.05
        assert later.latency >= later.sent - later.due
        assert later.lateness is None  # the connection, not the generator, was late
    assert outcomes[0].lateness is not None and outcomes[0].lateness < 0.05


def test_unsent_requests_past_deadline_fail():
    async def scenario():
        server = await _stalling_server(stall_on=1, stall=0.2)
        port = server.sockets[0].getsockname()[1]
        conn = loadgen.Connection("127.0.0.1", port)
        start = loadgen.clock()
        raw = loadgen.http_request("GET", "/")
        outcomes = await loadgen.open_loop(
            conn, [(start, raw, 0), (start + 0.01, raw, 1)], deadline=start + 0.1)
        await conn.close()
        server.close()
        await server.wait_closed()
        return outcomes

    first, second = asyncio.run(scenario())
    assert first.ok and not second.ok and second.sent is None


def test_visibility_lag_skips_rejected_posts():
    posts = [(0.0, 10, True), (1.0, 10, False), (2.0, 10, True)]
    readiness = [(0.5, 0), (0.5, 5), (2.5, 10), (3.0, 20)]
    assert loadgen.visibility_lags(posts, readiness) == [(0.5, 0.5), (2.5, 2.5), (3.0, 1.0)]


# -- closed loop against a synthetic capacity ----------------------------------------
async def _capacity_server(rate: float, limit: int, reject_first: bool = False):
    """Ingest server that folds ``rate`` records/s from a queue of at most
    ``limit`` records: a POST gets 202 {"queued": n} or 429 when full, a
    GET gets 200 {"queued": n}."""
    state = {"queued": 0.0, "peak": 0.0, "at": loadgen.clock(), "rejected": 0,
             "first": reject_first}

    async def handle(reader, writer):
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
                body = await reader.readexactly(length)
                now = loadgen.clock()
                state["queued"] = max(0.0, state["queued"] - rate * (now - state["at"]))
                state["at"] = now
                state["peak"] = max(state["peak"], state["queued"])
                if head.startswith(b"GET"):
                    body = json.dumps({"queued": int(state["queued"])}).encode()
                    writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s"
                                 % (len(body), body))
                    await writer.drain()
                    continue
                records = len(json.loads(body))
                if state["first"] or state["queued"] + records > limit:
                    state["first"] = False
                    state["rejected"] += 1
                    writer.write(b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\n\r\n{}")
                else:
                    state["queued"] += records
                    body = json.dumps({"queued": int(state["queued"])}).encode()
                    writer.write(b"HTTP/1.1 202 Accepted\r\nContent-Length: %d\r\n\r\n%s"
                                 % (len(body), body))
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0), state


def test_closed_loop_sustains_capacity_without_filling_the_queue():
    capacity, hold = 4000.0, 256

    async def scenario():
        server, state = await _capacity_server(capacity, limit=1024)
        port = server.sockets[0].getsockname()[1]
        conn, side = loadgen.Connection("127.0.0.1", port), loadgen.Connection("127.0.0.1", port)
        raw = loadgen.http_request("POST", "/v1/samples", json.dumps([0] * 32).encode())
        poll = loadgen.http_request("GET", "/readyz")

        async def queued():
            return json.loads((await side.request(poll))[1])["queued"]

        start = loadgen.clock()
        tags = await loadgen.closed_loop(conn, lambda: (raw, 32), queued, until=start + 0.6,
                                         hold_queued=hold, pause=0.005)
        elapsed = loadgen.clock() - start
        await conn.close()
        await side.close()
        server.close()
        await server.wait_closed()
        return sum(tags), state, elapsed

    accepted, state, elapsed = asyncio.run(scenario())
    assert state["rejected"] == 0
    assert state["peak"] <= 2 * hold
    sustained = (accepted - state["queued"]) / elapsed
    assert 0.8 * capacity <= sustained <= 1.05 * capacity


def test_closed_loop_retries_a_rejected_post_once_accepted():
    async def scenario():
        server, state = await _capacity_server(1e6, limit=10_000, reject_first=True)
        conn = loadgen.Connection("127.0.0.1", server.sockets[0].getsockname()[1])
        posts = iter([(loadgen.http_request("POST", "/", b"[1]"), "a"),
                      (loadgen.http_request("POST", "/", b"[2]"), "b")])
        tags = await loadgen.closed_loop(conn, lambda: next(posts, None), queued=None)
        await conn.close()
        server.close()
        await server.wait_closed()
        return tags, state

    tags, state = asyncio.run(scenario())
    assert tags == ["a", "b"] and state["rejected"] == 1


# -- self time from nested and aggregated spans ------------------------------------
class _Layers:
    def outer(self):
        time.sleep(0.01)
        for _ in range(2):
            self.per_record()

    def per_record(self):
        time.sleep(0.005)
        self.inner()

    def inner(self):
        time.sleep(0.01)


def test_self_time_subtracts_nested_and_aggregated_children():
    book = ledger.Ledger()
    book.wrap(_Layers, "outer", "outer")
    book.wrap(_Layers, "per_record", "record", ledger.RECORD)
    book.wrap(_Layers, "inner", "inner")
    _Layers().outer()

    spans = {s["name"]: s for s in book.spans}
    assert set(spans) == {"outer", "inner"}
    outer = spans["outer"]
    count, wall, _, self_wall, _ = outer["agg"]["record"]
    assert count == 2
    assert wall == pytest.approx(0.03, abs=0.01)
    assert self_wall == pytest.approx(0.01, abs=0.005)
    assert outer["self_wall"] == pytest.approx(0.01, abs=0.005)
    assert outer["wall"] == pytest.approx(0.04, abs=0.01)

    totals = ledger.layer_totals(book.spans)
    assert totals["inner"][0] == 2
    assert totals["record"][0] == 2
    self_sum = sum(row[3] for row in totals.values())
    assert self_sum == pytest.approx(outer["wall"], rel=1e-6)


def test_layer_totals_window_keeps_spans_by_start():
    book = ledger.Ledger()
    book.wrap(_Layers, "inner", "inner")
    _Layers().inner()
    cut = ledger._now()
    _Layers().inner()
    assert ledger.layer_totals(book.spans, cut, float("inf"))["inner"][0] == 1


# -- compare.py verdicts ----------------------------------------------------------
def _seeds(values) -> dict:
    return dict(enumerate(values, 1))


def test_compare_verdicts():
    base = _seeds([100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0])
    scaled = lambda k, add=0.0: {s: v * k + add for s, v in base.items()}  # noqa: E731
    same = compare.verdict(base, scaled(1.0, 0.1), 0.1, "lower")
    assert same["verdict"] == "ok" and not same["gain"]
    slower = compare.verdict(base, scaled(1.2), 0.1, "lower")
    assert slower["verdict"] == "regressed" and slower["wins"] == 0
    faster = compare.verdict(base, scaled(0.8), 0.1, "lower")
    assert faster["verdict"] == "ok" and faster["gain"] and faster["wins"] == 10
    noisy = _seeds([50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0])
    assert compare.verdict(noisy, noisy, 0.1, "lower")["verdict"] == "unresolved"
    # Unless every new run beats every base run.
    assert compare.verdict(noisy, _seeds([10.0] * 10), 0.1, "lower")["verdict"] == "ok"
    higher = compare.verdict(base, scaled(0.85), 0.1, "higher")
    assert higher["verdict"] == "regressed"


def _run(workload, seed, value, failed=0):
    return {"workload": workload, "seed": seed, "metrics": {"x": value},
            "attempted": 100, "failed": failed}


_BENCH = {"workloads": [{"name": "w"}],
          "end_to_end": [{"name": "x", "bound": 0.1, "better": "lower"}]}


def test_compare_pairs_runs_by_seed_not_position():
    # Each seed is 10% faster in NEW; the sides list different seeds in
    # different orders, so pairing by position would mismatch them.
    base = [_run("w", s, 100.0 + s) for s in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)]
    new = [_run("w", s, 0.9 * (100.0 + s)) for s in (10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 12)]
    (_, _, v), _ = compare.compare(base, new, _BENCH)
    assert v["pairs"] == 10 and v["wins"] == 10 and v["gain"]


def test_compare_rejects_a_seed_twice_on_one_side():
    base = [_run("w", s, 100.0) for s in (1, 1, 2, 2)]
    with pytest.raises(ValueError, match="seed 1"):
        compare.compare(base, [_run("w", 1, 90.0), _run("w", 2, 90.0)], _BENCH)


def test_compare_gain_void_when_more_requests_failed():
    base = [_run("w", s, 100.0 + s) for s in range(1, 11)]
    new = [_run("w", s, 80.0 + s, failed=1) for s in range(1, 11)]
    (_, _, v), (_, name, failed) = compare.compare(base, new, _BENCH)
    assert v["wins"] == 10 and not v["gain"]
    assert name == "failed_pct" and failed["verdict"] == "regressed"
