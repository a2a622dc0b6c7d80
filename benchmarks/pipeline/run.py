"""The pipeline benchmark: serve ingest, query-under-ingest, offline backfill.

The program under test always runs in its own subprocess (``server.py``
or ``stream.py``); this process is the load generator: one asyncio
thread, at most two keep-alive connections.  It checks the results
against verdicts computed from the input pool and prints every metric.

Whole suite (tables on stdout, non-zero exit on any failed check)::

    PYTHONPATH=src python benchmarks/pipeline/run.py --seed 7 [--traced] [--out FILE]

One workload, one JSON object as the last stdout line::

    python benchmarks/pipeline/run.py --workload live-ingest --seed 3 \\
        --seconds 30 --trace 0

See README.md in this directory for the method and its limits.
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import collections
import http.client
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Caches and per-run scratch; inside the checkout, ignored by git.
WORK = ROOT / ".pipeline-bench"

import ledger as ledger_mod  # noqa: E402
import loadgen  # noqa: E402
from loadgen import clock  # noqa: E402
# The record pool is one fixed simulation, in the World the launchers
# geolocate with, so runs with different ``--seed`` share one cache; the
# seed drives the generator instead.
from server import GEO_SEED as POOL_SEED  # noqa: E402

WORKLOADS = ("live-ingest", "mixed-read", "offline-backfill")
POOL_SIZE = 20_000
SMOKE_POOL_SIZE = 2_000
POST_RECORDS = 32
BACKFILL_RECORDS = 512
#: Wall seconds one offline cycle of the full pool takes on a loaded
#: 2-core host (6-9 s measured; 5 s at reference speed); sizes the
#: input so one job lasts about the run.
OFFLINE_CYCLE_SECONDS = 6.0
#: An offline job stops reading after this many times the run's seconds,
#: so a slow host shortens the input instead of stretching the run.
OFFLINE_MAX_STRETCH = 1.5
DAY = 86400.0
HOUR = 3600.0
#: 2023-01-12 00:00 UTC, where the simulated two weeks start.
JAN_12_2023 = 1673481600.0
#: live-ingest: the fixed rate of phase A.
PHASE_A_RATE = 2000.0
#: Closed-loop ingest holds back while more records than this are queued
#: (four full micro-batches), so the queue never fills and nothing is
#: rejected.
HOLD_QUEUED = 1024
MIXED_RATE = 1000.0
QUERY_RATE = 10.0
READYZ_RATE = 50.0
QUERIES = (
    "/v1/query?family=country_tampering_rate",
    "/v1/query?family=timeseries&countries=IR,CN,RU",
    "/v1/query?family=stage_statistics",
    "/v1/query?family=signature_hour_counts&country=CN",
)
#: Set-up is timed this many times per run; the median is reported.
SETUPS = 5
MAX_LATENESS_P99_MS = 10.0
#: Speed-probe work units per CPU-second that this machine typically
#: reaches; time metrics are reported as if the probe had run this fast.
REF_SPEED = 2000.0
MIN_PROBE_CPU = 0.2


def _metric_units(kind: str) -> dict:
    """name -> unit of the ``kind`` metrics BENCHMARK.json declares."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class BenchError(Exception):
    """The benchmark could not run (not a performance result)."""


# -- the input pool ------------------------------------------------------
class Pool:
    """Pre-encoded sample JSON plus each sample's expected verdict."""

    def __init__(self, lines, meta) -> None:
        self.lines = lines
        self.ts = meta["ts"]
        self.country = meta["country"]
        self.tampering = meta["tampering"]
        self.possibly = meta["possibly"]

    def __len__(self) -> int:
        return len(self.lines)


def load_pool(n: int) -> Pool:
    """The cached pool of ``two_week_study(n, POOL_SEED)``; built once."""
    path = WORK / f"pool-s{POOL_SEED}-n{n}.jsonl"
    meta_path = path.with_suffix(".meta.json")
    if not meta_path.exists():
        _build_pool(n, path, meta_path)
    lines = path.read_bytes().split(b"\n")[:-1]
    with open(meta_path) as fh:
        return Pool(lines, json.load(fh))


def _build_pool(n: int, path: Path, meta_path: Path) -> None:
    from repro.cdn.collector import ConnectionSample
    from repro.core.classifier import TamperingClassifier
    from repro.workloads.scenarios import two_week_study

    print(f"simulating the {n}-connection pool (cached in {WORK.name}/)...",
          file=sys.stderr)
    study = two_week_study(n_connections=n, seed=POOL_SEED)
    samples = sorted(study.samples, key=lambda s: study.timestamps[s.conn_id])
    classifier = TamperingClassifier()
    meta = {"ts": [], "country": [], "tampering": [], "possibly": []}
    lines = []
    for sample in samples:
        line = json.dumps(sample.to_dict(), separators=(",", ":"))
        # Verdicts come from the round-tripped sample: what the server sees.
        result = classifier.classify(ConnectionSample.from_dict(json.loads(line)))
        geo = study.geo.lookup_or_none(sample.client_ip)
        lines.append(line)
        meta["ts"].append(study.timestamps[sample.conn_id])
        meta["country"].append(geo.country if geo is not None else "??")
        meta["tampering"].append(int(result.signature.is_tampering))
        meta["possibly"].append(int(result.possibly_tampered))
    WORK.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text("".join(line + "\n" for line in lines))
    os.replace(tmp, path)
    tmp.write_text(json.dumps(meta))
    os.replace(tmp, meta_path)


def offline_cycles(seconds: float) -> int:
    """Pool cycles one offline job reads: about ``seconds`` of work."""
    return max(1, math.ceil(seconds / OFFLINE_CYCLE_SECONDS))


def offline_file(pool: Pool, cycles: int) -> Path:
    """``cycles`` copies of the pool, cycle c shifted by c x 14 days.

    Shifting every packet ``ts`` and ``window_end`` by whole days keeps
    each verdict; the stream sees time move forward across cycles.
    """
    path = WORK / f"offline-s{POOL_SEED}-n{len(pool)}-x{cycles}.jsonl"
    if not path.exists():
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            dicts = [json.loads(line) for line in pool.lines]
            for cycle in range(cycles):
                shift = cycle * 14 * DAY
                for sample in dicts:
                    shifted = dict(sample, window_end=sample["window_end"] + shift)
                    shifted["packets"] = [
                        dict(p, ts=p["ts"] + shift) for p in sample["packets"]
                    ]
                    fh.write(json.dumps(shifted, separators=(",", ":")) + "\n")
        os.replace(tmp, path)
    return path


# -- correctness -----------------------------------------------------------
def expected_rollup(pool: Pool, counts) -> dict:
    """Totals the store must hold after ingesting ``counts[i]`` copies of
    pool record ``i``, from the pool's own verdicts and geolocation."""
    total = possibly = 0
    per_country = collections.defaultdict(lambda: [0, 0])
    for index, k in counts.items():
        total += k
        possibly += k * pool.possibly[index]
        cell = per_country[pool.country[index]]
        cell[0] += k
        cell[1] += k * pool.tampering[index]
    rates = {c: 100.0 * t / n for c, (n, t) in per_country.items()}
    return {"total": total, "possibly": possibly, "rates": rates}


def check_store(store_dir: Path, expected: dict) -> list:
    """Problems found comparing the sealed store against ``expected``."""
    from repro.store import RollupStore, StoreQuery

    store = RollupStore.open_read_only(str(store_dir))
    try:
        stats = store.query(StoreQuery("stage_statistics")).value
        rates = store.query(StoreQuery("country_tampering_rate")).value
    finally:
        store.close()
    problems = []
    if stats["total_connections"] != expected["total"]:
        problems.append(f"store holds {stats['total_connections']} records, "
                        f"{expected['total']} were accepted")
    if stats["possibly_tampered"] != expected["possibly"]:
        problems.append(f"possibly_tampered {stats['possibly_tampered']} != "
                        f"expected {expected['possibly']}")
    if set(rates) != set(expected["rates"]):
        problems.append(f"countries differ: {sorted(set(rates) ^ set(expected['rates']))}")
    for country, rate in expected["rates"].items():
        if country in rates and abs(rates[country] - rate) > 1e-9:
            problems.append(f"{country} tampering rate {rates[country]} != {rate}")
    return problems


# -- processes under test -----------------------------------------------------
def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _proc_cpu_s(pid: int) -> float:
    """utime + stime of a live process, from /proc (10 ms ticks)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Child:
    """One launcher subprocess with a watchdog on every blocking read."""

    def __init__(self, cmd, log: Path) -> None:
        self._log = open(log, "ab")
        self.started = clock()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self._log, env=_child_env(), cwd=ROOT)

    def readline(self, timeout: float = 90.0) -> bytes:
        timer = threading.Timer(timeout, self.proc.kill)
        timer.start()
        try:
            return self.proc.stdout.readline()
        finally:
            timer.cancel()

    def finish(self, timeout: float = 90.0) -> bytes:
        """Rest of stdout; raises unless the process exited 0."""
        # Read through the buffered pipe: readline() may already hold
        # the tail, which communicate() would bypass.
        timer = threading.Timer(timeout, self.proc.kill)
        timer.start()
        try:
            out = self.proc.stdout.read()
            self.proc.wait()
        finally:
            timer.cancel()
            self._log.close()
        if self.proc.returncode != 0:
            raise BenchError(f"{self.proc.args[1]} exited {self.proc.returncode}")
        return out

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()


def _hwm_mb(out: bytes) -> float:
    for line in out.splitlines():
        if line.startswith(b"HWM "):
            return int(line.split()[1]) / 1024.0
    raise BenchError("process under test printed no HWM line")


class Server(Child):
    """``server.py`` on a fresh store; ``setup_s`` = spawn to first 200 /readyz."""

    def __init__(self, rundir: Path, name: str, trace: bool = False) -> None:
        self.store = rundir / f"store-{name}"
        self.trace_dir = rundir / f"trace-{name}" if trace else None
        cmd = [sys.executable, str(HERE / "server.py"), "--store", str(self.store)]
        if trace:
            self.trace_dir.mkdir()
            cmd += ["--trace", str(self.trace_dir)]
        super().__init__(cmd, rundir / f"{name}.log")
        line = self.readline()
        if not line.startswith(b"PORT "):
            self.kill()
            raise BenchError(f"server.py did not start: {line!r}")
        self.port = int(line.split()[1])
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
            try:
                conn.request("GET", "/readyz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    break
            except OSError:
                pass
            finally:
                conn.close()
            if clock() - self.started > 60:
                self.kill()
                raise BenchError("server never became ready")
            time.sleep(0.005)
        self.ready = clock()

    def stop(self):
        """SIGTERM, wait for the drain; (drain seconds, peak RSS MB)."""
        start = clock()
        self.proc.send_signal(signal.SIGTERM)
        out = self.finish()
        return clock() - start, _hwm_mb(out)


def serve_setups(rundir: Path, trace: bool) -> tuple:
    """Time SETUPS - 1 throwaway starts, then start the measured server;
    (server, [(spawned, ready), ...])."""
    setups = []
    for k in range(SETUPS - 1):
        server = Server(rundir, f"setup{k}")
        setups.append((server.started, server.ready))
        server.stop()
    server = Server(rundir, "main", trace=trace)
    setups.append((server.started, server.ready))
    return server, setups


class SpeedLog:
    """The CPU-speed probe beside one run (see ``speedprobe.py``)."""

    def __init__(self, rundir: Path) -> None:
        self.path = rundir / "speed.log"
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "speedprobe.py"), str(self.path)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def stop(self) -> None:
        self.proc.terminate()
        self.proc.wait()

    def rows(self) -> list:
        with open(self.path) as fh:
            return [tuple(map(float, line.split())) for line in fh if line.count(" ") == 2]

    def factor(self, window=None, rows=None) -> float:
        """Probe speed over ``window`` (or the whole run when the probe got
        too little CPU in it) relative to REF_SPEED."""
        rows = self.rows() if rows is None else rows
        if window is not None:
            low = bisect.bisect_left(rows, (window[0],))
            inside = rows[low:bisect.bisect_right(rows, (window[1], math.inf))]
            if len(inside) >= 2 and inside[-1][2] - inside[0][2] >= MIN_PROBE_CPU:
                rows = inside
        if len(rows) < 2 or rows[-1][2] - rows[0][2] < MIN_PROBE_CPU:
            raise BenchError("the speed probe got no CPU time; both cores were busy")
        return (rows[-1][1] - rows[0][1]) / (rows[-1][2] - rows[0][2]) / REF_SPEED

    def scale(self, samples, half: float = 1.0) -> list:
        """Each (time, value) scaled by the speed in the 2 x ``half``
        seconds around it."""
        rows = self.rows()
        return [value * self.factor((t - half, t + half), rows) for t, value in samples]

    def duration(self, start: float, end: float) -> float:
        """``end - start`` at reference speed: one-second slices, each
        scaled by the speed around it."""
        edges = [start + k for k in range(math.ceil(end - start))] + [end]
        return sum(self.scale(((a + b) / 2, b - a) for a, b in zip(edges, edges[1:])))


# -- load plans ----------------------------------------------------------
class Feed:
    """Records drawn from the pool in a seeded order, as POST plans."""

    def __init__(self, pool: Pool, seed: int) -> None:
        self.pool = pool
        self.order = list(range(len(pool)))
        random.Random(seed).shuffle(self.order)
        self.position = 0

    def take(self, k: int) -> list:
        n = len(self.order)
        picked = [self.order[(self.position + j) % n] for j in range(k)]
        self.position += k
        return picked

    def body(self, indices, ts=None) -> bytes:
        lines = self.pool.lines
        if ts is None:  # the records' own simulated timestamps
            stamps = [b"%.6f" % self.pool.ts[i] for i in indices]
        else:
            stamps = [b"%.6f" % ts] * len(indices)
        return b"[" + b",".join(
            b'{"ts":' + s + b',"sample":' + lines[i] + b"}"
            for s, i in zip(stamps, indices)
        ) + b"]"

    def plan(self, rate: float, duration: float, ts_of) -> list:
        """Fixed-rate ``POST_RECORDS``-record POSTs as (offset, raw, pool
        indices); ``ts_of(offset)`` stamps each POST's records."""
        interval = POST_RECORDS / rate
        plan = []
        for k in range(max(1, round(duration / interval))):
            offset = k * interval
            indices = self.take(POST_RECORDS)
            raw = loadgen.http_request("POST", "/v1/samples", self.body(indices, ts_of(offset)))
            plan.append((offset, raw, indices))
        return plan


def fixed_gets(targets, rate: float, duration: float, first: int = 0) -> list:
    """GETs at a fixed rate as (offset, raw, target index), rotating."""
    raws = [loadgen.http_request("GET", t) for t in targets]
    return [
        (k / rate, raws[(first + k) % len(raws)], (first + k) % len(raws))
        for k in range(max(1, round(duration * rate)))
    ]


async def run_fixed(server, conns, plans, duration: float):
    """Run one plan per connection from a common start, due = start +
    offset; returns (outcome lists, (start, end, server CPU seconds))."""
    start = clock() + 0.05
    deadline = start + duration + 2.0
    cpu0 = _proc_cpu_s(server.proc.pid)
    outcomes = await asyncio.gather(*(
        loadgen.open_loop(conn, [(start + off, raw, tag) for off, raw, tag in plan], deadline)
        for conn, plan in zip(conns, plans)
    ))
    return outcomes, (start, clock(), _proc_cpu_s(server.proc.pid) - cpu0)


_READYZ = loadgen.http_request("GET", "/readyz")


async def _readyz(conn) -> dict:
    status, body = await conn.request(_READYZ)
    if status != 200:
        raise BenchError(f"/readyz answered {status}")
    return json.loads(body)


async def _queued(conn) -> int:
    return (await _readyz(conn))["queued"]


async def wait_idle(conn, folded: int, timeout: float = 60.0) -> float:
    """Poll /readyz until ``folded`` records are folded and the queue is
    empty; returns the time that was first seen."""
    deadline = clock() + timeout
    while clock() < deadline:
        state = await _readyz(conn)
        if state["folded"] >= folded and state["queued"] == 0:
            return clock()
        await asyncio.sleep(0.01)
    raise BenchError(f"server did not fold {folded} records within {timeout} s")


class Book:
    """Fixed-rate bookkeeping: attempted, failed, generator lateness."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.lateness = []
        self.accepted = collections.Counter()

    def add(self, outcomes) -> None:
        for o in outcomes:
            if isinstance(o.tag, list) and o.ok:
                self.accepted.update(o.tag)
            self.attempted += 1
            self.failed += not o.ok
            if o.lateness is not None:
                self.lateness.append(o.lateness)

    @property
    def n_accepted(self) -> int:
        return sum(self.accepted.values())

    def lateness_p99_ms(self) -> float:
        return 1000.0 * loadgen.percentile(self.lateness, 99) if self.lateness else 0.0


def _pct(values, q):
    return loadgen.percentile(values, q) if values else math.nan


def _ms(values):
    return [1000.0 * v for v in values]


def _posts(outcomes):
    return [(o.due, len(o.tag), o.ok) for o in outcomes]


def _readiness(outcomes):
    return [(o.done, json.loads(o.body)["folded"]) for o in outcomes if o.ok]


# -- workloads -------------------------------------------------------------
# Each workload fills out["raw"] with values as measured and
# out["metrics"] with the same values at reference speed (SpeedLog).
async def _live_ingest(server, speed, pool, seed, seconds, out):
    book = Book()
    conn, side = (loadgen.Connection("127.0.0.1", server.port) for _ in range(2))
    await conn.open()
    await side.open()
    feed = Feed(pool, seed)
    # The whole run's timestamps fit in five hours: at most six buckets,
    # so only a few seals.
    base = math.floor((JAN_12_2023 + 30 * DAY) / HOUR) * HOUR
    scale = 5 * HOUR / seconds
    virtual = [0.0]

    def ts_of(offset):
        return base + (virtual[0] + offset) * scale

    async def fixed_phase(rate, duration):
        plan = feed.plan(rate, duration, ts_of)
        polls = fixed_gets(["/readyz"], READYZ_RATE, duration)
        folded_base = book.n_accepted
        (posts, probes), window = await run_fixed(server, (conn, side), (plan, polls), duration)
        virtual[0] += duration
        lags = loadgen.visibility_lags(_posts(posts), _readiness(probes), folded_base)
        return posts, probes, lags, window

    posts, probes, lags, out["window"] = await fixed_phase(PHASE_A_RATE, 0.4 * seconds)
    book.add(posts)
    book.add(probes)
    await wait_idle(side, book.n_accepted)
    ack_ms = _ms(o.latency for o in posts)
    scaled_ms = speed.scale((o.due, 1000.0 * o.latency) for o in posts)
    lag_ms = _ms(lag for _, lag in lags)
    out["detail"].update(
        ack_p50_ms=_pct(ack_ms, 50), ack_p90_ms=_pct(ack_ms, 90),
        ack_samples=len(ack_ms), visible_p50_ms=_pct(lag_ms, 50),
        visible_samples=len(lag_ms),
    )
    q = loadgen.supported_percentile(len(lag_ms), highest=99.0)
    if q is not None:
        out["detail"][f"visible_p{q:g}_ms"] = _pct(lag_ms, q)

    # Phase B: closed loop, back-pressured; the rate the server sustains.
    def next_post():
        indices = feed.take(POST_RECORDS)
        raw = loadgen.http_request("POST", "/v1/samples", feed.body(indices, ts_of(clock() - start)))
        return raw, indices

    duration = 0.6 * seconds
    folded_base, start = book.n_accepted, clock()
    book.accepted.update(i for tag in await loadgen.closed_loop(
        conn, next_post, lambda: _queued(side), until=start + duration,
        hold_queued=HOLD_QUEUED) for i in tag)
    folded = (await _readyz(side))["folded"]
    end = clock()
    virtual[0] += duration
    sustained = (folded - folded_base) / (end - start)
    await wait_idle(side, book.n_accepted)
    out["detail"].update(sustained_rps=sustained)
    out["raw"].update(ingest_rps=sustained, latency_p50_ms=out["detail"]["ack_p50_ms"],
                      latency_tail_ms=out["detail"]["ack_p90_ms"])
    out["metrics"].update(ingest_rps=(folded - folded_base) / speed.duration(start, end),
                          latency_p50_ms=_pct(scaled_ms, 50),
                          latency_tail_ms=_pct(scaled_ms, 90))
    await conn.close()
    await side.close()
    return book


async def _mixed_read(server, speed, pool, seed, seconds, out):
    book = Book()
    conn, side = (loadgen.Connection("127.0.0.1", server.port) for _ in range(2))
    await conn.open()
    await side.open()
    feed = Feed(pool, seed)

    # Prep: the whole pool at its own two-week timestamps, closed loop.
    order = list(range(len(pool)))
    chunks = [order[i:i + BACKFILL_RECORDS] for i in range(0, len(order), BACKFILL_RECORDS)]
    raws = [loadgen.http_request("POST", "/v1/samples", feed.body(c)) for c in chunks]
    entries = iter(zip(raws, chunks))
    first = clock()
    for chunk in await loadgen.closed_loop(conn, lambda: next(entries, None),
                                           lambda: _queued(side), hold_queued=HOLD_QUEUED):
        book.accepted.update(chunk)
    done = await wait_idle(side, book.n_accepted)
    backfill_rps = len(pool) / (done - first)

    base = math.floor(max(pool.ts) / HOUR) * HOUR + HOUR
    scale = 5 * HOUR / seconds
    plan = feed.plan(MIXED_RATE, seconds, lambda offset: base + offset * scale)
    gets = fixed_gets(QUERIES, QUERY_RATE, seconds, first=seed % len(QUERIES))
    (posts, queries), out["window"] = await run_fixed(
        server, (conn, side), (plan, gets), seconds)
    book.add(posts)
    book.add(queries)
    await wait_idle(side, book.n_accepted)
    ack_ms = _ms(o.latency for o in posts)
    query_ms = _ms(o.latency for o in queries)
    scaled_ms = speed.scale((o.due, 1000.0 * o.latency) for o in queries)
    scanned = [json.loads(o.body)["segments_scanned"] for o in queries if o.ok]
    out["detail"].update(
        backfill_rps=backfill_rps, ack_p50_ms=_pct(ack_ms, 50),
        ack_p90_ms=_pct(ack_ms, 90), ack_samples=len(ack_ms),
        query_p50_ms=_pct(query_ms, 50), query_p90_ms=_pct(query_ms, 90),
        query_p95_ms=_pct(query_ms, 95), query_samples=len(query_ms),
        segments_scanned_mean=statistics.fmean(scanned) if scanned else math.nan,
    )
    out["raw"].update(ingest_rps=backfill_rps, latency_p50_ms=out["detail"]["query_p50_ms"],
                      latency_tail_ms=out["detail"]["query_p90_ms"])
    out["metrics"].update(ingest_rps=len(pool) / speed.duration(first, done),
                          latency_p50_ms=_pct(scaled_ms, 50),
                          latency_tail_ms=_pct(scaled_ms, 90))
    await conn.close()
    await side.close()
    return book


def run_serve(workload, speed, pool, seed, seconds, rundir, traced) -> dict:
    out = {"metrics": {}, "raw": {}, "detail": {}}
    server, setups = serve_setups(rundir, traced)
    try:
        if workload == "live-ingest":
            book = asyncio.run(_live_ingest(server, speed, pool, seed, seconds, out))
        else:
            book = asyncio.run(_mixed_read(server, speed, pool, seed, seconds, out))
        drain_s, rss_mb = server.stop()
    except BaseException:
        server.kill()
        raise
    out["raw"].update(setup_s=statistics.median(b - a for a, b in setups),
                      drain_s=drain_s, rss_mb=rss_mb)
    out["metrics"].update(setup_s=_scaled_setup(speed, setups),
                          drain_s=drain_s * speed.factor(), rss_mb=rss_mb)
    out["detail"].update(
        failed_pct=100.0 * book.failed / book.attempted,
        lateness_p99_ms=book.lateness_p99_ms(),
    )
    out["attempted"], out["failed"] = book.attempted, book.failed
    out["problems"] = check_store(server.store, expected_rollup(pool, book.accepted))
    if out["detail"]["lateness_p99_ms"] > MAX_LATENESS_P99_MS:
        out["problems"].append(
            f"invalid run: generator lateness p99 {out['detail']['lateness_p99_ms']:.1f} ms "
            f"> {MAX_LATENESS_P99_MS} ms (the load generator saturated, not the server)")
    if traced:
        out["layers"] = layers_from(server.trace_dir / "spans.jsonl", out["window"], serve=True)
        if workload == "mixed-read":
            out["layers"]["query.segments_scanned"] = out["detail"]["segments_scanned_mean"]
    return out


def _scaled_setup(speed, windows) -> float:
    """Median set-up time, each start scaled by the speed during it."""
    return statistics.median((b - a) * speed.factor((a, b)) for a, b in windows)


def run_offline(speed, pool, seconds, rundir, traced) -> dict:
    """One offline job over an input sized to last about ``seconds``."""
    out = {"metrics": {}, "raw": {}, "detail": {}}
    cycles = offline_cycles(seconds)
    samples = offline_file(pool, cycles)
    store = rundir / "store"
    cmd = [sys.executable, str(HERE / "stream.py"), str(samples), "--store", str(store),
           "--max-seconds", str(OFFLINE_MAX_STRETCH * seconds)]
    if traced:
        (rundir / "trace").mkdir()
        cmd += ["--trace", str(rundir / "trace")]
    job = Child(cmd, rundir / "job.log")
    try:
        if job.readline() != b"READY\n":
            raise BenchError("stream.py did not start")
        ready = clock()
        report = json.loads(job.readline(timeout=170))
        tail = job.finish()
    except BaseException:
        job.kill()
        raise
    exited = clock()
    setups = [(job.started, ready)]
    # The job read the first ``read`` lines: line k is pool record k mod n.
    whole, part = divmod(report["read"], len(pool))
    out["problems"] = check_store(
        store, expected_rollup(pool, {i: whole + (i < part) for i in range(len(pool))}))
    while len(setups) < SETUPS:
        job = Child([sys.executable, str(HERE / "stream.py"), str(samples), "--store",
                     str(rundir / "store-setup"), "--ready-only"], rundir / "setup.log")
        try:
            line = job.readline()
            setups.append((job.started, clock()))
            job.finish()
        except BaseException:
            job.kill()
            raise
        if line != b"READY\n":
            raise BenchError("stream.py did not start")

    stamps = report["stamps"]
    chunks = [(a, 1000.0 * (b - a)) for a, b in zip(stamps, stamps[1:])]
    scaled_chunks = speed.scale(chunks)
    chunks = [ms for _, ms in chunks]
    rss_mb = _hwm_mb(tail)
    out["raw"].update(
        setup_s=statistics.median(b - a for a, b in setups),
        ingest_rps=report["records"] / (exited - ready), latency_p50_ms=_pct(chunks, 50),
        latency_tail_ms=_pct(chunks, 90), drain_s=exited - report["eof"], rss_mb=rss_mb,
    )
    out["metrics"].update(
        setup_s=_scaled_setup(speed, setups),
        ingest_rps=report["records"] / speed.duration(ready, exited),
        latency_p50_ms=_pct(scaled_chunks, 50), latency_tail_ms=_pct(scaled_chunks, 90),
        drain_s=speed.duration(report["eof"], exited), rss_mb=rss_mb,
    )
    out["detail"].update(offline_rps=out["raw"]["ingest_rps"], cycles=cycles,
                         records_read=report["read"], chunk_samples=len(chunks))
    out["attempted"], out["failed"] = report["read"], 0
    if traced:
        out["layers"] = layers_from(rundir / "trace" / "spans.jsonl", None, serve=False)
    return out


# -- per-layer metrics ---------------------------------------------------------
def layers_from(path: Path, window, serve: bool) -> dict:
    """Per-layer numbers from a spans file, over ``window`` =
    (start, end, process CPU seconds) or the whole run when None."""
    spans, extra = ledger_mod.read_spans(str(path))
    if window is None:
        start, end = float("-inf"), float("inf")
        cpu, length = extra["process_cpu"], None
    else:
        start, end, cpu = window
        length = end - start
    tot = ledger_mod.layer_totals(spans, start, end)
    zero = [0, 0.0, 0.0, 0.0, 0.0]
    row = lambda name: tot.get(name, zero)  # noqa: E731
    records = row("stream.engine.fold")[0]
    if not records:
        raise BenchError("traced run folded no records")
    per_rec = lambda value: 1e6 * value / records  # noqa: E731
    mean = lambda name, field=1, scale=1e3: (  # noqa: E731
        scale * row(name)[field] / row(name)[0] if row(name)[0] else 0.0)
    loop = "serve.service.handle" if serve else "stream.source.read"
    engine = "stream.engine.push_items" if serve else "stream.engine.run"
    accounted = sum(r[4] for name, r in tot.items()
                    if name not in ("serve.loop", "serve.ingest_worker"))
    hits, misses = extra["cache_hits"], extra["cache_misses"]
    layers = {
        "ingress_us_per_rec": per_rec(row(loop)[1] + row("serve.httpd.read")[1]),
        "decode_us_per_rec": per_rec(row("serve.service.decode" if serve else loop)[3]),
        "from_dict_us_per_rec": per_rec(row("cdn.collector.from_dict")[1]),
        "classify_us_per_rec": per_rec(row("core.classifier.classify")[1]),
        "classify.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "geo.lookup_us_per_rec": per_rec(row("cdn.geo.lookup")[1]),
        "engine.fold_self_us_per_rec": per_rec(row("stream.engine.fold")[3] + row(engine)[3]),
        "store.add_us_per_rec": per_rec(row("store.add")[3]),
        "wal.sync_ms": mean("store.wal.sync"),
        "wal.syncs": row("store.wal.sync")[0],
        "store.seal_ms": mean("store.seal"),
        "store.seals": row("store.seal")[0],
        "anomaly.observe_us": mean("stream.anomaly.observe", scale=1e6),
        "cpu_ms_per_1k_rec": 1e6 * cpu / records,
        "trace.accounted_cpu_share": accounted / cpu if cpu else 0.0,
        # Not gated (not every workload has them); reported in tables.
        "anomaly.observes": row("stream.anomaly.observe")[0],
        "store.compact_ms": mean("store.compact"),
        "store.compactions": row("store.compact")[0],
        "store.materialise_ms": mean("store.materialise"),
        "checkpoint.save_ms": mean("stream.checkpoint.save"),
        "checkpoint.saves": row("stream.checkpoint.save")[0],
        "records": records,
    }
    if serve:
        in_window = [s for s in spans if start <= s["start"] < end]
        named = lambda name: [1e3 * s["wall"] for s in in_window if s["name"] == name]  # noqa: E731
        taken = [(t, w, n) for t, w, n in extra["queue_waits"] if start <= t < end]
        waits = [(1e3 * w, n) for _, w, n in taken]
        ticks = [t for t in extra["ticks"] if start <= t[0] < end]
        refresh, query = named("store.refresh"), named("store.query")
        layers.update({
            "http.read_us": mean("serve.httpd.read", scale=1e6),
            "serve.handle_self_us": mean("serve.service.handle", 3, 1e6),
            "serve.decode_us_per_rec": per_rec(row("serve.service.decode")[1]),
            "serve.admission_us": mean("serve.ratelimit.acquire", scale=1e6),
            "batcher.offer_us": mean("serve.batcher.offer", scale=1e6),
            "batcher.queue_wait_p50_ms": loadgen.weighted_percentile(waits, 50) if waits else 0.0,
            "batcher.queue_wait_p99_ms": loadgen.weighted_percentile(waits, 99) if waits else 0.0,
            # one next_batch stamps all its records with the same time
            "batcher.batch_records": (
                sum(n for _, n in waits) / len({t for t, _, _ in taken}) if taken else 0.0),
            "ingest.idle_share": row("serve.batcher.next_batch")[1] / length,
            "ingest.busy_share": row("stream.engine.push_items")[1] / length,
            "store.refresh_ms_p50": _pct(refresh, 50) if refresh else 0.0,
            "store.query_ms_p50": _pct(query, 50) if query else 0.0,
            "store.query_ms_p95": _pct(query, 95) if len(query) >= 200 else _pct(query, 50) if query else 0.0,
            "loop.lag_p50_ms": 1e3 * _pct([t[1] for t in ticks], 50) if ticks else 0.0,
            "loop.lag_p99_ms": 1e3 * _pct([t[1] for t in ticks], 99) if ticks else 0.0,
            "loop.busy_share": ((ticks[-1][2] - ticks[0][2]) / (ticks[-1][0] - ticks[0][0])) if len(ticks) > 1 else 0.0,
        })
    return layers



# -- reporting -----------------------------------------------------------
def _store_fs() -> str:
    """Filesystem type of the directory the stores live in."""
    best, fstype = "", "unknown"
    target = str(WORK.resolve())
    with open("/proc/mounts") as fh:
        for line in fh:
            parts = line.split()
            mount = parts[1]
            if target.startswith(mount.rstrip("/") + "/") and len(mount) > len(best):
                best, fstype = mount, parts[2]
    return fstype


NOTES = {
    "live-ingest": (
        "Serve, one ordered ingest connection of 32-record POSTs. Phase A, 40% of "
        "the run: open loop at 2000 rec/s plus a /readyz poller at 50 Hz; "
        "latency_p50/tail_ms = ack p50/p90 from due time. Phase B, 60%: closed "
        "loop holding back while over 1024 records are queued; ingest_rps = "
        "records folded per second, with nothing rejected. Times and rates are at "
        "reference CPU speed (raw values under 'raw'). Not measured: concurrent "
        "ingest clients, classify-memo misses, queries."),
    "mixed-read": (
        "Serve. Prep backfills the pool at its real two-week timestamps "
        "(512-record POSTs, closed loop, ~336 hourly seals); ingest_rps = pool "
        "size / time until folded. Then 1000 rec/s of 32-record POSTs with "
        "open-loop queries at 10 q/s on a second connection; latency_p50/tail_ms "
        "= query p50/p90 from due time. Times and rates are at reference CPU "
        "speed. Not measured: concurrent queries, cold-cache restarts."),
    "offline-backfill": (
        "No HTTP: one stream.py job over enough pool cycles (each shifted by 14 "
        "days) to last about the run's seconds (one cycle per 6 s: 5 cycles, "
        "100k records, for 30 s); on a slow host the job stops reading after "
        "1.5 x the run's seconds and is checked on what it read. ingest_rps = "
        "records / (wall - setup); latency_p50/tail_ms = p50/p90 wall time per "
        "250 records read (seal and compaction stalls); drain_s = end of input "
        "to exit. Times and rates are at reference CPU speed. Not measured: the "
        "serve tier, checkpoints."),
}


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "store_fs": _store_fs(),
    }


def run_workload(workload, seed, seconds, traced, pool_size) -> dict:
    pool = load_pool(pool_size)
    rundir = WORK / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    speed = SpeedLog(rundir)
    try:
        try:
            if workload == "offline-backfill":
                out = run_offline(speed, pool, seconds, rundir, traced)
            else:
                out = run_serve(workload, speed, pool, seed, seconds, rundir, traced)
        finally:
            speed.stop()
        if traced:
            # Keep the last traced run's spans for inspection.
            for spans in rundir.glob("trace*/spans.jsonl"):
                shutil.copy(spans, WORK / f"spans-{workload}.jsonl")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    out.pop("window", None)
    out.update(workload=workload, seed=seed, seconds=seconds, traced=traced,
               pool=pool_size, correct=not out["problems"], notes=NOTES[workload],
               **environment())
    return out


def result_line(out: dict) -> dict:
    """The one-line result: end-to-end metrics untraced, layers traced."""
    names = _metric_units("per_layer" if out["traced"] else "end_to_end")
    source = out["layers"] if out["traced"] else out["metrics"]
    return {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {n: {"value": source[n], "unit": u} for n, u in names.items()},
    }


def render(results) -> str:
    """Human tables: the end-to-end metrics, then the per-layer ledger."""
    end_to_end, per_layer = _metric_units("end_to_end"), _metric_units("per_layer")
    lines = []
    for out in results:
        tag = "traced" if out["traced"] else "untraced"
        status = "ok" if out["correct"] else "FAILED: " + "; ".join(out["problems"])
        lines.append(f"== {out['workload']} ({tag}, seed {out['seed']}, "
                     f"{out['seconds']} s) correctness {status}")
        if not out["traced"]:
            for name, unit in end_to_end.items():
                lines.append(f"  {name:<26} {out['metrics'][name]:>12.4f} {unit}")
        for name, value in out["detail"].items():
            if isinstance(value, (int, float)):
                lines.append(f"    {name:<24} {value:>12.4f}")
        for name, value in out.get("layers", {}).items():
            lines.append(f"  {name:<30} {value:>12.4f} {per_layer.get(name, '')}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload and print its result as JSON")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_POOL_SIZE}-record pool, 6 s per workload")
    parser.add_argument("--out", help="append result JSON objects to this file")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"run.py: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds like an error, so every child is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    traced = bool(args.trace or args.traced)
    pool_size = SMOKE_POOL_SIZE if args.smoke else POOL_SIZE
    seconds = 6 if args.smoke else args.seconds

    results = []
    try:
        if args.workload:
            results.append(run_workload(args.workload, args.seed, seconds, traced, pool_size))
        else:
            for workload in WORKLOADS:
                results.append(run_workload(workload, args.seed, seconds, False, pool_size))
            if traced:
                for workload in WORKLOADS:
                    results.append(run_workload(workload, args.seed, seconds, True, pool_size))
                _trace_overhead(results)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "a") as fh:
            for out in results:
                fh.write(json.dumps(out) + "\n")
    print(render(results))
    if args.workload:
        print(json.dumps(result_line(results[0])))
    return 0 if all(out["correct"] for out in results) else 1


def _trace_overhead(results) -> None:
    """Traced against untraced ``ingest_rps`` of the same workload."""
    untraced = {r["workload"]: r for r in results if not r["traced"]}
    for out in results:
        if out["traced"]:
            base = untraced[out["workload"]]["metrics"]["ingest_rps"]
            out["layers"]["trace_overhead_pct"] = 100.0 * (1 - out["metrics"]["ingest_rps"] / base)


if __name__ == "__main__":
    sys.exit(main())
