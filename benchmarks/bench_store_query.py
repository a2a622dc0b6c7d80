"""Rollup-store benchmarks: ingest rate, query latency, compaction.

Not a paper artifact -- this measures the durable tier added by
:mod:`repro.store`: records ingested per second through the WAL + seal
path, query latency for the four batch-parity families against a fully
sealed store (before and after compaction, and with time-range
pushdown), and the write amplification compaction pays to keep the
segment count bounded.

Writes ``BENCH_store_query.json`` (path override:
``REPRO_BENCH_STORE_JSON``) so CI can track the storage tier as a
trajectory; the report test is also the regression gate -- it fails
the job if the store's answers ever diverge from an in-memory
:class:`StreamRollup` over the same records, or if compaction stops
reducing the segment count.
"""

import json
import os
import time

import pytest

from repro.store import CompactionConfig, RollupStore, StoreConfig, StoreQuery
from repro.stream import StreamRollup

HOUR = 3600.0
SEAL_EVERY = 500  # records between seal_through sweeps during ingest

#: Filled in by the store benchmarks, flushed by the report test.
_STORE_STATS = {}

_JSON_PATH = os.environ.get("REPRO_BENCH_STORE_JSON", "BENCH_store_query.json")


def _ordered(value):
    """Freeze dict key order into lists so ``==`` compares it too."""
    if isinstance(value, dict):
        return [[str(key), _ordered(val)] for key, val in value.items()]
    if isinstance(value, (list, tuple)):
        return [_ordered(item) for item in value]
    return value


def _ingest(records, directory, config):
    """The engine's ingest pattern: add + periodic seal + compaction."""
    store = RollupStore(str(directory), config=config)
    watermark = None
    for index, record in enumerate(records):
        store.add(record)
        if watermark is None or record.ts > watermark:
            watermark = record.ts
        if index % SEAL_EVERY == SEAL_EVERY - 1:
            if store.seal_through(watermark - 2 * HOUR):
                store.maybe_compact()
    store.seal_open()
    store.maybe_compact()
    store.flush()
    return store


@pytest.fixture(scope="module")
def built(records, tmp_path_factory):
    """A sealed store (compaction deferred) plus its reference rollup."""
    rollup = StreamRollup()
    for record in records:
        rollup.add(record)
    directory = tmp_path_factory.mktemp("bench-store") / "store"
    config = StoreConfig(
        compaction=CompactionConfig(trigger=4, fanout=8, max_level=2)
    )
    store = RollupStore(str(directory), config=config)
    watermark = None
    for index, record in enumerate(records):
        store.add(record)
        if watermark is None or record.ts > watermark:
            watermark = record.ts
        if index % SEAL_EVERY == SEAL_EVERY - 1:
            store.seal_through(watermark - 2 * HOUR)  # no compaction yet
    store.seal_open()
    yield store, rollup
    store.close()


def _families(store, rollup):
    """(name, StoreQuery, reference answer) for all four families."""
    country = rollup.countries[0]
    return [
        (
            "country_tampering_rate",
            StoreQuery("country_tampering_rate"),
            rollup.country_tampering_rate(),
        ),
        ("timeseries", StoreQuery("timeseries"), rollup.timeseries()),
        (
            "signature_hour_counts",
            StoreQuery("signature_hour_counts", country=country),
            rollup.signature_hour_counts(country),
        ),
        (
            "stage_statistics",
            StoreQuery("stage_statistics"),
            rollup.stage_statistics(),
        ),
    ]


def test_store_ingest_rate(benchmark, records, tmp_path, emit):
    """WAL append + seal + compaction, end to end, records/second."""
    config = StoreConfig(
        compaction=CompactionConfig(trigger=8, fanout=8, max_level=2)
    )
    rounds = []

    def run():
        directory = tmp_path / f"ingest-{len(rounds)}"
        rounds.append(directory)
        store = _ingest(records, directory, config)
        store.close()

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)

    rate = len(records) / benchmark.stats.stats.mean
    _STORE_STATS["ingest_rps"] = rate
    _STORE_STATS["n_records"] = len(records)
    emit(f"store ingest (WAL + seal + compact): {rate:,.0f} records/second "
         f"({len(records)} records per round)")


def test_store_query_country_rates(benchmark, built, emit):
    """Full-history country_tampering_rate against the sealed store."""
    store, rollup = built
    query = StoreQuery("country_tampering_rate")

    value = benchmark(lambda: store.query(query).value)

    assert _ordered(value) == _ordered(rollup.country_tampering_rate())
    latency_ms = 1000.0 * benchmark.stats.stats.mean
    _STORE_STATS["query_country_rates_ms"] = latency_ms
    emit(f"country_tampering_rate over {len(store.manifest.segments)} segments: "
         f"{latency_ms:.1f} ms")


def test_store_query_pushdown(benchmark, built, emit):
    """Time-range timeseries: pushdown must skip most segments."""
    store, rollup = built
    buckets = sorted({bucket for _, bucket in rollup.bucket_totals})
    lo = buckets[len(buckets) // 2]
    hi = buckets[len(buckets) // 2 + len(buckets) // 8]
    query = StoreQuery("timeseries", start=lo, end=hi)

    result = benchmark(lambda: store.query(query))

    assert result.segments_skipped > result.segments_scanned
    latency_ms = 1000.0 * benchmark.stats.stats.mean
    _STORE_STATS["query_pushdown_ms"] = latency_ms
    _STORE_STATS["pushdown_segments_scanned"] = result.segments_scanned
    _STORE_STATS["pushdown_segments_skipped"] = result.segments_skipped
    emit(f"range timeseries ({(hi - lo) / HOUR:.0f}h window): {latency_ms:.1f} ms, "
         f"scanned {result.segments_scanned} / skipped {result.segments_skipped} segments")


def test_store_compaction_and_report(built, emit):
    """Compact, re-verify all four families, persist the trajectory.

    This is the divergence gate: before *and* after compaction every
    family must answer byte-for-byte (values and key order) like the
    in-memory rollup, and compaction must actually shrink the segment
    count it paid write amplification for.
    """
    store, rollup = built

    def family_latencies():
        out = {}
        for name, query, reference in _families(store, rollup):
            best = None
            for _ in range(5):
                tick = time.perf_counter()
                value = store.query(query).value
                elapsed = time.perf_counter() - tick
                best = elapsed if best is None else min(best, elapsed)
            assert _ordered(value) == _ordered(reference), (
                f"store query {name} diverged from the in-memory rollup"
            )
            out[name] = 1000.0 * best
        return out

    l0_stats = store.stats()
    _STORE_STATS["l0_segments"] = l0_stats["segments"]
    _STORE_STATS["l0_live_bytes"] = l0_stats["live_bytes"]
    _STORE_STATS["query_ms_before_compaction"] = family_latencies()

    runs = store.compact(max_runs=256)
    stats = store.stats()
    _STORE_STATS["compaction_runs"] = stats["compaction_runs"]
    _STORE_STATS["segments_after_compaction"] = stats["segments"]
    _STORE_STATS["live_bytes"] = stats["live_bytes"]
    _STORE_STATS["compaction_bytes_written"] = stats["compaction_bytes_written"]
    # Total segment bytes ever written (level-0 files + every merge)
    # over the bytes finally live: the price of a bounded segment count.
    amplification = (
        (l0_stats["live_bytes"] + stats["compaction_bytes_written"])
        / stats["live_bytes"]
        if stats["live_bytes"]
        else 0.0
    )
    _STORE_STATS["write_amplification"] = amplification
    _STORE_STATS["query_ms_after_compaction"] = family_latencies()
    _STORE_STATS["parity_ok"] = True

    payload = dict(_STORE_STATS)
    with open(_JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    before = _STORE_STATS["query_ms_before_compaction"]
    after = _STORE_STATS["query_ms_after_compaction"]
    lines = [f"store trajectory (written to {_JSON_PATH}):"]
    if "ingest_rps" in _STORE_STATS:
        lines.append(f"  ingest: {_STORE_STATS['ingest_rps']:,.0f} records/s")
    lines.append(
        f"  compaction: {_STORE_STATS['l0_segments']} L0 segments -> "
        f"{stats['segments']} in {runs} merges "
        f"(write amplification {amplification:.2f}x)"
    )
    for name in before:
        lines.append(
            f"  {name}: {before[name]:.1f} ms -> {after[name]:.1f} ms"
        )
    emit("\n".join(lines))

    assert runs >= 1, "compaction never ran on a long sealed history"
    assert stats["segments"] < l0_stats["segments"], (
        "compaction did not reduce the segment count"
    )
    assert store.compactor.due(store.manifest) is None
