"""Observability overhead: instrumented vs. uninstrumented throughput.

Not a paper artifact -- this guards the promise :mod:`repro.obs` makes
to the hot paths: span timers and counters are cheap enough to leave on
by default.  Two pipelines run with a live ``Observability`` (the
engine default) and with ``NULL_OBS`` (instrumentation compiled down
to no-ops):

* the **classifier path** -- a serial ``StreamEngine`` run
  (source read, classify with the memo split, rollup fold, anomaly
  scan), the per-record-hottest loop in the repo;
* the **store path** -- ``RollupStore`` ingest with periodic sealing
  (WAL append/fsync, segment seal, compaction merge).

The two arms are deliberately *interleaved*, alternating which goes
first: on shared runners, machine throughput drifts by far more than
the overhead being measured, so timing one arm's rounds after the
other's (the usual one-benchmark-per-arm layout) measures the drift,
not the instrumentation.  Even interleaved, a single statistic stays
noisy (an A/A comparison -- both arms NULL_OBS -- can read several
percent on a loaded box), so the gate takes the smallest of three
complementary estimators:

* the ratio of per-arm minimums -- robust to per-run jitter, since the
  minimum picks each arm's quietest run;
* the median of per-pair ratios -- robust to multi-second load epochs,
  since both runs of a pair share the same weather;
* the lower quartile of per-pair ratios -- background load amplifies
  the instrumented arm more often than it deflates it (cache and
  scheduler pressure make every extra instruction dearer), so pair
  contamination is one-sided and the lower quartile tracks the
  quiet-machine cost.  A real regression still shifts the whole ratio
  distribution, lower quartile included.

A real regression inflates all three; noise rarely deflates all three
at once.  Under the strict CI gate a failing path is re-measured once
from scratch -- two independent measurements must both exceed the
ceiling -- which turns a p false-failure rate into p^2.

The headline percentage is clamped at zero: instrumentation cannot
speed the pipeline up, so a negative reading is the measurement's
noise floor showing, not a real speedup.  The magnitude below zero is
reported separately as ``noise_floor_pct`` -- when it rivals the 5%
ceiling, the gate's verdict on this machine is weather, not signal.
The unclamped estimators stay in the per-path ``*_min_ratio`` /
``*_median_pair`` / ``*_p25_pair`` fields.

With ``REPRO_BENCH_TRACE_SAMPLE=N`` set (CI sets 64), the instrumented
arm also head-samples 1 in N items for end-to-end span trees -- the
engine arm via ``trace_sample_n``, the store arm by activating a
sampled context around 1 in N adds -- so the gate certifies the
*tracing-on* default, not just bare counters and timers.

Writes ``BENCH_obs_overhead.json`` (path override:
``REPRO_BENCH_OBS_JSON``) recording both rates, all three estimators,
the gated overhead percentage per path, and a ``methodology`` note.
The report test always asserts the overhead is sane; the strict <= 5%
ceiling is enforced when ``REPRO_BENCH_REQUIRE_OBS_OVERHEAD=1`` (CI
sets it) so tiny ad-hoc runs on loaded machines do not flake.
"""

import json
import os
import pathlib
import shutil
import statistics
import tempfile
import time

import pytest

from repro.obs import (
    NULL_OBS,
    HeadSampler,
    Observability,
    TraceContext,
    mint_span_id,
    mint_trace_id,
)
from repro.store import CompactionConfig, RollupStore, StoreConfig
from repro.stream import IterableSource, StreamEngine

HOUR = 3600.0
SEAL_EVERY = 500

#: Alternating (null, obs) run pairs per path.  The pair-quantile
#: estimators' standard error shrinks as 1/sqrt(pairs), and the gate
#: compares a few-percent signal against a few-percent noise floor, so
#: err well on the high side -- a pair is ~2 x 250 ms at the CI
#: workload size.
ENGINE_PAIRS = 32
STORE_PAIRS = 32

#: Filled in by the overhead benchmarks, flushed by the report test.
_OBS_STATS = {}

_JSON_PATH = os.environ.get("REPRO_BENCH_OBS_JSON", "BENCH_obs_overhead.json")

#: The strict ceiling the report test enforces under the CI gate.
MAX_OVERHEAD_PCT = 5.0

METHODOLOGY = (
    "Interleaved (NULL_OBS, instrumented) run pairs, alternating order "
    "to cancel machine drift; gated overhead is min(min-ratio, "
    "median-pair-ratio, p25-pair-ratio), clamped at 0 (instrumentation "
    "cannot be a speedup -- negative readings are noise, reported as "
    "noise_floor_pct); trace_sample_n > 0 means the instrumented arm "
    "also head-sampled 1-in-N span trees."
)


def _strict_gate():
    return os.environ.get("REPRO_BENCH_REQUIRE_OBS_OVERHEAD") == "1"


def _trace_sample_n():
    """1-in-N head sampling for the instrumented arm (0 = no tracing)."""
    try:
        return max(0, int(os.environ.get("REPRO_BENCH_TRACE_SAMPLE", "0")))
    except ValueError:
        return 0


def _paired_times(run_null, run_obs, pairs):
    """Time ``pairs`` adjacent (null, obs) runs, alternating order.

    Alternation cancels linear machine drift; adjacency keeps both
    arms of a pair under the same load.
    """
    nulls, obss = [], []
    for index in range(pairs):
        if index % 2:
            obss.append(run_obs())
            nulls.append(run_null())
        else:
            nulls.append(run_null())
            obss.append(run_obs())
    return nulls, obss


def _estimators(nulls, obss):
    """Gate percentage (smallest of three -- see module docstring) plus
    each estimator, from one path's paired run times."""
    pair_ratios = [o / x for o, x in zip(obss, nulls)]
    min_ratio_pct = 100.0 * (min(obss) / min(nulls) - 1.0)
    median_pct = 100.0 * (statistics.median(pair_ratios) - 1.0)
    p25_pct = 100.0 * (statistics.quantiles(pair_ratios, n=4)[0] - 1.0)
    detail = {
        "min_ratio": min_ratio_pct,
        "median_pair": median_pct,
        "p25_pair": p25_pct,
    }
    return min(detail.values()), detail


def _measure_path(run_null, run_obs, pairs, emit, label):
    """One full interleaved measurement; under the strict gate, retry
    once if the first attempt exceeds the ceiling and keep the better
    attempt.  Two independent over-ceiling measurements must agree
    before the report test fails the job."""
    attempts = 1
    nulls, obss = _paired_times(run_null, run_obs, pairs)
    pct, detail = _estimators(nulls, obss)
    if _strict_gate() and pct > MAX_OVERHEAD_PCT:
        emit(
            f"{label}: first measurement read {pct:+.2f}% (over the "
            f"{MAX_OVERHEAD_PCT}% ceiling); re-measuring once"
        )
        attempts = 2
        nulls2, obss2 = _paired_times(run_null, run_obs, pairs)
        pct2, detail2 = _estimators(nulls2, obss2)
        if pct2 < pct:
            nulls, obss, pct, detail = nulls2, obss2, pct2, detail2
    return nulls, obss, pct, detail, attempts


def _engine_run(study, obs):
    source = IterableSource(study.samples, timestamps=study.timestamps)
    trace_n = _trace_sample_n() if obs is not NULL_OBS else 0
    t0 = time.perf_counter()
    report = StreamEngine(
        source, geodb=study.world.geo, obs=obs,
        trace_sample_n=trace_n,
    ).run()
    elapsed = time.perf_counter() - t0
    assert report.samples_processed == len(study.samples)
    if obs is not NULL_OBS:
        assert "obs" in report.metrics  # the instrumentation actually ran
        if trace_n:
            assert obs.trace_recorder.stats()["spans"] > 0
    return elapsed


def _ingest(records, directory, obs):
    """The engine's ingest pattern: add + periodic seal + compaction."""
    config = StoreConfig(
        compaction=CompactionConfig(trigger=4, fanout=8, max_level=2)
    )
    trace_n = _trace_sample_n() if obs is not NULL_OBS else 0
    rec = getattr(obs, "trace_recorder", None) if trace_n else None
    sampler = HeadSampler(trace_n) if rec is not None else None
    t0 = time.perf_counter()
    store = RollupStore(str(directory), config=config, obs=obs)
    watermark = None
    for index, record in enumerate(records):
        if sampler is not None and sampler.decide():
            # Mirror serve-side ingest: 1 in N adds runs under a
            # sampled context, so WAL append/fsync span recording is
            # part of what the gate prices.
            rec.activate(
                TraceContext(mint_trace_id(), mint_span_id(), True)
            )
            store.add(record)
            rec.activate(None)
        else:
            store.add(record)
        if watermark is None or record.ts > watermark:
            watermark = record.ts
        if index % SEAL_EVERY == SEAL_EVERY - 1:
            if store.seal_through(watermark - 2 * HOUR):
                store.maybe_compact()
    store.seal_open()
    store.maybe_compact()
    store.close()
    return time.perf_counter() - t0


# ----------------------------------------------------------------------
# Classifier path: serial StreamEngine
# ----------------------------------------------------------------------
def test_engine_obs_overhead(study, emit):
    """Interleaved NULL_OBS vs. instrumented serial-engine runs."""
    _engine_run(study, NULL_OBS)  # warm both arms
    _engine_run(study, Observability())
    nulls, obss, pct, detail, attempts = _measure_path(
        lambda: _engine_run(study, NULL_OBS),
        lambda: _engine_run(study, Observability()),
        ENGINE_PAIRS,
        emit,
        "engine",
    )
    n = len(study.samples)
    _OBS_STATS["engine_null_cps"] = n / min(nulls)
    _OBS_STATS["engine_obs_cps"] = n / min(obss)
    _OBS_STATS["engine_overhead_pct"] = max(0.0, pct)
    _OBS_STATS["engine_noise_floor_pct"] = max(0.0, -pct)
    _OBS_STATS["engine_overhead_pct_min_ratio"] = detail["min_ratio"]
    _OBS_STATS["engine_overhead_pct_median_pair"] = detail["median_pair"]
    _OBS_STATS["engine_overhead_pct_p25_pair"] = detail["p25_pair"]
    _OBS_STATS["engine_attempts"] = attempts
    _OBS_STATS["n_samples"] = n
    emit(
        f"serial engine: {_OBS_STATS['engine_null_cps']:,.0f} conn/s "
        f"(NULL_OBS) vs {_OBS_STATS['engine_obs_cps']:,.0f} conn/s "
        f"(instrumented), best of {ENGINE_PAIRS} interleaved pairs"
    )


# ----------------------------------------------------------------------
# Store path: WAL + seal + compaction ingest
# ----------------------------------------------------------------------
def test_store_obs_overhead(records, tmp_path, emit):
    """Interleaved NULL_OBS vs. instrumented store-ingest runs."""
    # Prefer tmpfs: this test measures instrumentation cost, and on a
    # real disk the fsync-heavy ingest is dominated by writeback
    # scheduling whose heavy tail swamps a few-percent signal.
    if os.path.isdir("/dev/shm") and os.access("/dev/shm", os.W_OK):
        base = pathlib.Path(
            tempfile.mkdtemp(prefix="repro-bench-obs-", dir="/dev/shm")
        )
    else:
        base = tmp_path
    counter = {"n": 0}

    def run(obs_factory):
        counter["n"] += 1
        directory = base / f"run-{counter['n']}"
        try:
            return _ingest(records, directory, obs_factory())
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    run(lambda: NULL_OBS)  # warm both arms (and the page cache)
    run(Observability)
    try:
        nulls, obss, pct, detail, attempts = _measure_path(
            lambda: run(lambda: NULL_OBS),
            lambda: run(Observability),
            STORE_PAIRS,
            emit,
            "store",
        )
    finally:
        if base is not tmp_path:
            shutil.rmtree(base, ignore_errors=True)
    n = len(records)
    _OBS_STATS["store_null_rps"] = n / min(nulls)
    _OBS_STATS["store_obs_rps"] = n / min(obss)
    _OBS_STATS["store_overhead_pct"] = max(0.0, pct)
    _OBS_STATS["store_noise_floor_pct"] = max(0.0, -pct)
    _OBS_STATS["store_overhead_pct_min_ratio"] = detail["min_ratio"]
    _OBS_STATS["store_overhead_pct_median_pair"] = detail["median_pair"]
    _OBS_STATS["store_overhead_pct_p25_pair"] = detail["p25_pair"]
    _OBS_STATS["store_attempts"] = attempts
    _OBS_STATS["n_records"] = n
    emit(
        f"store ingest: {_OBS_STATS['store_null_rps']:,.0f} rec/s "
        f"(NULL_OBS) vs {_OBS_STATS['store_obs_rps']:,.0f} rec/s "
        f"(instrumented), best of {STORE_PAIRS} interleaved pairs"
    )


# ----------------------------------------------------------------------
# Report: persist the trajectory, gate the ceiling
# ----------------------------------------------------------------------
def test_obs_overhead_report(emit):
    """Summarise both paths and fail if instrumentation got expensive."""
    needed = ("engine_overhead_pct", "store_overhead_pct")
    if any(key not in _OBS_STATS for key in needed):
        pytest.skip("overhead benchmarks did not run")

    engine_pct = _OBS_STATS["engine_overhead_pct"]
    store_pct = _OBS_STATS["store_overhead_pct"]
    _OBS_STATS["max_overhead_pct"] = MAX_OVERHEAD_PCT
    _OBS_STATS["noise_floor_pct"] = max(
        _OBS_STATS["engine_noise_floor_pct"],
        _OBS_STATS["store_noise_floor_pct"],
    )
    _OBS_STATS["trace_sample_n"] = _trace_sample_n()
    _OBS_STATS["methodology"] = METHODOLOGY

    payload = dict(_OBS_STATS)
    with open(_JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    trace_note = (
        f", tracing 1-in-{_OBS_STATS['trace_sample_n']}"
        if _OBS_STATS["trace_sample_n"]
        else ""
    )
    emit(
        "\n".join(
            [
                f"obs overhead (written to {_JSON_PATH}"
                f"; noise floor {_OBS_STATS['noise_floor_pct']:.2f}%"
                f"{trace_note}):",
                f"  engine: {_OBS_STATS['engine_null_cps']:,.0f} -> "
                f"{_OBS_STATS['engine_obs_cps']:,.0f} conn/s "
                f"({engine_pct:+.2f}% overhead; min-ratio "
                f"{_OBS_STATS['engine_overhead_pct_min_ratio']:+.2f}%, "
                f"median-pair "
                f"{_OBS_STATS['engine_overhead_pct_median_pair']:+.2f}%, "
                f"p25-pair "
                f"{_OBS_STATS['engine_overhead_pct_p25_pair']:+.2f}%)",
                f"  store:  {_OBS_STATS['store_null_rps']:,.0f} -> "
                f"{_OBS_STATS['store_obs_rps']:,.0f} rec/s "
                f"({store_pct:+.2f}% overhead; min-ratio "
                f"{_OBS_STATS['store_overhead_pct_min_ratio']:+.2f}%, "
                f"median-pair "
                f"{_OBS_STATS['store_overhead_pct_median_pair']:+.2f}%, "
                f"p25-pair "
                f"{_OBS_STATS['store_overhead_pct_p25_pair']:+.2f}%)",
            ]
        )
    )

    # Always: instrumentation must never cost a meaningful fraction of
    # throughput, even on a noisy machine.
    assert engine_pct < 25.0, (
        f"observability overhead on the engine path hit {engine_pct:.1f}% "
        "-- span timers are no longer cheap"
    )
    assert store_pct < 25.0, (
        f"observability overhead on the store path hit {store_pct:.1f}% "
        "-- span timers are no longer cheap"
    )
    if _strict_gate():
        assert engine_pct <= MAX_OVERHEAD_PCT, (
            f"engine-path overhead {engine_pct:.2f}% exceeds the "
            f"{MAX_OVERHEAD_PCT}% ceiling in two independent measurements"
        )
        assert store_pct <= MAX_OVERHEAD_PCT, (
            f"store-path overhead {store_pct:.2f}% exceeds the "
            f"{MAX_OVERHEAD_PCT}% ceiling in two independent measurements"
        )
