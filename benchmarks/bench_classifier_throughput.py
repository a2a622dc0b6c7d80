"""Pipeline micro-benchmarks: classifier and capture throughput.

Not a paper artifact -- this measures the reproduction's own processing
rates: connections classified per second (the figure a CDN would care
about when sizing the pipeline), the feature-key memo's speedup and hit
rate on the repetitive default workload, and the cost of the
order-reconstruction step relative to classification.

The classifier family of benchmarks additionally writes
``BENCH_classifier_throughput.json`` (path override:
``REPRO_BENCH_JSON``) recording uncached / cached throughput plus the
memo hit rate, so CI can track the fast path as a
trajectory and fail on regression.
"""

import json
import os

import pytest

from repro.core.classifier import ClassifierConfig, TamperingClassifier
from repro.core.sequence import reconstruct_order

#: Filled in by the classifier benchmarks, flushed by the report test.
_CLASSIFIER_STATS = {}

_JSON_PATH = os.environ.get("REPRO_BENCH_JSON", "BENCH_classifier_throughput.json")


def test_classifier_throughput(benchmark, study, emit):
    """Uncached single-process reference throughput."""
    classifier = TamperingClassifier(ClassifierConfig(cache_size=0))
    samples = study.samples

    results = benchmark(classifier.classify_all, samples)

    assert len(results) == len(samples)
    rate = len(samples) / benchmark.stats.stats.mean
    _CLASSIFIER_STATS["uncached_cps"] = rate
    _CLASSIFIER_STATS["n_samples"] = len(samples)
    emit(f"classifier throughput (uncached): {rate:,.0f} connections/second "
         f"({len(samples)} samples per round)")


def test_classifier_throughput_cached(benchmark, study, emit):
    """Feature-key memo enabled (the default config)."""
    classifier = TamperingClassifier()
    samples = study.samples

    results = benchmark(classifier.classify_all, samples)

    assert len(results) == len(samples)
    rate = len(samples) / benchmark.stats.stats.mean
    info = classifier.cache_info()
    _CLASSIFIER_STATS["cached_cps"] = rate
    _CLASSIFIER_STATS["cache_hit_rate"] = info.hit_rate
    _CLASSIFIER_STATS["cache_entries"] = info.currsize
    emit(f"classifier throughput (cached): {rate:,.0f} connections/second "
         f"(hit rate {100 * info.hit_rate:.1f}%, {info.currsize} memo entries)")


def test_classifier_throughput_report(emit):
    """Summarise and persist the classifier fast-path trajectory.

    Always asserts the memo does not make classification slower; the
    stronger >= 3x claim on the repetitive default workload is asserted
    when ``REPRO_BENCH_REQUIRE_SPEEDUP=1`` (CI sets it) so tiny ad-hoc
    runs on loaded machines do not flake.
    """
    if "uncached_cps" not in _CLASSIFIER_STATS or "cached_cps" not in _CLASSIFIER_STATS:
        pytest.skip("classifier benchmarks did not run")
    uncached = _CLASSIFIER_STATS["uncached_cps"]
    cached = _CLASSIFIER_STATS["cached_cps"]
    speedup = cached / uncached if uncached else 0.0
    _CLASSIFIER_STATS["cached_speedup"] = speedup

    payload = dict(_CLASSIFIER_STATS)
    with open(_JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    lines = [f"classifier fast path (written to {_JSON_PATH}):"]
    lines.append(f"  uncached: {uncached:,.0f} conn/s")
    lines.append(
        f"  cached:   {cached:,.0f} conn/s ({speedup:.2f}x, hit rate "
        f"{100 * _CLASSIFIER_STATS.get('cache_hit_rate', 0.0):.1f}%)"
    )
    emit("\n".join(lines))

    assert cached >= uncached, (
        f"memoized classification ({cached:,.0f} conn/s) regressed below "
        f"the uncached path ({uncached:,.0f} conn/s)"
    )
    if os.environ.get("REPRO_BENCH_REQUIRE_SPEEDUP") == "1":
        assert speedup >= 3.0, (
            f"cached speedup {speedup:.2f}x below the 3x floor on the "
            f"repetitive default workload"
        )


def test_classifier_throughput_without_reorder(benchmark, study):
    classifier = TamperingClassifier(ClassifierConfig(reorder=False))
    results = benchmark(classifier.classify_all, study.samples)
    assert len(results) == len(study.samples)


def test_order_reconstruction_cost(benchmark, study):
    packet_lists = [s.packets for s in study.samples]

    def reconstruct_all():
        return [reconstruct_order(packets) for packets in packet_lists]

    ordered = benchmark(reconstruct_all)
    assert len(ordered) == len(packet_lists)


def test_evidence_throughput(benchmark, study):
    from repro.core.evidence import evidence_for_sample

    def run():
        return [evidence_for_sample(s) for s in study.samples]

    summaries = benchmark(run)
    assert len(summaries) == len(study.samples)
