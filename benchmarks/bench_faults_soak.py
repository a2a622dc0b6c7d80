"""Soak benchmark: the hardened stream pipeline under sustained faults.

Runs the same sample stream two ways -- clean, and through a flaky
source (seeded errors / torn lines / stalls / duplicates) -- and reports
the overhead the fault-handling machinery costs when things actually
break.
Parity with the clean rollup is asserted on every path: a soak run that
drifts is a failure, not a data point.
"""

from repro.stream import FaultPlan, FaultySource, IterableSource, StreamEngine

SOAK_SAMPLES = 2000


def _source(study):
    return IterableSource(
        study.samples[:SOAK_SAMPLES], timestamps=study.timestamps
    )


def _clean(study):
    return StreamEngine(_source(study), geodb=study.geo).run()


def test_soak_clean_baseline(benchmark, study, emit):
    report = benchmark.pedantic(lambda: _clean(study), rounds=1, iterations=1)
    emit(
        f"soak baseline: {report.rollup.n_records} records, "
        f"{report.metrics['samples_per_second']:,.0f} samples/s"
    )
    assert report.finished


def test_soak_flaky_source(benchmark, study, emit):
    clean = _clean(study).rollup.to_dict()
    plan = FaultPlan.generate(
        13,
        SOAK_SAMPLES,
        error_rate=0.02,
        truncate_rate=0.01,
        duplicate_rate=0.02,
        stall_rate=0.002,
        stall_seconds=0.0005,
    )

    def soak():
        source = FaultySource(_source(study), plan)
        report = StreamEngine(
            source,
            geodb=study.geo,
            max_source_retries=10,
            retry_backoff_seconds=0.0005,
        ).run()
        return source, report

    source, report = benchmark.pedantic(soak, rounds=1, iterations=1)
    assert report.rollup.to_dict() == clean, "flaky-source soak lost parity"
    emit(
        f"soak flaky-source: {len(plan)} faults planned, "
        f"{sum(source.injected.values())} fired, "
        f"{report.metrics['source_retries']} retries, "
        f"{report.metrics['duplicates_dropped']} dups dropped, "
        f"{report.metrics['samples_per_second']:,.0f} samples/s"
    )
