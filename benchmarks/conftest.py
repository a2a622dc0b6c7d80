"""Shared fixtures for the benchmark harness.

One global two-week study is simulated once per session and shared by
every table/figure benchmark; the Iran case study gets its own run.
Sizes can be scaled with ``REPRO_BENCH_CONNECTIONS`` (default 20,000
sampled connections, mirroring a 1-in-10,000 sample of a much larger
traffic volume).

Each benchmark times its *analysis* step with pytest-benchmark and
prints the regenerated paper artifact (table rows / series / CDF
quantiles) outside the capture so it lands in ``bench_output.txt``.
"""

from __future__ import annotations

import os

import pytest

from repro.core.classifier import TamperingClassifier
from repro.workloads.scenarios import iran_protest_study, two_week_study

BENCH_CONNECTIONS = int(os.environ.get("REPRO_BENCH_CONNECTIONS", "20000"))
IRAN_CONNECTIONS = int(os.environ.get("REPRO_BENCH_IRAN_CONNECTIONS", "6000"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "7"))


@pytest.fixture(scope="session")
def study():
    """The main two-week global study (simulated once per session)."""
    return two_week_study(n_connections=BENCH_CONNECTIONS, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def classifier():
    return TamperingClassifier()


@pytest.fixture(scope="session")
def results(study, classifier):
    """Classified samples (computed once)."""
    return classifier.classify_all(study.samples)


@pytest.fixture(scope="session")
def dataset(study, results):
    from repro.core.aggregate import AnalysisDataset

    return AnalysisDataset.from_results(results, study.world.geo, study.timestamps)


@pytest.fixture(scope="session")
def records(study, results):
    """The study's classified, located stream records (built once)."""
    from repro.stream import StreamRecord

    geo = study.world.geo
    out = []
    for seq, result in enumerate(results):
        record = StreamRecord.from_result(
            result, seq=seq, ts=study.timestamps.get(result.sample.conn_id)
        )
        located = geo.lookup_or_none(record.client_ip)
        if located is not None:
            record = record.located(located.country, located.asn)
        out.append(record)
    return out


@pytest.fixture(scope="session")
def iran_study():
    """The 17-day Iran protest case study."""
    return iran_protest_study(n_connections=IRAN_CONNECTIONS, seed=13)


@pytest.fixture(scope="session")
def iran_dataset(iran_study):
    return iran_study.analyze()


@pytest.fixture
def emit(capsys):
    """Print a report block so it is visible in benchmark output."""

    def _emit(text: str) -> None:
        with capsys.disabled():
            print("\n" + text + "\n")

    return _emit
