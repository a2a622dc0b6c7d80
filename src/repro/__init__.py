"""repro -- passive detection of connection tampering.

A from-scratch reproduction of *"Global, Passive Detection of Connection
Tampering"* (ACM SIGCOMM 2023): the 19 tampering signatures, the
server-side collection methodology, the IP-ID/TTL injection evidence,
and the full global analysis -- driven by a synthetic world of countries,
ASNs, client populations and censor middleboxes, because the original
CDN dataset is proprietary.

Quickstart::

    from repro import two_week_study

    study = two_week_study(n_connections=2000, seed=7)
    data = study.analyze()
    for country, rate in sorted(data.country_tampering_rate().items()):
        print(f"{country}: {rate:.1f}% of connections tampered")

Layers (see DESIGN.md for the full inventory):

* :mod:`repro.netstack` -- packets, TCP state machines, TLS/HTTP, pcap.
* :mod:`repro.middlebox` -- DPI, policies, injectors, vendor presets.
* :mod:`repro.network` -- the path simulator and client personalities.
* :mod:`repro.cdn` -- geolocation, edge servers, sampling, collection.
* :mod:`repro.core` -- the paper's contribution: signatures, classifier,
  evidence, aggregation, test-list analysis.
* :mod:`repro.workloads` -- the synthetic world and study scenarios.
* :mod:`repro.stream` -- online ingestion: one serial classify-and-fold
  loop, incremental rollups, checkpoints, live anomaly detection.
* :mod:`repro.store` -- durable partitioned rollup storage: sealed
  segments, WAL, compaction, and a batch-parity query engine.
* :mod:`repro.obs` -- zero-dependency observability: metrics registry,
  trace spans, Prometheus exposition, stage-latency reports.
"""

from repro.cdn.collector import ConnectionSample, read_samples_jsonl, write_samples_jsonl
from repro.core.aggregate import AnalysisDataset, AnalyzedConnection
from repro.core.classifier import ClassificationResult, ClassifierConfig, TamperingClassifier
from repro.core.evidence import evidence_for_sample
from repro.core.model import SIGNATURES, SignatureId, Stage
from repro.core.signatures import match_signature
from repro.core.testlists import TestList, coverage_table, registrable_domain
from repro.stream import (
    AnomalyConfig,
    AnomalyEvent,
    EwmaDetector,
    IterableSource,
    JsonlDirectorySource,
    JsonlSource,
    SimulatorSource,
    StreamEngine,
    StreamRecord,
    StreamReport,
    StreamRollup,
)
from repro.store import RollupStore, StoreConfig, StoreQuery
from repro.workloads.profiles import CountryProfile, DeploymentSpec, default_profiles
from repro.workloads.scenarios import StudyRun, iran_protest_study, two_week_study
from repro.workloads.testlist_gen import build_test_lists
from repro.workloads.traffic import ConnectionSpec, TrafficGenerator
from repro.workloads.world import World

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "SignatureId",
    "Stage",
    "SIGNATURES",
    "match_signature",
    "TamperingClassifier",
    "ClassifierConfig",
    "ClassificationResult",
    "AnalysisDataset",
    "AnalyzedConnection",
    "evidence_for_sample",
    "TestList",
    "coverage_table",
    "registrable_domain",
    # data
    "ConnectionSample",
    "read_samples_jsonl",
    "write_samples_jsonl",
    # world
    "World",
    "CountryProfile",
    "DeploymentSpec",
    "default_profiles",
    "TrafficGenerator",
    "ConnectionSpec",
    "build_test_lists",
    "StudyRun",
    "two_week_study",
    "iran_protest_study",
    # stream
    "StreamEngine",
    "StreamReport",
    "StreamRollup",
    "StreamRecord",
    "IterableSource",
    "JsonlSource",
    "JsonlDirectorySource",
    "SimulatorSource",
    "AnomalyConfig",
    "AnomalyEvent",
    "EwmaDetector",
    # store
    "RollupStore",
    "StoreConfig",
    "StoreQuery",
]
