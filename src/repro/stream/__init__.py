"""repro.stream -- online ingestion, rollups, and live anomaly detection.

The batch pipeline (``classify_all`` + ``AnalysisDataset``) re-scans the
whole study per question; this package is its production-shaped
counterpart: one serial engine loop classifies each sample and folds it
into incremental windowed rollups, windows feed an online anomaly
detector as they close, and periodic checkpoints make the whole thing
kill-safe.

Quickstart::

    from repro import StreamEngine, SimulatorSource, TrafficGenerator, World

    world = World(seed=7)
    source = SimulatorSource(TrafficGenerator(world, seed=7),
                             n_connections=2000,
                             start_ts=0.0, duration=86400.0)
    report = StreamEngine(source, geodb=world.geo).run()
    print(report.render())

Module map:

* :mod:`repro.stream.source` -- pull-based sample sources + backpressure.
* :mod:`repro.stream.faults` -- seeded fault injection (flaky sources,
  planned engine deaths) and the ``--drill`` fire drills.
* :mod:`repro.stream.rollup` -- the classified ``StreamRecord`` and the
  country × signature × hour counters it folds into.
* :mod:`repro.stream.checkpoint` -- atomic JSON checkpoints.
* :mod:`repro.stream.anomaly` -- EWMA/z-score spike detection with hysteresis.
* :mod:`repro.stream.metrics` -- samples/s, anomaly and fault counters.
* :mod:`repro.stream.engine` -- the service loop tying it all together.

The durable tier lives in :mod:`repro.store`: pass ``store_dir`` to
:class:`StreamEngine` (CLI: ``repro stream --store DIR``) to seal closed
hour-buckets into partitioned on-disk segments and answer the
batch-parity query families with ``repro query``.
"""

from repro.stream.anomaly import AnomalyConfig, AnomalyEvent, EwmaDetector
from repro.stream.checkpoint import CheckpointManager
from repro.stream.engine import StreamEngine, StreamReport
from repro.stream.faults import (
    DRILL_MODES,
    DrillResult,
    FaultPlan,
    FaultSpec,
    FaultySource,
    run_drill,
)
from repro.stream.metrics import StreamMetrics
from repro.stream.rollup import StreamRecord, StreamRollup
from repro.stream.source import (
    BoundedBuffer,
    IterableSource,
    JsonlDirectorySource,
    JsonlSource,
    SampleSource,
    SimulatorSource,
    StreamItem,
)

__all__ = [
    "AnomalyConfig",
    "AnomalyEvent",
    "EwmaDetector",
    "CheckpointManager",
    "DRILL_MODES",
    "DrillResult",
    "FaultPlan",
    "FaultSpec",
    "FaultySource",
    "run_drill",
    "StreamEngine",
    "StreamReport",
    "StreamMetrics",
    "StreamRollup",
    "StreamRecord",
    "BoundedBuffer",
    "IterableSource",
    "JsonlDirectorySource",
    "JsonlSource",
    "SampleSource",
    "SimulatorSource",
    "StreamItem",
]
