"""Seeded, deterministic fault injection for the streaming pipeline.

A measurement pipeline that runs unattended for weeks is defined by how
it behaves when things break: sources hiccup and redeliver, capture
files get truncated mid-line, and the process itself is kill-9'd
between checkpoints or mid-compaction.  This module makes every one of
those failures *schedulable* so the recovery paths are exercised
deterministically instead of discovered in production:

* :class:`FaultPlan` -- a list of :class:`FaultSpec` entries, each
  "fire fault *kind* when the source is about to deliver item *index*".
  Plans can be generated from a seed (every run with the same seed sees
  the same faults) or loaded from JSON (see :meth:`FaultPlan.to_dict`
  for the schema).
* :class:`FaultySource` -- wraps any
  :class:`~repro.stream.source.SampleSource` and executes the plan:
  transient errors and truncated-line reads raise
  :class:`~repro.errors.TransientSourceError` (the engine retries),
  stalls sleep, duplicates redeliver the previous item without
  advancing the cursor (the engine dedupes), and ``kill9`` takes the
  whole process down -- the hook the kill/resume drill is built on.
* :func:`run_drill` -- the end-to-end fire drills behind
  ``repro stream --drill``: each runs the pipeline under a fault plan
  and asserts the final rollup is byte-identical to an uninterrupted
  clean run.

Faults fire **at most once** each, and plans index *delivered* items
(what the engine sees), so a plan composes with any source family.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import random
import signal
import tempfile
import time
from collections import Counter
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import StreamError, TransientSourceError
from repro.stream.source import SampleSource, StreamItem

__all__ = [
    "FAULT_KINDS",
    "DRILL_MODES",
    "FaultSpec",
    "FaultPlan",
    "FaultySource",
    "DrillResult",
    "run_drill",
]

#: Everything a :class:`FaultSpec` can do to a stream.
FAULT_KINDS = ("error", "stall", "truncate", "duplicate", "kill9")

#: The fire drills ``repro stream --drill`` knows how to run.
DRILL_MODES = ("flaky-source", "kill9-resume", "store-compaction")

#: Plan schema version carried in :meth:`FaultPlan.to_dict`.
FAULT_PLAN_VERSION = 1


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One planned fault: fire ``kind`` before delivering item ``index``.

    ``index`` counts items actually delivered by the wrapped source
    (0-based), so plans are stable across source families.  Kinds:

    * ``error`` -- raise a :class:`TransientSourceError` once; the item
      is delivered on the engine's retry.
    * ``truncate`` -- same recovery path, but phrased as a torn JSONL
      tail line (the fault a concurrently-written capture file shows).
    * ``stall`` -- sleep ``stall_seconds`` before delivering.
    * ``duplicate`` -- redeliver the previous item without advancing the
      cursor; downstream must dedupe.
    * ``kill9`` -- SIGKILL the calling process.  For drills that kill
      the whole engine at a planned point.
    """

    index: int
    kind: str
    stall_seconds: float = 0.002
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise StreamError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.index < 0:
            raise StreamError("fault index must be >= 0")
        if self.stall_seconds < 0:
            raise StreamError("stall_seconds must be >= 0")


@dataclasses.dataclass
class FaultPlan:
    """An ordered, JSON-serialisable schedule of faults."""

    faults: List[FaultSpec] = dataclasses.field(default_factory=list)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        self.faults = sorted(self.faults, key=lambda f: f.index)
        by_index: Dict[int, List[Tuple[int, FaultSpec]]] = {}
        for key, fault in enumerate(self.faults):
            by_index.setdefault(fault.index, []).append((key, fault))
        self._by_index = by_index

    def __len__(self) -> int:
        return len(self.faults)

    def at(self, index: int) -> List[Tuple[int, FaultSpec]]:
        """``(key, fault)`` pairs scheduled for delivery index ``index``."""
        return self._by_index.get(index, [])

    @classmethod
    def generate(
        cls,
        seed: int,
        n_samples: int,
        *,
        error_rate: float = 0.01,
        stall_rate: float = 0.0,
        truncate_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        stall_seconds: float = 0.002,
    ) -> "FaultPlan":
        """Draw a plan from a seed: same seed, same faults, every run."""
        rates = (
            ("error", error_rate),
            ("stall", stall_rate),
            ("truncate", truncate_rate),
            ("duplicate", duplicate_rate),
        )
        if any(rate < 0 or rate > 1 for _, rate in rates):
            raise StreamError("fault rates must be within [0, 1]")
        rng = random.Random(seed)
        faults: List[FaultSpec] = []
        for index in range(n_samples):
            for kind, rate in rates:
                if rate > 0 and rng.random() < rate:
                    faults.append(
                        FaultSpec(index=index, kind=kind, stall_seconds=stall_seconds)
                    )
        return cls(faults=faults, seed=seed)

    def to_dict(self) -> dict:
        """The documented fault-plan JSON schema::

            {"version": 1, "seed": 7,
             "faults": [{"index": 120, "kind": "error",
                         "stall_seconds": 0.002, "detail": ""}, ...]}
        """
        return {
            "version": FAULT_PLAN_VERSION,
            "seed": self.seed,
            "faults": [dataclasses.asdict(fault) for fault in self.faults],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        version = payload.get("version", FAULT_PLAN_VERSION)
        if version != FAULT_PLAN_VERSION:
            raise StreamError(
                f"fault plan has schema version {version!r}, "
                f"expected {FAULT_PLAN_VERSION}"
            )
        faults = [
            FaultSpec(
                index=int(entry["index"]),
                kind=str(entry["kind"]),
                stall_seconds=float(entry.get("stall_seconds", 0.002)),
                detail=str(entry.get("detail", "")),
            )
            for entry in payload.get("faults", [])
        ]
        return cls(faults=faults, seed=payload.get("seed"))


class FaultySource(SampleSource):
    """Wrap a source and execute a :class:`FaultPlan` against its stream.

    Cursor and seek delegate to the wrapped source, so checkpoints taken
    through a faulty source resume exactly like clean ones.  Fired
    faults are remembered on the instance (not the iterator), so a
    retrying engine that re-iterates after an injected error does not
    trip over the same fault twice.
    """

    def __init__(self, inner: SampleSource, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self._delivered = 0
        self._fired: set = set()
        self._last_item: Optional[StreamItem] = None
        #: kind -> number of faults actually fired (drills report this).
        self.injected: Counter = Counter()

    def __iter__(self) -> Iterator[StreamItem]:
        iterator = iter(self.inner)
        while True:
            for key, fault in self.plan.at(self._delivered):
                if key in self._fired:
                    continue
                self._fired.add(key)
                if fault.kind == "stall":
                    self.injected["stall"] += 1
                    time.sleep(fault.stall_seconds)
                elif fault.kind == "duplicate":
                    if self._last_item is None:
                        continue  # nothing to redeliver yet
                    self.injected["duplicate"] += 1
                    yield self._last_item  # cursor unchanged: a true dup
                elif fault.kind == "kill9":
                    self.injected["kill9"] += 1
                    os.kill(os.getpid(), signal.SIGKILL)
                elif fault.kind == "truncate":
                    self.injected["truncate"] += 1
                    raise TransientSourceError(
                        f"injected truncated JSONL line before item "
                        f"{self._delivered}{': ' + fault.detail if fault.detail else ''}"
                    )
                else:  # "error"
                    self.injected["error"] += 1
                    raise TransientSourceError(
                        f"injected transient read error before item "
                        f"{self._delivered}{': ' + fault.detail if fault.detail else ''}"
                    )
            try:
                item = next(iterator)
            except StopIteration:
                return
            self._last_item = item
            self._delivered += 1
            yield item

    def cursor(self) -> object:
        return self.inner.cursor()

    def seek(self, cursor: object) -> None:
        self.inner.seek(cursor)
        # A seek lands "between" items; the previous-item cache must not
        # survive it or a later duplicate fault would replay stale data.
        self._last_item = None

    def close(self) -> None:
        self.inner.close()


# ----------------------------------------------------------------------
# Fire drills
# ----------------------------------------------------------------------
@dataclasses.dataclass
class DrillResult:
    """Outcome of one ``--drill`` run."""

    mode: str
    parity: bool  # hardened rollup byte-identical to the clean run?
    samples: int  # records in the clean rollup
    details: Dict[str, object]

    @property
    def ok(self) -> bool:
        # A recovery that left no trace event fails the drill too.
        return self.parity and self.details.get("obs_events_ok") is not False

    def render(self) -> str:
        lines = [
            f"drill {self.mode}: {'PASS' if self.ok else 'FAIL'}",
            f"  rollup parity with clean run: {'yes' if self.parity else 'NO'}",
            f"  records: {self.samples}",
        ]
        for key in sorted(self.details):
            lines.append(f"  {key}: {self.details[key]}")
        return "\n".join(lines)


def _rollup_fingerprint(rollup) -> dict:
    """Order-sensitive freeze of the four batch-parity query families.

    ``dict == dict`` ignores key order, but the store's parity contract
    includes it; freezing every mapping into key/value row lists makes
    a reordering (or a single drifted float) show up as inequality.
    """

    def freeze(value):
        if isinstance(value, dict):
            return [[str(key), freeze(item)] for key, item in value.items()]
        if isinstance(value, (list, tuple)):
            return [freeze(item) for item in value]
        return value

    return {
        "n_records": rollup.n_records,
        "country_tampering_rate": freeze(rollup.country_tampering_rate()),
        "timeseries": freeze(rollup.timeseries()),
        "signature_hour_counts": freeze(
            {c: rollup.signature_hour_counts(c) for c in rollup.countries}
        ),
        "stage_statistics": freeze(rollup.stage_statistics()),
    }


def _drill_source(scenario: str, connections: int, seed: int):
    from repro.workloads.scenarios import (
        iran_protest_stream_source,
        two_week_stream_source,
    )

    if scenario == "iran":
        return iran_protest_stream_source(n_connections=connections, seed=seed)
    return two_week_stream_source(n_connections=connections, seed=seed)


def _clean_rollup(scenario: str, connections: int, seed: int) -> dict:
    from repro.stream.engine import StreamEngine

    source = _drill_source(scenario, connections, seed)
    report = StreamEngine(source, geodb=source.world.geo).run()
    return report.rollup.to_dict()


def _drill_flaky_source(scenario: str, connections: int, seed: int) -> DrillResult:
    """Errors, stalls, truncations, and duplicates; retries must absorb them."""
    from repro.stream.engine import StreamEngine

    clean = _clean_rollup(scenario, connections, seed)
    plan = FaultPlan.generate(
        seed,
        connections,
        error_rate=0.02,
        stall_rate=0.005,
        truncate_rate=0.01,
        duplicate_rate=0.02,
        stall_seconds=0.001,
    )
    inner = _drill_source(scenario, connections, seed)
    source = FaultySource(inner, plan)
    engine = StreamEngine(
        source,
        geodb=inner.world.geo,
        max_source_retries=8,
        retry_backoff_seconds=0.001,
    )
    report = engine.run()
    return DrillResult(
        mode="flaky-source",
        parity=report.rollup.to_dict() == clean,
        samples=report.rollup.n_records,
        details={
            "faults_planned": len(plan),
            "faults_injected": dict(source.injected),
            "source_retries": report.metrics["source_retries"],
            "duplicates_dropped": report.metrics["duplicates_dropped"],
        },
    )


def _kill9_engine_child(
    scenario: str,
    connections: int,
    seed: int,
    checkpoint_path: str,
    interval: int,
    kill_index: int,
) -> None:
    """Child body for the kill9-resume drill: run until the planned SIGKILL."""
    from repro.stream.engine import StreamEngine

    inner = _drill_source(scenario, connections, seed)
    plan = FaultPlan(faults=[FaultSpec(index=kill_index, kind="kill9")])
    StreamEngine(
        FaultySource(inner, plan),
        geodb=inner.world.geo,
        checkpoint_path=checkpoint_path,
        checkpoint_interval=interval,
    ).run()


def _drill_kill9_resume(
    scenario: str,
    connections: int,
    seed: int,
    checkpoint_dir: Optional[str] = None,
) -> DrillResult:
    """SIGKILL the whole engine at a checkpoint boundary, then resume."""
    from repro.stream.engine import StreamEngine

    clean = _clean_rollup(scenario, connections, seed)
    interval = max(10, connections // 8)
    # Two full checkpoint intervals in, i.e. the kill lands exactly as a
    # checkpoint has just been written -- the nastiest boundary.
    kill_index = 2 * interval
    owns_dir = checkpoint_dir is None
    if owns_dir:
        checkpoint_dir = tempfile.mkdtemp(prefix="repro-drill-")
    checkpoint_path = os.path.join(checkpoint_dir, "kill9.ck.json")
    try:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = multiprocessing.get_context("spawn")
        child = ctx.Process(
            target=_kill9_engine_child,
            args=(scenario, connections, seed, checkpoint_path, interval, kill_index),
        )
        child.start()
        child.join(timeout=300.0)
        killed = child.exitcode == -signal.SIGKILL
        if child.is_alive():  # pragma: no cover - hung child safety net
            child.terminate()
            child.join(timeout=5.0)

        source = _drill_source(scenario, connections, seed)
        engine = StreamEngine(
            source,
            geodb=source.world.geo,
            checkpoint_path=checkpoint_path,
            checkpoint_interval=interval,
        )
        resumed = engine.run(resume=True)
        # A resume from a real checkpoint must leave an engine.resume
        # trace event behind for --obs exports.
        resume_events = len(engine.obs.tracer.events("engine.resume"))
        return DrillResult(
            mode="kill9-resume",
            parity=killed and resumed.rollup.to_dict() == clean,
            samples=resumed.rollup.n_records,
            details={
                "child_exitcode": child.exitcode,
                "killed_by_sigkill": killed,
                "kill_index": kill_index,
                "checkpoint_interval": interval,
                "resumed_from": resumed.metrics["resumed_from"],
                "resume_events": resume_events,
                "obs_events_ok": (
                    resume_events >= 1
                    if resumed.metrics["resumed_from"]
                    else True
                ),
            },
        )
    finally:
        if owns_dir:
            if os.path.exists(checkpoint_path):
                os.unlink(checkpoint_path)
            os.rmdir(checkpoint_dir)


def _store_chaos_child(
    scenario: str,
    connections: int,
    seed: int,
    checkpoint_path: str,
    store_dir: str,
    interval: int,
    point: str,
) -> None:
    """Child body for the store drill: run until compaction SIGKILLs us."""
    from repro.store import CompactionChaos, CompactionConfig, StoreConfig
    from repro.stream.engine import StreamEngine

    inner = _drill_source(scenario, connections, seed)
    StreamEngine(
        inner,
        geodb=inner.world.geo,
        checkpoint_path=checkpoint_path,
        checkpoint_interval=interval,
        store_dir=store_dir,
        store_config=StoreConfig(
            compaction=CompactionConfig(trigger=4, fanout=4)
        ),
        # Not the first merge: the early runs land before the first
        # checkpoint exists, and the drill needs a checkpoint to resume.
        store_chaos=CompactionChaos(on_run=4, point=point),
    ).run()


def _drill_store_compaction(
    scenario: str,
    connections: int,
    seed: int,
    checkpoint_dir: Optional[str] = None,
    chaos_point: str = "manifest-swapped",
) -> DrillResult:
    """SIGKILL the engine *inside* a compaction crash window, then resume.

    The child runs store-backed with an aggressive compaction trigger
    and a :class:`~repro.store.CompactionChaos` that kills the process
    during the first merge -- either after the merged segment is written
    but before the manifest swap (``segment-written``, the orphan
    window) or after the swap but before the old segments are unlinked
    (``manifest-swapped``, the stale-file window).  The parent resumes
    into the same store directory and must end byte-for-byte equal to a
    clean uninterrupted run on all four query families, both through
    the engine's rollup and through a fresh :class:`RollupStore` opened
    over the directory, and its detector must equal the clean run's.
    """
    from repro.store import CompactionConfig, RollupStore, StoreConfig
    from repro.stream.engine import StreamEngine

    source = _drill_source(scenario, connections, seed)
    clean_engine = StreamEngine(source, geodb=source.world.geo)
    clean = _rollup_fingerprint(clean_engine.run().rollup)

    interval = max(10, connections // 40)
    owns_dir = checkpoint_dir is None
    if owns_dir:
        checkpoint_dir = tempfile.mkdtemp(prefix="repro-drill-store-")
    checkpoint_path = os.path.join(checkpoint_dir, "store.ck.json")
    store_dir = os.path.join(checkpoint_dir, "store")
    try:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = multiprocessing.get_context("spawn")
        child = ctx.Process(
            target=_store_chaos_child,
            args=(
                scenario,
                connections,
                seed,
                checkpoint_path,
                store_dir,
                interval,
                chaos_point,
            ),
        )
        child.start()
        child.join(timeout=300.0)
        killed = child.exitcode == -signal.SIGKILL
        if child.is_alive():  # pragma: no cover - hung child safety net
            child.terminate()
            child.join(timeout=5.0)

        source = _drill_source(scenario, connections, seed)
        engine = StreamEngine(
            source,
            geodb=source.world.geo,
            checkpoint_path=checkpoint_path,
            checkpoint_interval=interval,
            store_dir=store_dir,
            store_config=StoreConfig(
                compaction=CompactionConfig(trigger=4, fanout=4)
            ),
        )
        resumed = engine.run(resume=True)
        resume_events = len(engine.obs.tracer.events("engine.resume"))
        engine_parity = _rollup_fingerprint(resumed.rollup) == clean
        detector_parity = engine.detector.to_dict() == clean_engine.detector.to_dict()

        # The disk must agree with the engine: reopen cold and query.
        reopened = RollupStore(store_dir)
        query_parity = _rollup_fingerprint(reopened.to_rollup()) == clean
        store_stats = reopened.stats()
        reopened.close()
        return DrillResult(
            mode="store-compaction",
            parity=killed and engine_parity and query_parity and detector_parity,
            samples=resumed.rollup.n_records,
            details={
                "child_exitcode": child.exitcode,
                "killed_by_sigkill": killed,
                "chaos_point": chaos_point,
                "checkpoint_interval": interval,
                "resumed_from": resumed.metrics["resumed_from"],
                "resume_events": resume_events,
                "obs_events_ok": (
                    resume_events >= 1
                    if resumed.metrics["resumed_from"]
                    else True
                ),
                "engine_parity": engine_parity,
                "detector_parity": detector_parity,
                "store_query_parity": query_parity,
                "sealed_skips": resumed.metrics["store"]["sealed_skips"],
                "segments": store_stats["segments"],
                "compaction_runs_after_resume": resumed.metrics["store"][
                    "compaction_runs"
                ],
            },
        )
    finally:
        if owns_dir:
            import shutil

            shutil.rmtree(checkpoint_dir, ignore_errors=True)


def run_drill(
    mode: str,
    *,
    scenario: str = "two-week",
    connections: int = 400,
    seed: int = 7,
    checkpoint_dir: Optional[str] = None,
    store_chaos_point: str = "manifest-swapped",
) -> DrillResult:
    """Run one named fire drill and report parity with a clean run."""
    if mode == "flaky-source":
        return _drill_flaky_source(scenario, connections, seed)
    if mode == "kill9-resume":
        return _drill_kill9_resume(scenario, connections, seed, checkpoint_dir)
    if mode == "store-compaction":
        return _drill_store_compaction(
            scenario, connections, seed, checkpoint_dir, store_chaos_point
        )
    raise StreamError(f"unknown drill {mode!r}; expected one of {DRILL_MODES}")
