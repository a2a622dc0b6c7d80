"""Tests for :mod:`repro.store`: the partitioned on-disk rollup store.

The load-bearing guarantee is **exact batch parity**: every query the
store answers -- before compaction, after compaction, after a cold
reopen, and after a checkpoint restore -- must be byte-for-byte equal
(same floats, same key order) to an in-memory :class:`StreamRollup`
that saw the whole stream.  Randomized ingest drives that end to end;
the unit classes pin down each layer (catalog, slices/segments, WAL,
manifest, compaction, queries) in isolation.
"""

from __future__ import annotations

import errno
import hashlib
import io
import json
import os
import random

import pytest

import repro.store.manifest as manifest_module
from repro._util import atomic_write_json, atomic_write_text, fsync_directory
from repro.core.model import SignatureId, Stage
from repro.errors import CheckpointError, StoreError, StreamError
from repro.store import (
    BucketSlice,
    CompactionChaos,
    CompactionConfig,
    KeyCatalog,
    MANIFEST_NAME,
    Manifest,
    RollupStore,
    StoreConfig,
    StoreQuery,
    WalEntry,
    WriteAheadLog,
    load_segment,
    write_segment,
)
from repro.store.segment import SegmentMeta
from repro.stream import (
    CheckpointManager,
    IterableSource,
    StreamEngine,
    StreamRecord,
    StreamRollup,
)
from repro.stream.faults import _rollup_fingerprint
from repro.workloads.scenarios import two_week_study

HOUR = 3600.0

TAMPERING_SIGS = [sig for sig in SignatureId if sig.is_tampering]
NON_TAMPERING_SIGS = [SignatureId.NOT_TAMPERING, SignatureId.OTHER]
STAGES = list(Stage)
COUNTRIES = ["CN", "IR", "RU", "US", "DE", "IN", "??"]


@pytest.fixture(scope="module")
def study():
    return two_week_study(n_connections=400, seed=7)


def make_source(study, n=None):
    samples = study.samples if n is None else study.samples[:n]
    return IterableSource(samples, timestamps=study.timestamps)


def random_records(seed, n, n_buckets=24):
    """A seeded in-order stream covering every counter family."""
    rng = random.Random(seed)
    timestamps = sorted(rng.uniform(0.0, n_buckets * HOUR) for _ in range(n))
    records = []
    for ts in timestamps:
        if rng.random() < 0.4:
            signature = rng.choice(TAMPERING_SIGS)
            possibly = rng.random() < 0.9  # matched-but-not-possibly too
        else:
            signature = rng.choice(NON_TAMPERING_SIGS)
            possibly = signature is SignatureId.OTHER
        records.append(
            StreamRecord(
                ts,
                rng.choice(COUNTRIES),
                signature,
                rng.choice(STAGES),
                possibly,
            )
        )
    return records


def ordered(value):
    """Freeze dict key order into lists so ``==`` compares it too."""
    if isinstance(value, dict):
        return [[str(key), ordered(val)] for key, val in value.items()]
    if isinstance(value, (list, tuple)):
        return [ordered(item) for item in value]
    return value


def assert_query_parity(store, rollup):
    """All four families answer byte-for-byte like the rollup."""
    assert ordered(
        store.query(StoreQuery("country_tampering_rate")).value
    ) == ordered(rollup.country_tampering_rate())
    assert ordered(store.query(StoreQuery("timeseries")).value) == ordered(
        rollup.timeseries()
    )
    for country in rollup.countries:
        got = store.query(
            StoreQuery("signature_hour_counts", country=country)
        ).value
        assert ordered(got) == ordered(rollup.signature_hour_counts(country))
    assert ordered(store.query(StoreQuery("stage_statistics")).value) == ordered(
        rollup.stage_statistics()
    )


def small_compaction():
    return StoreConfig(
        wal_sync_records=32,
        compaction=CompactionConfig(trigger=4, fanout=4),
    )


# ----------------------------------------------------------------------
# Key catalog
# ----------------------------------------------------------------------
class TestKeyCatalog:
    def test_first_seen_order_is_stable_and_idempotent(self):
        catalog = KeyCatalog()
        catalog.observe("IR", SignatureId.PSH_RST, True)
        catalog.observe("CN", SignatureId.NOT_TAMPERING, False)
        catalog.observe("IR", SignatureId.NOT_TAMPERING, False)
        catalog.observe("IR", SignatureId.PSH_RST, True)  # no-op
        catalog.observe("CN", SignatureId.SYN_RST, True)
        assert catalog.countries == ["IR", "CN"]
        assert catalog.country_sigs["IR"] == [
            SignatureId.PSH_RST,
            SignatureId.NOT_TAMPERING,
        ]
        assert catalog.global_sigs == [SignatureId.PSH_RST, SignatureId.SYN_RST]

    def test_counts_globally_gate(self):
        catalog = KeyCatalog()
        # Matched but not possibly-tampered: the rollup would not touch
        # signature_counts, so the global order must not record it.
        catalog.observe("IR", SignatureId.PSH_RST, False)
        assert catalog.global_sigs == []
        catalog.observe("IR", SignatureId.PSH_RST, True)
        assert catalog.global_sigs == [SignatureId.PSH_RST]

    def test_observe_record_maps_non_tampering_keys(self):
        catalog = KeyCatalog()
        catalog.observe_record(
            StreamRecord(0.0, "CN", SignatureId.OTHER, Stage.NONE, True)
        )
        assert catalog.country_sigs["CN"] == [SignatureId.NOT_TAMPERING]
        assert catalog.global_sigs == []

    def test_roundtrip(self):
        catalog = KeyCatalog()
        for record in random_records(3, 120):
            catalog.observe_record(record)
        clone = KeyCatalog.from_dict(
            json.loads(json.dumps(catalog.to_dict()))
        )
        assert clone == catalog
        assert clone.ordered_countries() == catalog.ordered_countries()
        assert clone.ordered_global_sigs() == catalog.ordered_global_sigs()

    def test_ordered_filters_preserve_relative_order(self):
        catalog = KeyCatalog()
        for country in ["RU", "IR", "CN"]:
            catalog.observe(country, SignatureId.SYN_RST, True)
        assert catalog.ordered_countries({"CN", "RU"}) == ["RU", "CN"]
        assert catalog.ordered_sigs("RU", set()) == []
        assert catalog.ordered_sigs("??") == []


# ----------------------------------------------------------------------
# Bucket slices and segment files
# ----------------------------------------------------------------------
class TestBucketSlice:
    def test_payload_roundtrip(self):
        slice_ = BucketSlice(HOUR)
        for record in random_records(9, 150, n_buckets=1):
            slice_.add(
                record.country,
                HOUR + record.ts,
                record.signature,
                record.stage,
                record.possibly_tampered,
            )
        clone = BucketSlice.from_payload(
            HOUR, json.loads(json.dumps(slice_.to_payload()))
        )
        for field in (
            "n_records",
            "possibly_tampered",
            "totals",
            "matches",
            "by_signature",
            "signature_cells",
            "stage_counts",
            "stage_matched",
            "signature_counts",
            "min_ts",
            "max_ts",
        ):
            assert getattr(clone, field) == getattr(slice_, field), field


class TestSegmentFiles:
    def _slice(self, bucket, country="IR", n=3):
        slice_ = BucketSlice(bucket)
        for i in range(n):
            slice_.add(
                country, bucket + i, SignatureId.PSH_RST, Stage.POST_PSH, True
            )
        return slice_

    def test_write_and_load_roundtrip(self, tmp_path):
        slices = [self._slice(HOUR, "IR"), self._slice(0.0, "CN")]
        meta = write_segment(str(tmp_path), 7, 1, slices)
        assert meta.buckets == (0.0, HOUR)  # sorted on write
        assert meta.countries == ("CN", "IR")
        assert meta.n_records == 6
        assert meta.size_bytes == os.path.getsize(tmp_path / meta.name)
        segment = load_segment(str(tmp_path), meta)
        assert set(segment.slices) == {0.0, HOUR}
        assert segment.slices[HOUR].totals == {"IR": 3}

    def test_empty_and_duplicate_buckets_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            write_segment(str(tmp_path), 0, 0, [])
        with pytest.raises(StoreError):
            write_segment(
                str(tmp_path), 0, 0, [self._slice(0.0), self._slice(0.0)]
            )

    def test_load_validates_version_and_id(self, tmp_path):
        meta = write_segment(str(tmp_path), 1, 0, [self._slice(0.0)])
        path = tmp_path / meta.name
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(StoreError, match="version"):
            load_segment(str(tmp_path), meta)
        payload["version"] = 1
        payload["id"] = 42
        path.write_text(json.dumps(payload))
        with pytest.raises(StoreError, match="id"):
            load_segment(str(tmp_path), meta)

    def test_load_validates_bucket_set(self, tmp_path):
        meta = write_segment(
            str(tmp_path), 2, 0, [self._slice(0.0), self._slice(HOUR)]
        )
        data = meta.to_dict()
        data["buckets"] = [0.0]
        lying = SegmentMeta.from_dict(data)
        with pytest.raises(StoreError, match="buckets"):
            load_segment(str(tmp_path), lying)

    def test_overlaps_pushdown_edges(self):
        seg = SegmentMeta(
            segment_id=0,
            name="seg-0-00000000.json",
            level=0,
            min_bucket=2 * HOUR,
            max_bucket=4 * HOUR,
            buckets=(2 * HOUR, 3 * HOUR, 4 * HOUR),
            n_records=1,
            countries=("IR",),
            size_bytes=1,
        )
        assert seg.overlaps(None, None)
        assert seg.overlaps(4 * HOUR, None)  # max bucket is inclusive
        assert not seg.overlaps(4 * HOUR + HOUR, None)
        assert seg.overlaps(None, 2 * HOUR + 1)  # end is exclusive
        assert not seg.overlaps(None, 2 * HOUR)
        assert seg.overlaps(3 * HOUR, 3 * HOUR + 1)


# ----------------------------------------------------------------------
# Write-ahead log
# ----------------------------------------------------------------------
def _entry(ordinal, bucket, country="IR", sig=SignatureId.PSH_RST):
    return WalEntry(
        ordinal=ordinal,
        bucket=bucket,
        country=country,
        ts=bucket + 0.5,
        signature=sig,
        stage=Stage.POST_PSH,
        possibly_tampered=True,
    )


class TestWriteAheadLog:
    def test_append_replay_roundtrip_in_ordinal_order(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), sync_every=4)
        # Interleave two buckets so per-file order != global order.
        for ordinal, bucket in [(1, 0.0), (2, HOUR), (3, 0.0), (4, HOUR)]:
            wal.append(_entry(ordinal, bucket))
        wal.close()
        entries = WriteAheadLog(str(tmp_path)).replay()
        assert [e.ordinal for e in entries] == [1, 2, 3, 4]
        first = entries[0]
        assert (first.bucket, first.country, first.ts) == (0.0, "IR", 0.5)
        assert first.signature is SignatureId.PSH_RST
        assert first.stage is Stage.POST_PSH
        assert first.possibly_tampered is True

    def test_torn_final_line_is_dropped(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(_entry(1, 0.0))
        wal.append(_entry(2, 0.0))
        wal.close()
        (name, path), = wal.bucket_files()
        with open(path, "a") as fh:
            fh.write('{"n":3,"b":0.0,"c"')  # crash mid-append
        entries = WriteAheadLog(str(tmp_path)).replay()
        assert [e.ordinal for e in entries] == [1, 2]

    def test_corrupt_middle_line_raises(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(_entry(1, 0.0))
        wal.close()
        (_, path), = wal.bucket_files()
        good = open(path).read()
        with open(path, "w") as fh:
            fh.write("garbage\n" + good)
        with pytest.raises(StoreError, match="corrupt WAL line"):
            WriteAheadLog(str(tmp_path)).replay()

    def test_rewrite_truncates(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        all_entries = [_entry(i, (i % 3) * HOUR) for i in range(1, 10)]
        for entry in all_entries:
            wal.append(entry)
        wal.rewrite(e for e in all_entries if e.ordinal <= 4)
        assert [e.ordinal for e in wal.replay()] == [1, 2, 3, 4]
        assert len(wal.bucket_files()) == 3  # ordinals 1..4 span 3 buckets
        wal.close()

    def test_drop_bucket_unlinks_and_tolerates_missing(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(_entry(1, 0.0))
        wal.sync()
        assert len(wal.bucket_files()) == 1
        wal.drop_bucket(0.0)
        assert wal.bucket_files() == []
        wal.drop_bucket(0.0)  # already gone: no-op
        wal.close()

    def test_sync_cadence_and_validation(self, tmp_path):
        with pytest.raises(StoreError):
            WriteAheadLog(str(tmp_path), sync_every=0)
        wal = WriteAheadLog(str(tmp_path), sync_every=2)
        wal.append(_entry(1, 0.0))
        assert wal.syncs == 0
        wal.append(_entry(2, 0.0))
        assert wal.syncs == 1  # cadence hit
        wal.sync()
        assert wal.syncs == 1  # nothing new to sync
        wal.close()


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
class TestManifest:
    def _meta(self, segment_id, buckets, level=0):
        buckets = tuple(sorted(buckets))
        return SegmentMeta(
            segment_id=segment_id,
            name=f"seg-{level}-{segment_id:08d}.json",
            level=level,
            min_bucket=buckets[0],
            max_bucket=buckets[-1],
            buckets=buckets,
            n_records=1,
            countries=("IR",),
            size_bytes=10,
        )

    def test_save_load_roundtrip_bumps_generation(self, tmp_path):
        manifest = Manifest(HOUR)
        manifest.catalog.observe("IR", SignatureId.SYN_RST, True)
        manifest.segments.append(self._meta(manifest.allocate_segment_id(), [0.0]))
        manifest.save(str(tmp_path))
        manifest.save(str(tmp_path))
        assert manifest.generation == 2
        loaded = Manifest.load(str(tmp_path))
        assert loaded.generation == 2
        assert loaded.next_segment_id == 1
        assert loaded.catalog == manifest.catalog
        assert loaded.segments == manifest.segments
        assert loaded.sealed_buckets() == {0.0}

    def test_load_missing_returns_none(self, tmp_path):
        assert Manifest.load(str(tmp_path)) is None

    def test_unique_owner_invariant(self, tmp_path):
        manifest = Manifest(HOUR)
        manifest.segments = [self._meta(0, [0.0, HOUR]), self._meta(1, [HOUR])]
        with pytest.raises(StoreError, match="lives in segments"):
            manifest.bucket_owners()
        manifest.save(str(tmp_path))
        with pytest.raises(StoreError, match="lives in segments"):
            Manifest.load(str(tmp_path))

    def test_schema_version_checked(self, tmp_path):
        Manifest(HOUR).save(str(tmp_path))
        path = tmp_path / MANIFEST_NAME
        data = json.loads(path.read_text())
        data["version"] = 0
        path.write_text(json.dumps(data))
        with pytest.raises(StoreError, match="schema version"):
            Manifest.load(str(tmp_path))

    def test_store_rejects_bucket_seconds_mismatch(self, tmp_path):
        Manifest(HOUR).save(str(tmp_path))
        with pytest.raises(StoreError, match="bucket_seconds"):
            RollupStore(str(tmp_path), bucket_seconds=HOUR / 2)


# ----------------------------------------------------------------------
# Compaction
# ----------------------------------------------------------------------
class TestCompaction:
    def test_config_validation(self):
        with pytest.raises(StoreError):
            CompactionConfig(trigger=1)
        with pytest.raises(StoreError):
            CompactionConfig(fanout=1)
        with pytest.raises(StoreError):
            CompactionConfig(max_level=0)
        with pytest.raises(StoreError):
            CompactionChaos(point="before-breakfast")
        with pytest.raises(StoreError):
            CompactionChaos(on_run=0)

    def _sealed_store(self, tmp_path, seed=21, n=400, n_buckets=20):
        records = random_records(seed, n, n_buckets=n_buckets)
        rollup = StreamRollup()
        store = RollupStore(str(tmp_path / "store"), config=small_compaction())
        for record in records:
            rollup.add(record)
            store.add(record)
        store.seal_open()
        return store, rollup

    def test_size_tiered_merge_preserves_parity(self, tmp_path):
        store, rollup = self._sealed_store(tmp_path)
        level0_before = len(store.manifest.levels().get(0, []))
        assert level0_before >= 4
        runs = store.compact()
        assert runs >= 1
        levels = store.manifest.levels()
        assert len(levels.get(0, [])) < 4  # below the trigger again
        assert any(level >= 1 for level in levels)
        # Disk holds exactly the manifested files: victims unlinked, no
        # orphans left behind.
        assert sorted(os.listdir(store.segments_dir)) == sorted(
            meta.name for meta in store.manifest.segments
        )
        store.manifest.bucket_owners()  # unique-owner invariant holds
        assert store.manifest.sealed_records() == rollup.n_records
        assert_query_parity(store, rollup)
        assert store.stats()["compaction_bytes_written"] > 0
        store.close()

    def test_long_history_compacts_smaller_and_quiesces(self, tmp_path):
        store, rollup = self._sealed_store(tmp_path, seed=13, n=900, n_buckets=60)
        before = len(store.manifest.segments)
        assert store.compact(max_runs=256) >= 1
        assert len(store.manifest.segments) < before
        assert store.compactor.due(store.manifest) is None
        assert_query_parity(store, rollup)
        store.close()

    def test_max_level_is_never_exceeded(self, tmp_path):
        store, _ = self._sealed_store(tmp_path, seed=8, n=600, n_buckets=40)
        for _ in range(8):
            if not store.compact():
                break
        max_level = store.compactor.config.max_level
        assert store.manifest.levels()
        assert max(store.manifest.levels()) <= max_level
        # A full level at max_level must not be due for another merge.
        assert store.compactor.due(store.manifest) is None or max(
            store.manifest.levels()
        ) < max_level
        store.close()


# ----------------------------------------------------------------------
# Failed manifest swaps
# ----------------------------------------------------------------------
def fail_next_manifest_write(monkeypatch):
    """Make the next manifest swap raise ENOSPC; later swaps go through."""
    real = manifest_module.atomic_write_text
    failed = []

    def flaky(path, pieces):
        if not failed:
            failed.append(path)
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(path, pieces)

    monkeypatch.setattr(manifest_module, "atomic_write_text", flaky)
    return failed


def store_answers(store, countries):
    """Every family's answer, key order frozen, for store-vs-store checks."""
    answers = [
        ordered(store.query(StoreQuery(family)).value)
        for family in ("country_tampering_rate", "timeseries", "stage_statistics")
    ]
    for country in countries:
        answers.append(
            ordered(
                store.query(
                    StoreQuery("signature_hour_counts", country=country)
                ).value
            )
        )
    return answers


def relabel(record, ts):
    """A copy of ``record`` at a new time (no new catalog keys)."""
    return StreamRecord(
        ts, record.country, record.signature, record.stage,
        record.possibly_tampered,
    )


class TestFailedManifestSwap:
    """A swap that raises leaves memory describing the manifest on disk."""

    def _assert_matches_disk(self, store):
        on_disk = Manifest.load(store.directory)
        assert on_disk.generation == store.manifest.generation
        assert on_disk.segments == store.manifest.segments
        assert store.stats()["sealed_buckets"] == len(on_disk.sealed_buckets())

    def test_failed_seal_keeps_buckets_open(self, tmp_path, monkeypatch):
        records = random_records(37, 300, n_buckets=10)
        head, tail = records[:150], records[150:]
        late = relabel(records[0], 1.5 * HOUR)
        horizon = 2 * HOUR

        reference = RollupStore(str(tmp_path / "reference"))
        for record in head:
            reference.add(record)
        reference.seal_through(0.0)
        reference.add(late)
        reference.seal_through(horizon)
        for record in tail:
            reference.add(record)
        reference.seal_open()

        directory = str(tmp_path / "store")
        store = RollupStore(directory)
        for record in head:
            store.add(record)
        assert store.seal_through(0.0) == 1
        generation, segments = store.manifest.generation, list(store.manifest.segments)
        open_before = store.stats()["open_buckets"]
        failed = fail_next_manifest_write(monkeypatch)
        with pytest.raises(OSError):
            store.seal_through(horizon)
        assert failed
        assert store.manifest.generation == generation
        assert store.manifest.segments == segments
        assert store.stats()["open_buckets"] == open_before
        self._assert_matches_disk(store)

        store.add(late)  # its bucket never sealed: it folds
        assert store.sealed_skips == 0
        assert store.seal_through(horizon) == 2  # the retry seals
        self._assert_matches_disk(store)
        for record in tail:
            store.add(record)
        store.seal_open()
        store.close()

        reopened = RollupStore(directory)  # sweeps the failed seal's files
        assert sorted(os.listdir(reopened.segments_dir)) == sorted(
            meta.name for meta in reopened.manifest.segments
        )
        countries = sorted({record.country for record in records})
        assert store_answers(reopened, countries) == store_answers(
            reference, countries
        )
        reopened.close()
        reference.close()

    def test_failed_compaction_keeps_victims_live(self, tmp_path, monkeypatch):
        records = random_records(41, 300, n_buckets=12)
        extra = relabel(records[0], 12.5 * HOUR)

        reference = RollupStore(str(tmp_path / "reference"), config=small_compaction())
        for record in records:
            reference.add(record)
        reference.seal_open()
        reference.compact()
        reference.add(extra)
        reference.seal_open()
        reference.compact()

        directory = str(tmp_path / "store")
        store = RollupStore(directory, config=small_compaction())
        for record in records:
            store.add(record)
        store.seal_open()
        generation, segments = store.manifest.generation, list(store.manifest.segments)
        fail_next_manifest_write(monkeypatch)
        with pytest.raises(OSError):
            store.compact()
        assert store.manifest.generation == generation
        assert store.manifest.segments == segments
        self._assert_matches_disk(store)

        store.add(extra)  # ingest carries on
        assert store.stats()["open_buckets"] == 1
        assert store.sealed_skips == 0
        store.seal_open()
        assert store.compact() >= 1  # the retry merges
        self._assert_matches_disk(store)
        store.close()

        reopened = RollupStore(directory, config=small_compaction())
        assert sorted(os.listdir(reopened.segments_dir)) == sorted(
            meta.name for meta in reopened.manifest.segments
        )
        countries = sorted({record.country for record in records})
        assert store_answers(reopened, countries) == store_answers(
            reference, countries
        )
        reopened.close()
        reference.close()


# ----------------------------------------------------------------------
# Store lifecycle: randomized ingest, parity at every stage
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [3, 11, 42])
class TestStoreLifecycleParity:
    def test_randomized_ingest_matches_rollup_everywhere(self, tmp_path, seed):
        records = random_records(seed, 600)
        rollup = StreamRollup()
        store = RollupStore(str(tmp_path / "store"), config=small_compaction())
        watermark = None
        for seq, record in enumerate(records):
            rollup.add(record)
            store.add(record)
            watermark = record.ts if watermark is None else max(watermark, record.ts)
            if seq % 97 == 96:
                if store.seal_through(watermark - 2 * HOUR):
                    store.maybe_compact()

        # Mixed sealed segments + open slices.
        assert store.stats()["open_buckets"] > 0
        assert_query_parity(store, rollup)
        assert _rollup_fingerprint(store.to_rollup()) == _rollup_fingerprint(rollup)

        store.seal_open()
        assert store.stats()["open_buckets"] == 0
        assert_query_parity(store, rollup)

        store.compact()
        assert_query_parity(store, rollup)
        store.close()

        reopened = RollupStore(str(tmp_path / "store"))
        assert _rollup_fingerprint(reopened.to_rollup()) == _rollup_fingerprint(
            rollup
        )
        assert_query_parity(reopened, rollup)
        reopened.close()

    def test_wal_replay_rebuilds_open_state(self, tmp_path, seed):
        records = random_records(seed, 200, n_buckets=6)
        rollup = StreamRollup()
        store = RollupStore(str(tmp_path / "store"))
        for record in records:
            rollup.add(record)
            store.add(record)
        store.flush()
        # Crash: abandon the store without sealing or closing.
        del store

        replayed = RollupStore(str(tmp_path / "store"))
        assert replayed.ordinal == len(records)
        assert _rollup_fingerprint(replayed.to_rollup()) == _rollup_fingerprint(
            rollup
        )
        assert_query_parity(replayed, rollup)
        replayed.close()

        # Replay is idempotent: a second cold open sees the same state.
        again = RollupStore(str(tmp_path / "store"))
        assert _rollup_fingerprint(again.to_rollup()) == _rollup_fingerprint(
            rollup
        )
        again.close()


class TestQueries:
    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("store-queries")
        records = random_records(17, 700)
        rollup = StreamRollup()
        store = RollupStore(str(directory / "store"), config=small_compaction())
        for record in records:
            rollup.add(record)
            store.add(record)
        store.seal_open()
        store.compact()
        yield store, rollup
        store.close()

    def test_time_range_pushdown(self, corpus):
        store, rollup = corpus
        start, end = 6 * HOUR, 12 * HOUR
        result = store.query(StoreQuery("timeseries", start=start, end=end))
        expected = {}
        for country, series in rollup.timeseries().items():
            clipped = [(b, r) for b, r in series if start <= b < end]
            if clipped:
                expected[country] = clipped
        assert ordered(result.value) == ordered(expected)
        assert result.segments_skipped > 0  # pushdown pruned the scan
        assert result.segments_scanned + result.segments_skipped == len(
            store.manifest.segments
        )

    def test_narrow_range_skips_most_level0_segments(self, tmp_path):
        records = random_records(17, 700)
        rollup = StreamRollup()
        store = RollupStore(str(tmp_path / "store"))
        for record in records:
            rollup.add(record)
            store.add(record)
        store.seal_open()  # one level-0 segment per bucket, no compaction
        start, end = 12 * HOUR, 15 * HOUR
        result = store.query(StoreQuery("timeseries", start=start, end=end))
        assert result.segments_scanned == 3
        assert result.segments_skipped == len(store.manifest.segments) - 3
        assert result.segments_skipped > result.segments_scanned
        expected = {}
        for country, series in rollup.timeseries().items():
            clipped = [(b, r) for b, r in series if start <= b < end]
            if clipped:
                expected[country] = clipped
        assert ordered(result.value) == ordered(expected)
        store.close()

    def test_country_pushdown(self, corpus):
        store, rollup = corpus
        result = store.query(
            StoreQuery("country_tampering_rate", countries=("IR",))
        )
        assert ordered(result.value) == ordered(
            {"IR": rollup.country_tampering_rate()["IR"]}
        )

    def test_signature_hour_counts_matches_per_country(self, corpus):
        store, rollup = corpus
        for country in rollup.countries:
            got = store.query(
                StoreQuery("signature_hour_counts", country=country)
            ).value
            assert ordered(got) == ordered(rollup.signature_hour_counts(country))

    def test_open_buckets_counted_in_scan_stats(self, tmp_path):
        store = RollupStore(str(tmp_path / "store"))
        store.add(StreamRecord(10.0, "IR", SignatureId.SYN_RST, Stage.POST_SYN, True))
        result = store.query(StoreQuery("country_tampering_rate"))
        assert result.open_buckets_scanned == 1
        assert result.segments_scanned == 0
        assert result.value == {"IR": 100.0}
        store.close()

    def test_query_validation(self):
        with pytest.raises(StoreError, match="unknown query family"):
            StoreQuery("who_is_tampering")
        with pytest.raises(StoreError, match="requires a country"):
            StoreQuery("signature_hour_counts")
        with pytest.raises(StoreError, match="global"):
            StoreQuery("stage_statistics", countries=("IR",))
        with pytest.raises(StoreError, match="greater than start"):
            StoreQuery("timeseries", start=HOUR, end=HOUR)

    def test_timeseries_match_without_total_raises(self):
        # Regression: a corrupt/partial part can hold tampering matches
        # for a (country, bucket) cell with no total connections -- a
        # state no consistent rollup produces.  The old code silently
        # dropped the cell (or divided by a fabricated total of 1);
        # refuse to answer instead.
        from repro.store.query import execute

        catalog = KeyCatalog()
        catalog.observe("US", SignatureId.NOT_TAMPERING, False)
        catalog.observe("IR", SignatureId.SYN_RST, True)
        part = BucketSlice(bucket=0.0)
        part.totals = {"US": 10}
        part.matches = {"US": 0, "IR": 3}  # IR matches, no IR totals
        with pytest.raises(StoreError, match="inconsistent store state"):
            execute(StoreQuery("timeseries"), catalog, [part])

    def test_timeseries_consistent_parts_unaffected(self):
        from repro.store.query import execute

        catalog = KeyCatalog()
        catalog.observe("IR", SignatureId.SYN_RST, True)
        part = BucketSlice(bucket=0.0)
        part.totals = {"IR": 4}
        part.matches = {"IR": 3}
        value = execute(StoreQuery("timeseries"), catalog, [part])
        assert value == {"IR": [(0.0, 75.0)]}


# ----------------------------------------------------------------------
# Checkpoint integration: O(open) payloads and resume resync
# ----------------------------------------------------------------------
class TestCheckpointIntegration:
    def test_checkpoint_payload_is_o_open_buckets(self, tmp_path):
        records = random_records(29, 900, n_buckets=36)
        rollup = StreamRollup()
        store = RollupStore(str(tmp_path / "store"), config=small_compaction())
        size_at_third = rollup_size_at_third = None
        watermark = None
        for seq, record in enumerate(records):
            rollup.add(record)
            store.add(record)
            watermark = record.ts if watermark is None else max(watermark, record.ts)
            if seq % 60 == 59:
                store.seal_through(watermark - 2 * HOUR)
            if seq == 299:
                size_at_third = len(json.dumps(store.checkpoint_state()))
                rollup_size_at_third = len(json.dumps(rollup.to_dict()))
        size_at_end = len(json.dumps(store.checkpoint_state()))
        rollup_size_at_end = len(json.dumps(rollup.to_dict()))

        # The rollup payload grows with history; the store payload only
        # tracks the open tail (plus the bounded key catalog).
        assert rollup_size_at_end > 2 * rollup_size_at_third
        assert size_at_end < 1.5 * size_at_third
        state = store.checkpoint_state()
        assert len(state["open"]) == store.stats()["open_buckets"]
        store.seal_open()
        assert store.checkpoint_state()["open"] == []
        store.close()

    def test_restore_resyncs_against_newer_disk(self, tmp_path):
        records = random_records(31, 400, n_buckets=16)
        reference = StreamRollup()
        for record in records:
            reference.add(record)

        directory = str(tmp_path / "store")
        store = RollupStore(directory, config=small_compaction())
        watermark = None
        for seq, record in enumerate(records[:250]):
            store.add(record)
            watermark = record.ts if watermark is None else max(watermark, record.ts)
            if seq % 80 == 79:
                store.seal_through(watermark - 2 * HOUR)
        state = store.checkpoint_state()
        generation_at_checkpoint = state["generation"]

        # The engine keeps running past the checkpoint: more records,
        # another seal (disk generation moves ahead), then a crash.
        for record in records[250:320]:
            store.add(record)
            watermark = max(watermark, record.ts)
        store.seal_through(watermark - HOUR)
        assert store.manifest.generation > generation_at_checkpoint
        store.flush()  # even durable post-checkpoint entries must go
        del store  # crash

        resumed = RollupStore(directory, config=small_compaction())
        resumed.restore(state)
        assert resumed.ordinal == 250
        # The source re-delivers everything after the checkpoint; records
        # for buckets sealed post-checkpoint are skipped, not re-counted.
        for record in records[250:]:
            resumed.add(record)
        assert resumed.ordinal == len(records)
        assert resumed.sealed_skips > 0
        resumed.seal_open()
        resumed.compact()
        assert _rollup_fingerprint(resumed.to_rollup()) == _rollup_fingerprint(
            reference
        )
        assert_query_parity(resumed, reference)
        resumed.close()

    def test_restore_rejects_checkpoint_from_newer_store(self, tmp_path):
        store = RollupStore(str(tmp_path / "store"))
        state = store.checkpoint_state()
        state["generation"] = store.manifest.generation + 1
        with pytest.raises(CheckpointError, match="not the checkpoint's store"):
            store.restore(state)
        store.close()


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
class TestEngineIntegration:
    def test_store_backed_engine_matches_plain_engine(self, study, tmp_path):
        clean = StreamEngine(make_source(study), geodb=study.geo).run()
        engine = StreamEngine(
            make_source(study),
            geodb=study.geo,
            store_dir=str(tmp_path / "store"),
            store_config=small_compaction(),
        )
        stored = engine.run()
        assert stored.finished
        assert stored.samples_processed == clean.samples_processed
        assert _rollup_fingerprint(stored.rollup) == _rollup_fingerprint(
            clean.rollup
        )
        stats = stored.metrics["store"]
        assert stats["open_buckets"] == 0  # finish seals everything
        assert stats["sealed_records"] == clean.rollup.n_records
        assert stats["compaction_runs"] >= 1
        engine.store.close()

        # And the cold store alone answers like the clean rollup.
        reopened = RollupStore(str(tmp_path / "store"))
        assert_query_parity(reopened, clean.rollup)
        reopened.close()

    def test_interrupted_store_run_resumes_to_parity(self, study, tmp_path):
        clean = StreamEngine(make_source(study), geodb=study.geo).run()
        checkpoint = str(tmp_path / "ckpt.json")
        store_dir = str(tmp_path / "store")
        first = StreamEngine(
            make_source(study),
            geodb=study.geo,
            store_dir=store_dir,
            store_config=small_compaction(),
            checkpoint_path=checkpoint,
            checkpoint_interval=50,
        )
        partial = first.run(max_samples=200)
        assert not partial.finished
        first.store.close()

        second = StreamEngine(
            make_source(study),
            geodb=study.geo,
            store_dir=store_dir,
            store_config=small_compaction(),
            checkpoint_path=checkpoint,
            checkpoint_interval=50,
        )
        final = second.run(resume=True)
        assert final.finished
        assert _rollup_fingerprint(final.rollup) == _rollup_fingerprint(
            clean.rollup
        )
        second.store.close()

    def test_fresh_run_into_dirty_store_raises(self, study, tmp_path):
        store_dir = str(tmp_path / "store")
        engine = StreamEngine(
            make_source(study, 50), geodb=study.geo, store_dir=store_dir
        )
        engine.run()
        engine.store.close()
        fresh = StreamEngine(
            make_source(study, 50), geodb=study.geo, store_dir=store_dir
        )
        with pytest.raises(StreamError, match="already holds ingested state"):
            fresh.run()
        fresh.store.close()

    def test_resume_dirty_store_without_checkpoint_raises(self, study, tmp_path):
        store_dir = str(tmp_path / "store")
        engine = StreamEngine(
            make_source(study, 50), geodb=study.geo, store_dir=store_dir
        )
        engine.run()
        engine.store.close()
        resumer = StreamEngine(
            make_source(study, 50),
            geodb=study.geo,
            store_dir=store_dir,
            checkpoint_path=str(tmp_path / "never-written.json"),
        )
        with pytest.raises(CheckpointError, match="no.*checkpoint exists"):
            resumer.run(resume=True)
        resumer.store.close()

    def test_checkpoint_kind_mismatch_raises_both_ways(self, study, tmp_path):
        # A store-backed checkpoint cannot resume a plain engine...
        store_ckpt = str(tmp_path / "store-ckpt.json")
        engine = StreamEngine(
            make_source(study, 60),
            geodb=study.geo,
            store_dir=str(tmp_path / "store-a"),
            checkpoint_path=store_ckpt,
        )
        engine.run()
        engine.store.close()
        plain = StreamEngine(
            make_source(study, 60), geodb=study.geo, checkpoint_path=store_ckpt
        )
        with pytest.raises(CheckpointError, match="store-backed engine"):
            plain.run(resume=True)

        # ...and a plain checkpoint cannot resume a store-backed engine.
        plain_ckpt = str(tmp_path / "plain-ckpt.json")
        StreamEngine(
            make_source(study, 60), geodb=study.geo, checkpoint_path=plain_ckpt
        ).run()
        stored = StreamEngine(
            make_source(study, 60),
            geodb=study.geo,
            store_dir=str(tmp_path / "store-b"),
            checkpoint_path=plain_ckpt,
        )
        with pytest.raises(CheckpointError, match="without a store"):
            stored.run(resume=True)
        stored.store.close()


# ----------------------------------------------------------------------
# Durability satellites
# ----------------------------------------------------------------------
class TestDurabilityHelpers:
    def test_atomic_write_json_honours_umask(self, tmp_path):
        path = str(tmp_path / "artifact.json")
        previous = os.umask(0o027)
        try:
            atomic_write_json(path, {"ok": True})
        finally:
            os.umask(previous)
        assert os.stat(path).st_mode & 0o777 == 0o640
        assert json.loads(open(path).read()) == {"ok": True}

    def test_atomic_write_json_cleans_temp_on_failure(self, tmp_path):
        with pytest.raises(TypeError):
            atomic_write_json(str(tmp_path / "bad.json"), {"x": object()})
        assert [n for n in os.listdir(tmp_path) if n.startswith(".tmp-")] == []

    def test_atomic_write_text_failing_midway_keeps_old_file(self, tmp_path):
        path = str(tmp_path / "state.json")
        atomic_write_json(path, {"old": True})

        def pieces():
            yield '{"new":'
            raise OSError(errno.ENOSPC, "No space left on device")

        with pytest.raises(OSError):
            atomic_write_text(path, pieces())
        with open(path) as fh:
            assert json.loads(fh.read()) == {"old": True}
        assert [n for n in os.listdir(tmp_path) if n.startswith(".tmp-")] == []

    def test_fsync_directory_tolerates_missing_dir(self, tmp_path):
        fsync_directory(str(tmp_path / "does-not-exist"))  # no raise

    def test_checkpoint_clear_tolerates_missing_file(self, tmp_path):
        manager = CheckpointManager(str(tmp_path / "ckpt.json"))
        manager.clear()  # nothing saved yet
        manager.save({"bucket_seconds": HOUR}, 1)
        manager.clear()
        assert manager.load() is None
        manager.clear()  # idempotent


# ----------------------------------------------------------------------
# Byte parity of everything the store writes
# ----------------------------------------------------------------------
BYTE_PARITY_PAYLOADS = [
    {
        "ts": 1673481600.0,
        "rate": 0.1,
        "tiny": 1e-7,
        "huge": 1e300,
        "negzero": -0.0,
        "count": 3,
        "name": "Iran \u2014 \u0627\u06cc\u0631\u0627\u0646",
        "flags": [True, False, None],
        "nested": [[1, [2.5, "\u00fc"]], {"k": [], "d": {}}],
    },
    [1673481600.0, 0.1, 1e-7, "\u65e5\u672c", [[], {}], -12],
]


def pure_python_json(payload, **kwargs):
    """What ``json.dump`` (always the pure-Python encoder) writes."""
    buf = io.StringIO()
    json.dump(payload, buf, **kwargs)
    return buf.getvalue() + "\n"


def assert_manifest_bytes(store):
    with open(os.path.join(store.directory, MANIFEST_NAME), "rb") as fh:
        raw = fh.read()
    expected = json.dumps(store.manifest.to_dict(), separators=(",", ":")) + "\n"
    assert raw == expected.encode("ascii")
    assert store.stats()["sealed_buckets"] == len(store.manifest.sealed_buckets())


def build_pinned_store(root):
    """A small deterministic store: seals, one compaction, open WAL
    tail, and a checkpoint beside it."""
    store = RollupStore(os.path.join(root, "store"), config=small_compaction())
    watermark = None
    for seq, record in enumerate(random_records(17, 360, n_buckets=18)):
        store.add(record)
        watermark = record.ts if watermark is None else max(watermark, record.ts)
        if seq % 40 == 39:
            store.seal_through(watermark - 2 * HOUR)
        if seq % 160 == 159:
            store.maybe_compact()
    CheckpointManager(os.path.join(root, "checkpoint.json")).save(
        store.checkpoint_state(), store.ordinal
    )
    store.close()


def tree_digest(root):
    """SHA-256 over every file under ``root``: relative path + bytes."""
    names = sorted(
        os.path.relpath(os.path.join(dirpath, name), root)
        for dirpath, _, files in os.walk(root)
        for name in files
    )
    digest = hashlib.sha256()
    for name in names:
        with open(os.path.join(root, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read() + b"\0")
    return digest.hexdigest(), names


#: Digest of :func:`build_pinned_store`'s files, as written by the
#: ``json.dump``-based writers this encoding replaced.  A change here
#: means the on-disk bytes changed.
PINNED_STORE_SHA256 = (
    "9760662e1a408baf913f55a3c48f207637770ddbc53e10bc2239e5e4d65c7d1e"
)


class TestByteParity:
    @pytest.mark.parametrize("payload", BYTE_PARITY_PAYLOADS)
    def test_atomic_write_json_compact_bytes(self, tmp_path, payload):
        path = str(tmp_path / "compact.json")
        size = atomic_write_json(path, payload)
        expected = json.dumps(payload, separators=(",", ":")) + "\n"
        assert expected == pure_python_json(payload, separators=(",", ":"))
        with open(path, "rb") as fh:
            assert fh.read() == expected.encode("ascii")
        assert size == len(expected)

    @pytest.mark.parametrize("payload", BYTE_PARITY_PAYLOADS)
    def test_atomic_write_json_indented_bytes(self, tmp_path, payload):
        path = str(tmp_path / "indented.json")
        size = atomic_write_json(path, payload, indent=2)
        expected = json.dumps(payload, indent=2) + "\n"
        assert expected == pure_python_json(payload, indent=2)
        with open(path, "rb") as fh:
            assert fh.read() == expected.encode("ascii")
        assert size == len(expected)

    def test_segment_bytes(self, tmp_path):
        slices = {}
        for record in random_records(47, 200, n_buckets=6):
            bucket = record.ts // HOUR * HOUR
            slices.setdefault(bucket, BucketSlice(bucket)).add(
                record.country, record.ts, record.signature, record.stage,
                record.possibly_tampered,
            )
        meta = write_segment(str(tmp_path), 9, 1, list(slices.values()))
        expected = json.dumps(
            {
                "version": 1,
                "id": 9,
                "level": 1,
                "buckets": [[b, slices[b].to_payload()] for b in sorted(slices)],
            },
            separators=(",", ":"),
        ) + "\n"
        with open(os.path.join(str(tmp_path), meta.name), "rb") as fh:
            assert fh.read() == expected.encode("ascii")
        assert meta.size_bytes == len(expected)
        assert meta.entry_json == json.dumps(meta.to_dict(), separators=(",", ":"))

    def test_manifest_bytes_through_seal_compaction_and_reopen(self, tmp_path):
        records = random_records(43, 400, n_buckets=16)
        directory = str(tmp_path / "store")
        store = RollupStore(directory, config=small_compaction())
        watermark = None
        for seq, record in enumerate(records[:300]):
            store.add(record)
            watermark = record.ts if watermark is None else max(watermark, record.ts)
            if seq % 50 == 49:
                store.seal_through(watermark - HOUR)
                assert_manifest_bytes(store)
        assert store.compact() >= 1
        assert_manifest_bytes(store)
        store.close()  # unsealed: the open tail lives on in the WAL

        reopened = RollupStore(directory, config=small_compaction())
        assert_manifest_bytes(reopened)  # loaded metas encode identically
        for record in records[300:]:
            reopened.add(record)
        reopened.seal_open()
        assert_manifest_bytes(reopened)
        reopened.compact()
        assert_manifest_bytes(reopened)
        reopened.close()

    def test_pinned_store_digest(self, tmp_path):
        build_pinned_store(str(tmp_path))
        digest, names = tree_digest(str(tmp_path))
        # Level-0 and level-1 segments, WAL logs and the checkpoint are
        # all covered.
        assert "checkpoint.json" in names and "store/MANIFEST.json" in names
        assert any(name.startswith("store/segments/seg-0-") for name in names)
        assert any(name.startswith("store/segments/seg-1-") for name in names)
        assert any(name.startswith("store/wal/") for name in names)
        assert digest == PINNED_STORE_SHA256


# ----------------------------------------------------------------------
# Read-only snapshots
# ----------------------------------------------------------------------
class TestReadOnlyOpen:
    def _sealed_store(self, tmp_path, n=300, seed=11):
        """A writable store with every bucket sealed, plus its rollup."""
        records = random_records(seed, n)
        store = RollupStore(str(tmp_path / "store"))
        rollup = StreamRollup()
        for record in records:
            store.add(record)
            rollup.add(record)
        store.seal_open()
        return store, rollup

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(StoreError, match="no rollup store"):
            RollupStore.open_read_only(str(tmp_path / "nope"))

    def test_snapshot_matches_writer_queries(self, tmp_path):
        store, rollup = self._sealed_store(tmp_path)
        reader = RollupStore.open_read_only(store.directory)
        assert reader.read_only is True
        assert reader.bucket_seconds == store.bucket_seconds
        assert_query_parity(reader, rollup)
        reader.close()
        store.close()

    def test_bucket_seconds_mismatch_raises(self, tmp_path):
        store, _ = self._sealed_store(tmp_path, n=40)
        with pytest.raises(StoreError, match="bucket_seconds"):
            RollupStore.open_read_only(store.directory, bucket_seconds=60.0)
        store.close()

    def test_every_mutator_is_rejected(self, tmp_path):
        store, _ = self._sealed_store(tmp_path, n=40)
        reader = RollupStore.open_read_only(store.directory)
        record = StreamRecord(0.0, "IR", SignatureId.PSH_RST, Stage.POST_PSH, True)
        for call in (
            lambda: reader.add(record),
            lambda: reader.seal_through(HOUR),
            lambda: reader.seal_open(),
            lambda: reader.maybe_compact(),
            lambda: reader.compact(),
            lambda: reader.flush(),
            lambda: reader.checkpoint_state(),
            lambda: reader.restore({"generation": 0, "count": 0, "open": []}),
        ):
            with pytest.raises(StoreError, match="read-only"):
                call()
        reader.close()
        store.close()

    def test_open_never_touches_files(self, tmp_path):
        store, _ = self._sealed_store(tmp_path, n=60)
        store.close()

        def listing(root):
            out = []
            for dirpath, _dirs, files in os.walk(root):
                for name in files:
                    path = os.path.join(dirpath, name)
                    st = os.stat(path)
                    out.append((path, st.st_mtime_ns, st.st_size))
            return sorted(out)

        before = listing(store.directory)
        reader = RollupStore.open_read_only(store.directory)
        reader.query(StoreQuery("timeseries"))
        reader.maybe_refresh()
        reader.close()
        assert listing(store.directory) == before

    def test_open_tail_is_invisible_until_sealed(self, tmp_path):
        records = random_records(13, 200)
        cut = next(
            i for i in range(1, len(records))
            if records[i].ts // HOUR != records[i - 1].ts // HOUR
            and i > len(records) // 2
        )
        store = RollupStore(str(tmp_path / "store"))
        rollup = StreamRollup()
        for record in records[:cut]:
            store.add(record)
            rollup.add(record)
        horizon = (records[cut].ts // HOUR) * HOUR - HOUR
        store.seal_through(horizon)

        reader = RollupStore.open_read_only(store.directory)
        sealed_rollup = StreamRollup()
        for record in records[:cut]:
            if (record.ts // HOUR) * HOUR <= horizon:
                sealed_rollup.add(record)
        assert reader.manifest.sealed_records() == sealed_rollup.n_records
        assert_query_parity(reader, sealed_rollup)
        # The writer still answers with its open tail included.
        partial = StreamRollup()
        for record in records[:cut]:
            partial.add(record)
        assert_query_parity(store, partial)

        # Finish the stream, seal, and refresh: the reader catches up.
        for record in records[cut:]:
            store.add(record)
            rollup.add(record)
        store.seal_open()
        assert reader.maybe_refresh() is True
        assert reader.maybe_refresh() is False  # hint short-circuits
        assert_query_parity(reader, rollup)
        reader.close()
        store.close()

    def test_empty_directory_opens_empty_then_refreshes(self, tmp_path):
        directory = str(tmp_path / "live")
        os.makedirs(directory)
        reader = RollupStore.open_read_only(directory)
        assert reader.query(StoreQuery("timeseries")).value == {}
        assert reader.maybe_refresh() is False

        store = RollupStore(directory)
        rollup = StreamRollup()
        for record in random_records(17, 80):
            store.add(record)
            rollup.add(record)
        store.seal_open()
        assert reader.maybe_refresh() is True
        assert_query_parity(reader, rollup)
        reader.close()
        store.close()

    def test_maybe_refresh_requires_read_only(self, tmp_path):
        store, _ = self._sealed_store(tmp_path, n=40)
        with pytest.raises(StoreError, match="read-only"):
            store.maybe_refresh()
        store.close()

    def test_stale_snapshot_surfaces_store_error_then_recovers(self, tmp_path):
        records = random_records(19, 400)
        store = RollupStore(str(tmp_path / "store"), config=small_compaction())
        rollup = StreamRollup()
        for record in records:
            store.add(record)
            rollup.add(record)
        store.seal_open()

        # Snapshot taken, nothing cached yet; the writer's compaction
        # then deletes the snapshot's input segments.
        reader = RollupStore.open_read_only(store.directory)
        assert store.compact() > 0
        with pytest.raises(StoreError, match="refresh and retry"):
            reader.query(StoreQuery("timeseries"))
        assert reader.maybe_refresh(force=True) is True
        assert_query_parity(reader, rollup)
        reader.close()
        store.close()

    def test_cli_query_leaves_live_store_untouched(self, tmp_path, capsys):
        from repro.cli import main

        records = random_records(23, 120)
        cut = len(records) // 2
        directory = str(tmp_path / "live")
        store = RollupStore(directory)
        for record in records[:cut]:
            store.add(record)
        horizon = max(slice_ for slice_ in store._open) - HOUR
        store.seal_through(horizon)
        store.flush()
        wal_dir = os.path.join(directory, "wal")
        wal_before = sorted(os.listdir(wal_dir))
        assert wal_before  # the open tail has logs on disk

        assert main(["query", directory, "--family", "timeseries",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # Only the sealed snapshot is visible; the open tail is not.
        assert payload["open_buckets_scanned"] == 0
        assert payload["buckets_scanned"] > 0
        # The query must not have truncated or dropped the writer's WAL.
        assert sorted(os.listdir(wal_dir)) == wal_before
        store.close()


# ----------------------------------------------------------------------
# Read-path cost: segment summaries and departed-only eviction
# ----------------------------------------------------------------------
def scan_stats(result):
    return (
        result.segments_scanned,
        result.segments_skipped,
        result.buckets_scanned,
        result.open_buckets_scanned,
    )


class TestSegmentSummaries:
    """Bucket-blind families read a wholly covered segment's summary;
    answers and scan stats must equal the slice-by-slice path."""

    @pytest.fixture(scope="class")
    def compacted(self, tmp_path_factory):
        directory = str(tmp_path_factory.mktemp("summaries") / "store")
        records = random_records(31, 900, n_buckets=30)
        store = RollupStore(directory, config=small_compaction())
        for record in records:
            store.add(record)
        store.seal_open()
        store.compact()
        store.close()
        return directory, records

    @staticmethod
    def _ranges(store):
        wide = max(store.manifest.segments, key=lambda meta: len(meta.buckets))
        assert len(wide.buckets) > 2
        lo, hi = wide.min_bucket, wide.max_bucket
        return wide, [
            (None, None),
            (lo, hi + HOUR),  # exactly the segment
            (lo, None),  # the segment and everything after
            (None, hi + HOUR),  # everything up to the segment's end
            (lo + HOUR, hi),  # cuts the segment on both sides
            (lo - HOUR, hi),  # cuts its last bucket off
        ]

    @pytest.mark.parametrize("opener", ["writer", "read_only"])
    def test_summary_answers_match_slices_and_rollup(self, compacted, opener):
        from repro.store.query import execute

        directory, records = compacted
        if opener == "writer":
            store = RollupStore(directory)  # cold reopen
        else:
            store = RollupStore.open_read_only(directory)
        wide, ranges = self._ranges(store)
        every_slice = [
            (bucket, slice_)
            for meta in store.manifest.segments
            for bucket, slice_ in load_segment(store.segments_dir, meta).slices.items()
        ]
        for start, end in ranges:
            rollup = StreamRollup()
            for record in records:
                bucket = store.bucket_of(record.ts)
                if (start is None or bucket >= start) and (end is None or bucket < end):
                    rollup.add(record)
            for query in (
                StoreQuery("country_tampering_rate", start=start, end=end),
                StoreQuery(
                    "country_tampering_rate", start=start, end=end,
                    countries=("IR", "CN"),
                ),
                StoreQuery("stage_statistics", start=start, end=end),
            ):
                result = store.query(query)
                # Byte-identical to summing the bucket slices one by one.
                slices = [s for b, s in every_slice if query.bucket_in_range(b)]
                assert ordered(result.value) == ordered(
                    execute(query, store.catalog, slices)
                )
                # Scan stats equal a bucket-aware family's slice scan.
                twin = StoreQuery(
                    "timeseries", start=start, end=end, countries=query.countries
                )
                assert scan_stats(result) == scan_stats(store.query(twin))
                # Same counts as an in-memory rollup of the range.
                if query.family == "stage_statistics":
                    expected = rollup.stage_statistics()
                    if start is None and end is None:
                        assert ordered(result.value) == ordered(expected)
                    assert result.value == expected
                else:
                    expected = rollup.country_tampering_rate()
                    if query.countries:
                        expected = {
                            c: r for c, r in expected.items() if c in query.countries
                        }
                    if start is None and end is None:
                        assert ordered(result.value) == ordered(expected)
                    # A range's own first-seen key order can differ from
                    # the store's global one, so the float sums may too.
                    assert result.value == pytest.approx(expected, rel=1e-12)
        # The wholly covered segment was answered from its summary.
        assert "summary" in store._segment_cache[wide.name].__dict__
        store.close()


QUERY = StoreQuery("country_tampering_rate")


class TestSegmentLoads:
    """A seal costs a warm reader one segment load, a compaction the
    merged output; departed segments are the only cache evictions."""

    @pytest.fixture
    def loads(self, monkeypatch):
        import repro.store.store as store_module

        loaded = []
        real = store_module.load_segment

        def counting(directory, meta):
            loaded.append(meta.name)
            return real(directory, meta)

        monkeypatch.setattr(store_module, "load_segment", counting)
        return loaded

    @staticmethod
    def _warm(tmp_path, loads):
        """Six level-0 segments, queried warm by the writer and a reader."""
        records = random_records(5, 400, n_buckets=12)
        store = RollupStore(str(tmp_path / "store"), config=small_compaction())
        for record in records:
            store.add(record)
        store.seal_through(5 * HOUR)  # not compacted
        reader = RollupStore.open_read_only(store.directory)
        reader.query(QUERY)
        store.query(QUERY)
        assert len(loads) == 2 * len(store.manifest.segments) == 12
        del loads[:]
        return store, reader

    @staticmethod
    def _new_segments(store, mutate):
        before = {meta.name for meta in store.manifest.segments}
        mutate()
        return sorted({meta.name for meta in store.manifest.segments} - before)

    @staticmethod
    def _assert_exact(reader):
        cold = RollupStore.open_read_only(reader.directory)
        for query in (QUERY, StoreQuery("timeseries")):
            assert ordered(reader.query(query).value) == ordered(
                cold.query(query).value
            )
        assert set(reader._segment_cache) == {
            meta.name for meta in reader.manifest.segments
        }
        cold.close()

    def test_refresh_after_seal_loads_one_segment(self, tmp_path, loads):
        store, reader = self._warm(tmp_path, loads)
        sealed = self._new_segments(store, lambda: store.seal_through(6 * HOUR))
        assert len(sealed) == 1
        assert reader.maybe_refresh() is True
        reader.query(QUERY)
        assert loads == sealed
        del loads[:]
        store.query(QUERY)
        assert loads == sealed  # the writer's own seal evicts nothing
        self._assert_exact(reader)
        reader.close()
        store.close()

    def test_compaction_loads_only_the_merged_output(self, tmp_path, loads):
        store, reader = self._warm(tmp_path, loads)
        merged = self._new_segments(store, store.compact)
        assert len(merged) == 1
        store.query(QUERY)
        assert loads == merged
        del loads[:]
        assert reader.maybe_refresh() is True
        reader.query(QUERY)
        assert loads == merged
        self._assert_exact(reader)
        reader.close()
        store.close()
