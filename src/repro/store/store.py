"""RollupStore: the partitioned on-disk rollup store.

Ties the pieces together under one directory::

    <store>/
      MANIFEST.json     atomically-swapped source of truth
      segments/         immutable time-partitioned segment files
      wal/              per-open-bucket write-ahead logs

Ingest folds each record into the in-memory open
:class:`~repro.store.segment.BucketSlice` for its hour bucket and
appends a WAL entry.  When the engine's watermark passes a bucket,
:meth:`RollupStore.seal_through` freezes it into a level-0 segment
(write file → swap manifest → unlink WAL log) and drops it from memory;
:meth:`RollupStore.maybe_compact` merges small segments in the
background.  At every moment the durable state is *manifest + WAL*, and
the recovery in :meth:`RollupStore.__init__` reduces any crash --
including mid-seal and mid-compaction -- to exactly that state: orphan
segment files are swept, stale files and logs unlinked, the WAL
replayed.

Because history lives on disk, checkpoints shrink to O(open buckets):
:meth:`checkpoint_state` carries only the record count, the open
slices, the catalog, and the manifest generation -- never sealed
counters.  :meth:`restore` re-synchronises a checkpoint against the
(possibly newer) on-disk manifest, truncating the WAL to the
checkpoint's count so source re-delivery stays exactly idempotent.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import CheckpointError, StoreError
from repro.obs import NULL_OBS
from repro.store.catalog import KeyCatalog
from repro.store.compaction import CompactionChaos, CompactionConfig, Compactor
from repro.store.manifest import MANIFEST_NAME, Manifest
from repro.store.query import (
    BUCKET_BLIND_FAMILIES,
    QueryResult,
    StoreQuery,
    execute,
)
from repro.store.segment import (
    DEFAULT_BUCKET_SECONDS,
    BucketSlice,
    Segment,
    SegmentMeta,
    load_segment,
    write_segment,
)
from repro.store.wal import WalEntry, WriteAheadLog

if TYPE_CHECKING:
    from repro.stream.rollup import StreamRecord, StreamRollup

__all__ = ["StoreConfig", "RollupStore"]

SEGMENTS_DIR = "segments"
WAL_DIR = "wal"
_SEGMENT_CACHE_SIZE = 32


@dataclasses.dataclass(frozen=True)
class StoreConfig:
    """Tunables; the defaults suit the stream engine's cadence."""

    wal_sync_records: int = 64
    compaction: CompactionConfig = dataclasses.field(default_factory=CompactionConfig)


class RollupStore:
    """Partitioned rollup storage with WAL, compaction, and queries."""

    def __init__(
        self,
        directory: str,
        bucket_seconds: float = DEFAULT_BUCKET_SECONDS,
        config: Optional[StoreConfig] = None,
        chaos: Optional[CompactionChaos] = None,
        obs=None,
    ) -> None:
        if bucket_seconds <= 0:
            raise StoreError("bucket_seconds must be positive")
        self.directory = directory
        self.bucket_seconds = bucket_seconds
        self.config = config or StoreConfig()
        self.obs = obs if obs is not None else NULL_OBS
        self.read_only = False
        self._manifest_hint: Optional[Tuple[int, int]] = None
        self._t_seal = self.obs.timer("segment.seal")
        self.segments_dir = os.path.join(directory, SEGMENTS_DIR)
        os.makedirs(self.segments_dir, exist_ok=True)

        manifest = Manifest.load(directory)
        if manifest is None:
            manifest = Manifest(bucket_seconds)
        elif manifest.bucket_seconds != bucket_seconds:
            raise StoreError(
                f"store at {directory!r} has bucket_seconds="
                f"{manifest.bucket_seconds}, asked for {bucket_seconds}"
            )
        self.manifest = manifest
        self.catalog = manifest.catalog
        #: every sealed bucket start; built once, extended by each seal
        #: (compaction never changes which buckets are sealed)
        self._sealed = manifest.sealed_buckets()
        self.compactor = Compactor(
            self.segments_dir,
            config=self.config.compaction,
            chaos=chaos,
            obs=self.obs,
        )
        self.wal = WriteAheadLog(
            os.path.join(directory, WAL_DIR),
            sync_every=self.config.wal_sync_records,
            obs=self.obs,
        )

        #: bucket start -> open (unsealed) slice
        self._open: Dict[float, BucketSlice] = {}
        self._segment_cache: "OrderedDict[str, Segment]" = OrderedDict()
        self.ordinal = 0  # engine fold count of the last applied record
        self.sealed_skips = 0  # re-delivered records for already-sealed buckets
        self.buckets_sealed = 0
        self.segments_written = 0

        self._replayed = self._recover()

    # ------------------------------------------------------------------
    # Read-only snapshots
    # ------------------------------------------------------------------
    @classmethod
    def open_read_only(
        cls,
        directory: str,
        bucket_seconds: Optional[float] = None,
        obs=None,
    ) -> "RollupStore":
        """Open a query-only snapshot of the manifest's sealed state.

        A read-only store never creates directories, never sweeps
        orphans, and never touches WAL or segment files -- it is safe to
        point at a store another process is actively writing.  It sees
        exactly what the last manifest swap committed (the unsealed open
        tail lives in the writer's memory and WAL and is invisible
        here), and :meth:`maybe_refresh` re-snapshots when the manifest
        generation advances.

        ``bucket_seconds=None`` adopts whatever the manifest declares;
        passing a value asserts it matches.  A directory without a
        manifest yet (a store mid-first-hour, or empty) opens as an
        empty snapshot rather than failing -- the refresh picks the
        first seal up.
        """
        if not os.path.isdir(directory):
            raise StoreError(f"no rollup store at {directory!r}")
        store = cls.__new__(cls)
        store.directory = directory
        store.config = StoreConfig()
        store.obs = obs if obs is not None else NULL_OBS
        store.read_only = True
        store._t_seal = store.obs.timer("segment.seal")
        store.segments_dir = os.path.join(directory, SEGMENTS_DIR)
        store.compactor = None
        store.wal = None
        store._open = {}
        store._segment_cache = OrderedDict()
        store.ordinal = 0
        store.sealed_skips = 0
        store.buckets_sealed = 0
        store.segments_written = 0
        store._replayed = []
        store._manifest_hint = None
        manifest = store._load_manifest_snapshot()
        if manifest is None:
            manifest = Manifest(
                bucket_seconds
                if bucket_seconds is not None
                else DEFAULT_BUCKET_SECONDS
            )
        elif (
            bucket_seconds is not None
            and manifest.bucket_seconds != bucket_seconds
        ):
            raise StoreError(
                f"store at {directory!r} has bucket_seconds="
                f"{manifest.bucket_seconds}, asked for {bucket_seconds}"
            )
        store._adopt(manifest)
        return store

    def _load_manifest_snapshot(self):
        """Load the manifest, remembering a cheap change hint (stat)."""
        path = os.path.join(self.directory, MANIFEST_NAME)
        try:
            st = os.stat(path)
        except FileNotFoundError:
            self._manifest_hint = None
            return None
        self._manifest_hint = (st.st_mtime_ns, st.st_ino)
        return Manifest.load(self.directory)

    def maybe_refresh(self, force: bool = False) -> bool:
        """Re-snapshot a read-only store if the manifest moved.

        Returns True when a newer generation was adopted.  The stat
        hint (mtime + inode -- ``os.replace`` always changes the inode)
        makes the no-change case one ``stat`` call, so query endpoints
        can refresh on every request.
        """
        if not self.read_only:
            raise StoreError("maybe_refresh is for read-only stores")
        path = os.path.join(self.directory, MANIFEST_NAME)
        if not force:
            try:
                st = os.stat(path)
            except FileNotFoundError:
                return False
            if self._manifest_hint == (st.st_mtime_ns, st.st_ino):
                return False
        manifest = self._load_manifest_snapshot()
        if manifest is None or manifest.generation == self.manifest.generation:
            return False
        self._adopt(manifest)
        self._evict_departed()
        return True

    def _adopt(self, manifest: Manifest) -> None:
        """Make ``manifest`` a read-only store's snapshot."""
        self.manifest = manifest
        self.bucket_seconds = manifest.bucket_seconds
        self.catalog = manifest.catalog
        self._sealed = manifest.sealed_buckets()

    def _evict_departed(self) -> None:
        """Drop cached segments that left the manifest.

        Segment files are immutable and ids are never reused, so a
        cached segment still in the manifest is still exact: a seal
        costs a reader one new load, a compaction the merged output.
        """
        live = {meta.name for meta in self.manifest.segments}
        for name in [name for name in self._segment_cache if name not in live]:
            del self._segment_cache[name]

    def _assert_writable(self) -> None:
        if self.read_only:
            raise StoreError(
                f"store at {self.directory!r} was opened read-only"
            )

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> List[WalEntry]:
        """Reduce whatever a crash left to manifest + WAL, then replay."""
        # 1. Sweep segment files the manifest does not reference -- the
        #    crash-before-swap window of sealing and compaction -- plus
        #    any half-written atomic-write temp files.
        live = {meta.name for meta in self.manifest.segments}
        for name in os.listdir(self.segments_dir):
            if name not in live:
                os.unlink(os.path.join(self.segments_dir, name))
        for name in os.listdir(self.directory):
            if name.startswith(".tmp-"):
                os.unlink(os.path.join(self.directory, name))

        # 2. Replay the logs into open slices, re-observing the catalog
        #    in global ordinal (stream) order.  Entries for buckets the
        #    manifest already sealed -- the crash-after-swap window of
        #    sealing -- are stale; their logs are dropped.
        entries = self.wal.replay()
        kept: List[WalEntry] = []
        stale_buckets = set()
        for entry in entries:
            if entry.bucket in self._sealed:
                stale_buckets.add(entry.bucket)
                continue
            kept.append(entry)
            self._apply_entry(entry)
            if entry.ordinal > self.ordinal:
                self.ordinal = entry.ordinal
        for bucket in stale_buckets:
            self.wal.drop_bucket(bucket)
        return kept

    def _apply_entry(self, entry: WalEntry) -> None:
        self.catalog.observe_record(entry)
        slice_ = self._open.get(entry.bucket)
        if slice_ is None:
            slice_ = self._open[entry.bucket] = BucketSlice(entry.bucket)
        slice_.add(
            entry.country,
            entry.ts,
            entry.signature,
            entry.stage,
            entry.possibly_tampered,
        )

    @property
    def is_dirty(self) -> bool:
        """True when the directory already holds ingested state."""
        return (
            self.ordinal > 0
            or self.manifest.generation > 0
            or bool(self._open)
        )

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def bucket_of(self, ts: float) -> float:
        return math.floor(ts / self.bucket_seconds) * self.bucket_seconds

    def add(self, record: StreamRecord) -> None:
        """Fold one located, classified record.

        Every call consumes one ordinal (the engine's fold count), even
        when the record lands in an already-sealed bucket -- that only
        happens while a resumed source re-delivers records the previous
        incarnation already sealed, and skipping them (rather than
        re-counting) is what keeps seal + resume exactly idempotent.
        """
        self._assert_writable()
        self._replayed = []  # adds invalidate the recovery snapshot
        self.ordinal += 1
        bucket = self.bucket_of(record.ts)
        if bucket in self._sealed:
            self.sealed_skips += 1
            return
        self.catalog.observe_record(record)
        slice_ = self._open.get(bucket)
        if slice_ is None:
            slice_ = self._open[bucket] = BucketSlice(bucket)
        slice_.add(
            record.country,
            record.ts,
            record.signature,
            record.stage,
            record.possibly_tampered,
        )
        self.wal.append(
            WalEntry(
                ordinal=self.ordinal,
                bucket=bucket,
                country=record.country,
                ts=record.ts,
                signature=record.signature,
                stage=record.stage,
                possibly_tampered=record.possibly_tampered,
            )
        )

    def flush(self) -> None:
        """Make every applied record durable (WAL fsync)."""
        self._assert_writable()
        self.wal.sync()

    # ------------------------------------------------------------------
    # Sealing and compaction
    # ------------------------------------------------------------------
    def seal_through(self, horizon: float) -> int:
        """Seal every open bucket at or below ``horizon`` (a bucket start).

        Writes one level-0 segment per ripe bucket, commits them all
        with a single manifest swap, then unlinks their WAL logs.
        Returns the number of buckets sealed.
        """
        ripe = sorted(b for b in self._open if b <= horizon)
        return self._seal(ripe)

    def seal_open(self) -> int:
        """Seal everything -- the stream is finished."""
        return self._seal(sorted(self._open))

    def _seal(self, buckets: List[float]) -> int:
        self._assert_writable()
        if not buckets:
            return 0
        rec = getattr(self.obs, "trace_recorder", None)
        if rec is not None and rec.active is not None:
            # The record that tipped the watermark pays for the seal --
            # worth seeing on that request's span tree.
            start = time.perf_counter()
            sealed = self._seal_buckets(buckets)
            duration = time.perf_counter() - start
            self._t_seal.record(duration, start)
            rec.record_span(
                "segment.seal", start, duration,
                attrs={"buckets": len(buckets)},
            )
            return sealed
        with self._t_seal:
            return self._seal_buckets(buckets)

    def _seal_buckets(self, buckets: List[float]) -> int:
        self.wal.sync()  # segment must never get ahead of the log
        new_metas = []
        for bucket in buckets:
            slice_ = self._open[bucket]
            meta = write_segment(
                self.segments_dir,
                self.manifest.allocate_segment_id(),
                0,
                [slice_],
            )
            new_metas.append(meta)
        # Commit point.  A failed swap leaves the manifest and the sealed
        # set as they were, so the buckets stay open and a retry seals.
        self.manifest.save(self.directory, self.manifest.segments + new_metas)
        self._sealed.update(buckets)
        for bucket in buckets:
            del self._open[bucket]
            self.wal.drop_bucket(bucket)
        self.buckets_sealed += len(buckets)
        self.segments_written += len(new_metas)
        return len(buckets)

    def maybe_compact(self) -> bool:
        """One bounded compaction step, if any level is due."""
        self._assert_writable()
        merged = self.compactor.run_once(self.manifest)
        if merged:
            self._evict_departed()
        return merged

    def compact(self, max_runs: int = 16) -> int:
        """Compact until quiescent (bounded); returns merges performed."""
        self._assert_writable()
        runs = self.compactor.run(self.manifest, max_runs=max_runs)
        if runs:
            self._evict_departed()
        return runs

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _load(self, meta: SegmentMeta) -> Segment:
        segment = self._segment_cache.get(meta.name)
        if segment is not None:
            self._segment_cache.move_to_end(meta.name)
            return segment
        try:
            segment = load_segment(self.segments_dir, meta)
        except StoreError as exc:
            if self.read_only and isinstance(exc.__cause__, FileNotFoundError):
                # A compaction in the writer process deleted this input
                # segment after our snapshot was taken; the caller should
                # maybe_refresh(force=True) and retry against the new
                # manifest generation.
                raise StoreError(
                    f"segment {meta.name!r} vanished under read-only snapshot "
                    f"(generation {self.manifest.generation}); refresh and retry"
                ) from exc
            raise
        self._segment_cache[meta.name] = segment
        while len(self._segment_cache) > _SEGMENT_CACHE_SIZE:
            self._segment_cache.popitem(last=False)
        return segment

    def _scan(self, query: StoreQuery) -> Tuple[List[BucketSlice], QueryResult]:
        """Pushdown scan: slices surviving the filters, plus scan stats.

        A bucket-blind family takes a segment lying wholly inside the
        range as its one summary slice; the stats still count the
        buckets it covers, so they match a slice-by-slice scan.
        """
        wanted = query.country_set()
        summarise = query.family in BUCKET_BLIND_FAMILIES
        parts: List[BucketSlice] = []
        scanned = skipped = buckets = open_buckets = 0
        for meta in self.manifest.segments:
            if not meta.overlaps(query.start, query.end) or (
                wanted is not None and wanted.isdisjoint(meta.countries)
            ):
                skipped += 1
                continue
            scanned += 1
            segment = self._load(meta)
            if (
                summarise
                and query.bucket_in_range(meta.min_bucket)
                and query.bucket_in_range(meta.max_bucket)
            ):
                buckets += len(meta.buckets)
                parts.append(segment.summary)
                continue
            for bucket, slice_ in segment.slices.items():
                if query.bucket_in_range(bucket):
                    buckets += 1
                    parts.append(slice_)
        for bucket in sorted(self._open):
            if query.bucket_in_range(bucket):
                open_buckets += 1
                parts.append(self._open[bucket])
        return parts, QueryResult(
            family=query.family,
            value=None,
            segments_scanned=scanned,
            segments_skipped=skipped,
            buckets_scanned=buckets,
            open_buckets_scanned=open_buckets,
        )

    def query(self, query: StoreQuery) -> QueryResult:
        """Answer one batch-parity family over sealed + open state."""
        parts, result = self._scan(query)
        result.value = execute(query, self.catalog, parts)
        return result

    # ------------------------------------------------------------------
    # Whole-history materialisation (reporting / parity checks)
    # ------------------------------------------------------------------
    def slices_after(self, lo: float) -> Dict[float, BucketSlice]:
        """The open and sealed slices of every bucket starting above ``lo``.

        The engine asks with its detector's fed horizon.  Every sealed
        bucket lies at or below it, except after a resume from a
        checkpoint older than the seal: then the segment slice stands in
        for the re-delivered records this store skips.
        """
        slices = {b: s for b, s in self._open.items() if b > lo}
        for meta in self.manifest.segments:
            if meta.max_bucket > lo:
                for bucket, slice_ in self._load(meta).slices.items():
                    if bucket > lo:
                        slices[bucket] = slice_
        return slices

    def to_rollup(self) -> StreamRollup:
        """The full history as a :class:`StreamRollup`.

        Sealed slices are shared with the segment cache (segments are
        immutable); the open slices and the catalog are copied, so the
        rollup does not move when later records arrive.
        """
        from repro.stream.rollup import StreamRollup

        slices: Dict[float, BucketSlice] = {}
        for meta in self.manifest.segments:
            slices.update(self._load(meta).slices)
        for bucket, open_slice in self._open.items():
            slices[bucket] = copy = BucketSlice(bucket)
            copy.absorb(open_slice)
        return StreamRollup(
            self.bucket_seconds,
            KeyCatalog.from_dict(self.catalog.to_dict()),
            slices,
        )

    # ------------------------------------------------------------------
    # Checkpoint integration
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> dict:
        """O(open buckets) durable state: count + open slices + catalog.

        Syncs the WAL first so every entry at or below the checkpoint's
        count is on disk before the checkpoint that references it.
        """
        self._assert_writable()
        self.wal.sync()
        return {
            "generation": self.manifest.generation,
            "count": self.ordinal,
            "open": [
                [bucket, self._open[bucket].to_payload()]
                for bucket in sorted(self._open)
            ],
            "catalog": self.catalog.to_dict(),
        }

    def restore(self, state: dict) -> None:
        """Re-synchronise a checkpoint against the on-disk manifest.

        The disk may be *ahead* of the checkpoint (a seal or compaction
        swapped the manifest after the checkpoint was written); then the
        checkpoint's slices for now-sealed buckets are dropped and the
        engine's re-delivered records for them will be skipped.  The
        disk being *behind* the checkpoint means the caller pointed the
        store at the wrong directory.

        The WAL is truncated to entries at or below the checkpoint's
        count: later entries describe records the engine will re-pull
        from the source, and keeping them would double-apply.  The
        catalog keeps its recovered (crash-point) state, which is a
        superset of the checkpoint's in the same first-seen order.
        """
        self._assert_writable()
        generation = state["generation"]
        if self.manifest.generation < generation:
            raise CheckpointError(
                f"checkpoint was written at store generation {generation} but "
                f"{self.directory!r} is at {self.manifest.generation}; "
                f"this is not the checkpoint's store"
            )
        count = state["count"]
        self._open = {
            bucket: BucketSlice.from_payload(bucket, payload)
            for bucket, payload in state["open"]
            if bucket not in self._sealed
        }
        self.wal.rewrite(
            entry
            for entry in self._replayed
            if entry.ordinal <= count and entry.bucket not in self._sealed
        )
        self._replayed = []
        self.ordinal = count
        self.sealed_skips = 0

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        levels = {
            str(level): len(metas) for level, metas in sorted(self.manifest.levels().items())
        }
        return {
            "generation": self.manifest.generation,
            "ordinal": self.ordinal,
            "open_buckets": len(self._open),
            "sealed_buckets": len(self._sealed),
            "sealed_records": self.manifest.sealed_records(),
            "segments": len(self.manifest.segments),
            "levels": levels,
            "live_bytes": sum(meta.size_bytes for meta in self.manifest.segments),
            "buckets_sealed": self.buckets_sealed,
            "segments_written": self.segments_written,
            "sealed_skips": self.sealed_skips,
            "wal_appends": self.wal.appends if self.wal is not None else 0,
            "wal_syncs": self.wal.syncs if self.wal is not None else 0,
            "compaction_runs": self.compactor.runs if self.compactor is not None else 0,
            "segments_merged": (
                self.compactor.segments_merged if self.compactor is not None else 0
            ),
            "compaction_bytes_written": (
                self.compactor.bytes_written if self.compactor is not None else 0
            ),
        }

    def close(self) -> None:
        if self.wal is not None:
            self.wal.close()
        self._segment_cache.clear()
