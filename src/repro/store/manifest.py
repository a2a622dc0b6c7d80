"""The atomically-swapped manifest: the store's single source of truth.

``MANIFEST.json`` names every live segment (with its bucket range and
country set, for query pushdown), carries the key catalog snapshot, and
a monotonically increasing **generation**.  Every mutation of sealed
state -- sealing a bucket, compacting segments -- hands the next live
segment list to :meth:`Manifest.save`, which swaps it in with the same
fsync'd temp-file + ``os.replace`` + directory-fsync discipline as
:class:`~repro.stream.checkpoint.CheckpointManager`
(:func:`repro._util.atomic_write_text`).  Memory adopts the new
generation only if the swap lands, so a failed write (ENOSPC, EIO)
leaves the in-memory manifest equal to the one on disk.

The manifest is rewritten on every seal, so :meth:`Manifest.save`
joins each segment's cached entry (:attr:`SegmentMeta.entry_json`)
rather than re-encoding the whole history; the bytes are exactly
``json.dumps(manifest.to_dict(), separators=(",", ":")) + "\\n"``.

That makes the swap the commit point of every structural change:

* seal:    write segment file → **swap manifest** → unlink WAL log
* compact: write merged file  → **swap manifest** → unlink old segments

A crash on either side of the swap leaves the store consistent: before
it, the new file is an unreferenced orphan (swept on open); after it,
the leftovers are unreferenced old files (also swept).  No bucket is
ever lost or counted twice -- the kill9-during-compaction fire drill in
:mod:`repro.stream.faults` exercises exactly these windows.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Set

from repro._util import atomic_write_text, json_file_pieces
from repro.errors import StoreError
from repro.store.catalog import KeyCatalog
from repro.store.segment import SegmentMeta

__all__ = ["MANIFEST_NAME", "MANIFEST_VERSION", "Manifest"]

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_VERSION = 1


class Manifest:
    """Live segment list + catalog snapshot + generation counter."""

    def __init__(self, bucket_seconds: float) -> None:
        if bucket_seconds <= 0:
            raise StoreError("bucket_seconds must be positive")
        self.bucket_seconds = bucket_seconds
        self.generation = 0
        self.next_segment_id = 0
        self.catalog = KeyCatalog()
        self.segments: List[SegmentMeta] = []

    # ------------------------------------------------------------------
    def sealed_buckets(self) -> Set[float]:
        return {bucket for meta in self.segments for bucket in meta.buckets}

    def bucket_owners(self) -> Dict[float, int]:
        """bucket -> owning segment id; raises if any bucket is doubled."""
        owners: Dict[float, int] = {}
        for meta in self.segments:
            for bucket in meta.buckets:
                if bucket in owners:
                    raise StoreError(
                        f"manifest corrupt: bucket {bucket} lives in segments "
                        f"{owners[bucket]} and {meta.segment_id}"
                    )
                owners[bucket] = meta.segment_id
        return owners

    def sealed_records(self) -> int:
        return sum(meta.n_records for meta in self.segments)

    def levels(self) -> Dict[int, List[SegmentMeta]]:
        out: Dict[int, List[SegmentMeta]] = {}
        for meta in self.segments:
            out.setdefault(meta.level, []).append(meta)
        return out

    def allocate_segment_id(self) -> int:
        segment_id = self.next_segment_id
        self.next_segment_id += 1
        return segment_id

    # ------------------------------------------------------------------
    def _header(self) -> dict:
        return {
            "version": MANIFEST_VERSION,
            "generation": self.generation,
            "bucket_seconds": self.bucket_seconds,
            "next_segment_id": self.next_segment_id,
            "catalog": self.catalog.to_dict(),
        }

    def to_dict(self) -> dict:
        data = self._header()
        data["segments"] = [meta.to_dict() for meta in self.segments]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Manifest":
        version = data.get("version")
        if version != MANIFEST_VERSION:
            raise StoreError(
                f"manifest has schema version {version!r}, "
                f"expected {MANIFEST_VERSION}"
            )
        manifest = cls(bucket_seconds=data["bucket_seconds"])
        manifest.generation = data["generation"]
        manifest.next_segment_id = data["next_segment_id"]
        manifest.catalog = KeyCatalog.from_dict(data["catalog"])
        manifest.segments = [SegmentMeta.from_dict(m) for m in data["segments"]]
        manifest.bucket_owners()  # validate the unique-owner invariant
        return manifest

    # ------------------------------------------------------------------
    def save(
        self, directory: str, segments: Optional[List[SegmentMeta]] = None
    ) -> None:
        """Swap the next generation in, atomically and durably.

        ``segments`` is the next generation's live list (default: the
        current one).  If the write raises, ``segments`` and
        ``generation`` are left as they were, still describing the
        manifest on disk.  ``next_segment_id`` keeps any ids allocated
        for the failed swap: ids are never reused, and the orphan files
        are swept on the next open.
        """
        previous = self.segments, self.generation
        if segments is not None:
            self.segments = segments
        self.generation += 1
        entries = (meta.entry_json for meta in self.segments)
        try:
            atomic_write_text(
                os.path.join(directory, MANIFEST_NAME),
                json_file_pieces(self._header(), "segments", entries),
            )
        except BaseException:
            self.segments, self.generation = previous
            raise

    @classmethod
    def load(cls, directory: str) -> Optional["Manifest"]:
        path = os.path.join(directory, MANIFEST_NAME)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"unreadable manifest {path!r}: {exc}") from exc
        return cls.from_dict(data)
