"""Bucket slices and immutable segment files.

A :class:`BucketSlice` accumulates every rollup counter family for one
hour-bucket.  It is the one counter structure of the pipeline: the
in-memory :class:`~repro.stream.rollup.StreamRollup` is a catalog plus
one slice per bucket, and the store's open buckets are slices too.
When the engine's watermark passes a bucket, the store *seals* it: its
counters are written to an immutable **segment file** and the slice is
dropped from memory (and from the WAL).

A segment file holds one or more complete buckets (level-0 segments
hold exactly one; compaction merges them into multi-bucket level-1+
partitions), partitioned by time range.  Columns are the slice's
counter families, keyed per bucket so any set of segments can be
combined or range-filtered without touching records:

``totals``, ``matches`` (per country), ``by_signature`` (per country ×
signature key), ``signature_cells`` (per country × tampering
signature), ``stage_counts`` / ``stage_matched`` (per stage),
``signature_counts`` (per tampering signature), plus ``n`` / ``pt`` /
``min_ts`` / ``max_ts`` scalars.

Files are written with :func:`repro._util.atomic_write_text` (fsync'd
temp + ``os.replace`` + directory fsync), so a crash never leaves a
torn segment -- only a complete file or no file, and un-manifested
leftovers are swept on open.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
from typing import Dict, List, Optional, Tuple

from repro._util import atomic_write_text, compact_json, json_file_pieces
from repro.core.model import SignatureId, Stage
from repro.errors import StoreError

__all__ = [
    "SEGMENT_VERSION",
    "DEFAULT_BUCKET_SECONDS",
    "BucketSlice",
    "SegmentMeta",
    "Segment",
    "segment_file_name",
    "write_segment",
    "load_segment",
]

SEGMENT_VERSION = 1

#: One hour -- the granularity of the paper's Radar-style aggregates.
DEFAULT_BUCKET_SECONDS = 3600.0


class BucketSlice:
    """Every rollup counter family, restricted to one time bucket."""

    __slots__ = (
        "bucket",
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
    )

    def __init__(self, bucket: float) -> None:
        self.bucket = bucket
        self.n_records = 0
        self.possibly_tampered = 0
        #: country -> connections in this bucket
        self.totals: Dict[str, int] = {}
        #: country -> tampering matches in this bucket
        self.matches: Dict[str, int] = {}
        #: country -> {sig-or-NOT_TAMPERING -> count}
        self.by_signature: Dict[str, Dict[SignatureId, int]] = {}
        #: (country, tampering signature) -> count
        self.signature_cells: Dict[Tuple[str, SignatureId], int] = {}
        self.stage_counts: Dict[str, int] = {}
        self.stage_matched: Dict[str, int] = {}
        self.signature_counts: Dict[SignatureId, int] = {}
        self.min_ts: Optional[float] = None
        self.max_ts: Optional[float] = None

    # ------------------------------------------------------------------
    def add(
        self,
        country: str,
        ts: float,
        signature: SignatureId,
        stage: Stage,
        possibly_tampered: bool,
    ) -> None:
        """Fold one record into every counter family."""
        self.n_records += 1
        self.totals[country] = self.totals.get(country, 0) + 1

        tampering = signature.is_tampering
        sig_key = signature if tampering else SignatureId.NOT_TAMPERING
        sigs = self.by_signature.setdefault(country, {})
        sigs[sig_key] = sigs.get(sig_key, 0) + 1

        if tampering:
            self.matches[country] = self.matches.get(country, 0) + 1
            cell = (country, signature)
            self.signature_cells[cell] = self.signature_cells.get(cell, 0) + 1

        if possibly_tampered:
            self.possibly_tampered += 1
            stage_key = stage.value if stage != Stage.NONE else "other"
            self.stage_counts[stage_key] = self.stage_counts.get(stage_key, 0) + 1
            if tampering:
                self.stage_matched[stage_key] = self.stage_matched.get(stage_key, 0) + 1
                self.signature_counts[signature] = (
                    self.signature_counts.get(signature, 0) + 1
                )

        if self.min_ts is None or ts < self.min_ts:
            self.min_ts = ts
        if self.max_ts is None or ts > self.max_ts:
            self.max_ts = ts

    def absorb(self, other: "BucketSlice") -> None:
        """Sum every counter of ``other`` into this slice, whatever its
        bucket (:attr:`Segment.summary`, :meth:`RollupStore.to_rollup`)."""
        self.n_records += other.n_records
        self.possibly_tampered += other.possibly_tampered
        for country, n in other.totals.items():
            self.totals[country] = self.totals.get(country, 0) + n
        for country, n in other.matches.items():
            self.matches[country] = self.matches.get(country, 0) + n
        for country, sigs in other.by_signature.items():
            mine = self.by_signature.setdefault(country, {})
            for sig, n in sigs.items():
                mine[sig] = mine.get(sig, 0) + n
        for cell, n in other.signature_cells.items():
            self.signature_cells[cell] = self.signature_cells.get(cell, 0) + n
        for key, n in other.stage_counts.items():
            self.stage_counts[key] = self.stage_counts.get(key, 0) + n
        for key, n in other.stage_matched.items():
            self.stage_matched[key] = self.stage_matched.get(key, 0) + n
        for sig, n in other.signature_counts.items():
            self.signature_counts[sig] = self.signature_counts.get(sig, 0) + n
        for ts in (other.min_ts, other.max_ts):
            if ts is None:
                continue
            if self.min_ts is None or ts < self.min_ts:
                self.min_ts = ts
            if self.max_ts is None or ts > self.max_ts:
                self.max_ts = ts

    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-safe column payload (sorted rows: segments are canonical)."""
        return {
            "n": self.n_records,
            "pt": self.possibly_tampered,
            "min_ts": self.min_ts,
            "max_ts": self.max_ts,
            "totals": sorted([c, n] for c, n in self.totals.items()),
            "matches": sorted([c, n] for c, n in self.matches.items()),
            "by_signature": sorted(
                [c, sorted([sig.value, n] for sig, n in sigs.items())]
                for c, sigs in self.by_signature.items()
            ),
            "signature_cells": sorted(
                [c, sig.value, n] for (c, sig), n in self.signature_cells.items()
            ),
            "stage_counts": dict(sorted(self.stage_counts.items())),
            "stage_matched": dict(sorted(self.stage_matched.items())),
            "signature_counts": sorted(
                [sig.value, n] for sig, n in self.signature_counts.items()
            ),
        }

    @classmethod
    def from_payload(cls, bucket: float, payload: dict) -> "BucketSlice":
        slice_ = cls(bucket)
        slice_.n_records = payload["n"]
        slice_.possibly_tampered = payload["pt"]
        slice_.min_ts = payload["min_ts"]
        slice_.max_ts = payload["max_ts"]
        slice_.totals = {c: n for c, n in payload["totals"]}
        slice_.matches = {c: n for c, n in payload["matches"]}
        slice_.by_signature = {
            c: {SignatureId(value): n for value, n in sigs}
            for c, sigs in payload["by_signature"]
        }
        slice_.signature_cells = {
            (c, SignatureId(value)): n for c, value, n in payload["signature_cells"]
        }
        slice_.stage_counts = dict(payload["stage_counts"])
        slice_.stage_matched = dict(payload["stage_matched"])
        slice_.signature_counts = {
            SignatureId(value): n for value, n in payload["signature_counts"]
        }
        return slice_


@dataclasses.dataclass(frozen=True)
class SegmentMeta:
    """What the manifest records about one live segment file."""

    segment_id: int
    name: str  # file name under <store>/segments/
    level: int
    min_bucket: float
    max_bucket: float
    buckets: Tuple[float, ...]  # sorted bucket starts contained
    n_records: int
    countries: Tuple[str, ...]  # sorted; enables country pushdown
    size_bytes: int

    def overlaps(self, start: Optional[float], end: Optional[float]) -> bool:
        """Bucket-range pushdown: does any contained bucket start in
        ``[start, end)``?"""
        if start is not None and self.max_bucket < start:
            return False
        if end is not None and self.min_bucket >= end:
            return False
        return True

    def to_dict(self) -> dict:
        return {
            "id": self.segment_id,
            "name": self.name,
            "level": self.level,
            "min_bucket": self.min_bucket,
            "max_bucket": self.max_bucket,
            "buckets": list(self.buckets),
            "n_records": self.n_records,
            "countries": list(self.countries),
            "size_bytes": self.size_bytes,
        }

    @functools.cached_property
    def entry_json(self) -> str:
        """:meth:`to_dict` as compact JSON, encoded once per meta.

        The meta is frozen, and the manifest re-lists every live segment
        on every swap, so :meth:`Manifest.save` joins these instead of
        re-encoding the whole history.
        """
        return compact_json(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "SegmentMeta":
        return cls(
            segment_id=data["id"],
            name=data["name"],
            level=data["level"],
            min_bucket=data["min_bucket"],
            max_bucket=data["max_bucket"],
            buckets=tuple(data["buckets"]),
            n_records=data["n_records"],
            countries=tuple(data["countries"]),
            size_bytes=data["size_bytes"],
        )


@dataclasses.dataclass
class Segment:
    """A loaded segment: metadata plus per-bucket slices."""

    meta: SegmentMeta
    slices: Dict[float, BucketSlice]

    @functools.cached_property
    def summary(self) -> BucketSlice:
        """Every slice summed into one, built on first use.

        Its ``bucket`` is the segment's first; only queries that never
        read a part's bucket use it (see :meth:`RollupStore._scan`).
        """
        summary = BucketSlice(self.meta.min_bucket)
        for slice_ in self.slices.values():
            summary.absorb(slice_)
        return summary


def segment_file_name(segment_id: int, level: int) -> str:
    return f"seg-{level}-{segment_id:08d}.json"


def write_segment(
    directory: str,
    segment_id: int,
    level: int,
    slices: List[BucketSlice],
) -> SegmentMeta:
    """Durably write one immutable segment file; returns its metadata."""
    if not slices:
        raise StoreError("refusing to write an empty segment")
    slices = sorted(slices, key=lambda s: s.bucket)
    buckets = tuple(s.bucket for s in slices)
    if len(set(buckets)) != len(buckets):
        raise StoreError(f"duplicate buckets in segment: {buckets}")
    name = segment_file_name(segment_id, level)
    # Bucket by bucket: a merged segment runs to ~100 kB (see
    # json_file_pieces).
    size = atomic_write_text(
        os.path.join(directory, name),
        json_file_pieces(
            {"version": SEGMENT_VERSION, "id": segment_id, "level": level},
            "buckets",
            (compact_json([s.bucket, s.to_payload()]) for s in slices),
        ),
    )
    countries = sorted({c for s in slices for c in s.totals})
    return SegmentMeta(
        segment_id=segment_id,
        name=name,
        level=level,
        min_bucket=buckets[0],
        max_bucket=buckets[-1],
        buckets=buckets,
        n_records=sum(s.n_records for s in slices),
        countries=tuple(countries),
        size_bytes=size,
    )


def load_segment(directory: str, meta: SegmentMeta) -> Segment:
    """Load a manifested segment file, validating it against its meta."""
    path = os.path.join(directory, meta.name)
    try:
        with open(path, "r") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise StoreError(f"unreadable segment {path!r}: {exc}") from exc
    if payload.get("version") != SEGMENT_VERSION:
        raise StoreError(
            f"segment {path!r} has version {payload.get('version')!r}, "
            f"expected {SEGMENT_VERSION}"
        )
    if payload.get("id") != meta.segment_id:
        raise StoreError(
            f"segment {path!r} holds id {payload.get('id')!r}, "
            f"manifest expected {meta.segment_id}"
        )
    slices = {
        bucket: BucketSlice.from_payload(bucket, slice_payload)
        for bucket, slice_payload in payload["buckets"]
    }
    if tuple(sorted(slices)) != meta.buckets:
        raise StoreError(
            f"segment {path!r} buckets {sorted(slices)} do not match "
            f"manifest {list(meta.buckets)}"
        )
    return Segment(meta=meta, slices=slices)
