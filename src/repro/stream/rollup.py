"""The classified stream record and the in-memory rollup it folds into.

:class:`StreamRollup` is a :class:`~repro.store.catalog.KeyCatalog`
plus one :class:`~repro.store.segment.BucketSlice` per time bucket: the
durable store's layout, held in memory.  Its queries run
:func:`repro.store.query.execute`, so they answer exactly like the store
and like the batch :class:`~repro.core.aggregate.AnalysisDataset`.
:meth:`StreamRollup.to_dict` is the catalog plus the slices in the
segment payload format.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

from repro.core.classifier import ClassificationResult
from repro.core.model import SignatureId, Stage
from repro.errors import StreamError
from repro.store.catalog import KeyCatalog
from repro.store.query import StoreQuery, country_signature_shares, execute
from repro.store.segment import DEFAULT_BUCKET_SECONDS, BucketSlice

__all__ = ["StreamRecord", "StreamRollup", "DEFAULT_BUCKET_SECONDS"]


@dataclasses.dataclass(frozen=True)
class StreamRecord:
    """A classified connection, reduced to what aggregation reads.

    This is the unit :class:`StreamRollup` and the durable store fold;
    ``country``/``asn`` are filled in by the engine's geolocation step.
    """

    seq: int
    conn_id: int
    signature: SignatureId
    stage: Stage
    possibly_tampered: bool
    client_ip: str
    ip_version: int
    server_port: int
    ts: float
    country: str = "??"
    asn: int = -1

    @classmethod
    def from_result(
        cls,
        result: ClassificationResult,
        seq: int,
        ts: Optional[float] = None,
    ) -> "StreamRecord":
        sample = result.sample
        if ts is None:
            ts = min((p.ts for p in sample.packets), default=0.0)
        return cls(
            seq=seq,
            conn_id=sample.conn_id,
            signature=result.signature,
            stage=result.stage,
            possibly_tampered=result.possibly_tampered,
            client_ip=sample.client_ip,
            ip_version=sample.ip_version,
            server_port=sample.server_port,
            ts=ts,
        )

    def located(self, country: str, asn: int) -> "StreamRecord":
        return dataclasses.replace(self, country=country, asn=asn)

    @property
    def is_tampering(self) -> bool:
        return self.signature.is_tampering


class StreamRollup:
    """A key catalog plus one bucket slice per time bucket."""

    def __init__(
        self,
        bucket_seconds: float = DEFAULT_BUCKET_SECONDS,
        catalog: Optional[KeyCatalog] = None,
        slices: Optional[Dict[float, BucketSlice]] = None,
    ) -> None:
        if bucket_seconds <= 0:
            raise StreamError("bucket_seconds must be positive")
        self.bucket_seconds = bucket_seconds
        self.catalog = catalog if catalog is not None else KeyCatalog()
        #: bucket start -> every counter family for that bucket
        self.slices: Dict[float, BucketSlice] = slices if slices is not None else {}

    def bucket_of(self, ts: float) -> float:
        return math.floor(ts / self.bucket_seconds) * self.bucket_seconds

    def add(self, record: StreamRecord) -> None:
        """Fold one classified connection into its bucket's slice."""
        self.catalog.observe_record(record)
        bucket = self.bucket_of(record.ts)
        slice_ = self.slices.get(bucket)
        if slice_ is None:
            slice_ = self.slices[bucket] = BucketSlice(bucket)
        slice_.add(
            record.country,
            record.ts,
            record.signature,
            record.stage,
            record.possibly_tampered,
        )

    def slices_after(self, lo: float) -> Dict[float, BucketSlice]:
        """The slices of every bucket starting above ``lo``."""
        return {b: s for b, s in self.slices.items() if b > lo}

    @property
    def n_records(self) -> int:
        return sum(s.n_records for s in self.slices.values())

    @property
    def countries(self) -> List[str]:
        return sorted({c for s in self.slices.values() for c in s.totals})

    # ------------------------------------------------------------------
    # Serialise
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe state: the catalog, then slices in segment format."""
        return {
            "bucket_seconds": self.bucket_seconds,
            "catalog": self.catalog.to_dict(),
            "buckets": [
                [bucket, self.slices[bucket].to_payload()]
                for bucket in sorted(self.slices)
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StreamRollup":
        return cls(
            bucket_seconds=data["bucket_seconds"],
            catalog=KeyCatalog.from_dict(data["catalog"]),
            slices={
                bucket: BucketSlice.from_payload(bucket, payload)
                for bucket, payload in data["buckets"]
            },
        )

    # ------------------------------------------------------------------
    # Queries (batch parity, through the store's query engine)
    # ------------------------------------------------------------------
    def _execute(self, family: str, country: Optional[str] = None):
        return execute(
            StoreQuery(family, country=country), self.catalog, self.slices.values()
        )

    def country_signature_shares(self) -> Dict[str, Dict[SignatureId, float]]:
        """Per country: % of its connections matching each signature."""
        return country_signature_shares(self.catalog, self.slices.values())

    def country_tampering_rate(self) -> Dict[str, float]:
        """Per country: % of connections matching any tampering signature."""
        return self._execute("country_tampering_rate")

    def timeseries(self) -> Dict[str, List[Tuple[float, float]]]:
        """Per country: (bucket_start, tampering %) sorted by time."""
        return self._execute("timeseries")

    def signature_hour_counts(
        self, country: str
    ) -> Dict[SignatureId, List[Tuple[float, int]]]:
        """Per signature: (bucket_start, match count) for one country."""
        return self._execute("signature_hour_counts", country)

    def stage_statistics(self) -> Dict[str, object]:
        """The §4.1 headline numbers."""
        return self._execute("stage_statistics")
