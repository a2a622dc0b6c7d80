"""Incremental windowed aggregation over the classified stream.

:class:`StreamRollup` consumes :class:`StreamRecord` values one at a time and maintains per-country × signature × hour
counters -- everything the headline batch analyses read -- without
retaining a single sample.  Its query methods reproduce the
corresponding :class:`~repro.core.aggregate.AnalysisDataset` results
*bit for bit* on the same stream: counters are integers, and the
percentage arithmetic follows the batch implementation exactly,
including accumulation order (per-country signature tallies are kept in
first-seen order, the order a batch ``Counter`` would iterate).

Rollups are **serialisable** (plain-JSON state for checkpoints).
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.core.classifier import ClassificationResult
from repro.core.model import SignatureId, Stage
from repro.errors import StreamError

__all__ = ["StreamRecord", "StreamRollup", "DEFAULT_BUCKET_SECONDS"]

#: One hour -- the granularity of the paper's Radar-style aggregates.
DEFAULT_BUCKET_SECONDS = 3600.0


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
    """Per-country × signature × hour counters."""

    def __init__(self, bucket_seconds: float = DEFAULT_BUCKET_SECONDS) -> None:
        if bucket_seconds <= 0:
            raise StreamError("bucket_seconds must be positive")
        self.bucket_seconds = bucket_seconds
        self.n_records = 0
        #: country -> total connections
        self.totals: Dict[str, int] = {}
        #: country -> {signature-or-NOT_TAMPERING -> count}, first-seen order
        self.by_signature: Dict[str, Dict[SignatureId, int]] = {}
        #: (country, bucket_start) -> totals / tampering matches
        self.bucket_totals: Dict[Tuple[str, float], int] = {}
        self.bucket_matches: Dict[Tuple[str, float], int] = {}
        #: (country, signature, bucket_start) -> tampering matches
        self.bucket_signature: Dict[Tuple[str, SignatureId, float], int] = {}
        # --- stage statistics (the Table 1 companion numbers) ---
        self.possibly_tampered = 0
        self.stage_counts: Dict[str, int] = {}
        self.stage_matched: Dict[str, int] = {}
        self.signature_counts: Counter = Counter()
        # --- stream extent ---
        self.min_ts: Optional[float] = None
        self.max_ts: Optional[float] = None

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def bucket_of(self, ts: float) -> float:
        return math.floor(ts / self.bucket_seconds) * self.bucket_seconds

    def add(self, record: StreamRecord) -> None:
        """Fold one classified connection into every counter."""
        country = record.country
        self.n_records += 1
        self.totals[country] = self.totals.get(country, 0) + 1

        sig_key = record.signature if record.is_tampering else SignatureId.NOT_TAMPERING
        sigs = self.by_signature.setdefault(country, {})
        sigs[sig_key] = sigs.get(sig_key, 0) + 1

        bucket = self.bucket_of(record.ts)
        cell = (country, bucket)
        self.bucket_totals[cell] = self.bucket_totals.get(cell, 0) + 1
        if record.is_tampering:
            self.bucket_matches[cell] = self.bucket_matches.get(cell, 0) + 1
            sig_cell = (country, record.signature, bucket)
            self.bucket_signature[sig_cell] = self.bucket_signature.get(sig_cell, 0) + 1

        if record.possibly_tampered:
            self.possibly_tampered += 1
            stage_key = record.stage.value if record.stage != Stage.NONE else "other"
            self.stage_counts[stage_key] = self.stage_counts.get(stage_key, 0) + 1
            if record.is_tampering:
                self.stage_matched[stage_key] = self.stage_matched.get(stage_key, 0) + 1
                self.signature_counts[record.signature] += 1

        if self.min_ts is None or record.ts < self.min_ts:
            self.min_ts = record.ts
        if self.max_ts is None or record.ts > self.max_ts:
            self.max_ts = record.ts

    # ------------------------------------------------------------------
    # Serialise
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe state; list-of-rows encodings preserve key order."""
        return {
            "bucket_seconds": self.bucket_seconds,
            "n_records": self.n_records,
            "totals": [[c, n] for c, n in self.totals.items()],
            "by_signature": [
                [country, [[sig.value, n] for sig, n in sigs.items()]]
                for country, sigs in self.by_signature.items()
            ],
            "bucket_totals": [[c, b, n] for (c, b), n in self.bucket_totals.items()],
            "bucket_matches": [[c, b, n] for (c, b), n in self.bucket_matches.items()],
            "bucket_signature": [
                [c, sig.value, b, n] for (c, sig, b), n in self.bucket_signature.items()
            ],
            "possibly_tampered": self.possibly_tampered,
            "stage_counts": dict(self.stage_counts),
            "stage_matched": dict(self.stage_matched),
            "signature_counts": [[sig.value, n] for sig, n in self.signature_counts.items()],
            "min_ts": self.min_ts,
            "max_ts": self.max_ts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StreamRollup":
        rollup = cls(bucket_seconds=data["bucket_seconds"])
        rollup.n_records = data["n_records"]
        rollup.totals = {c: n for c, n in data["totals"]}
        rollup.by_signature = {
            country: {SignatureId(value): n for value, n in sigs}
            for country, sigs in data["by_signature"]
        }
        rollup.bucket_totals = {(c, b): n for c, b, n in data["bucket_totals"]}
        rollup.bucket_matches = {(c, b): n for c, b, n in data["bucket_matches"]}
        rollup.bucket_signature = {
            (c, SignatureId(value), b): n for c, value, b, n in data["bucket_signature"]
        }
        rollup.possibly_tampered = data["possibly_tampered"]
        rollup.stage_counts = dict(data["stage_counts"])
        rollup.stage_matched = dict(data["stage_matched"])
        rollup.signature_counts = Counter(
            {SignatureId(value): n for value, n in data["signature_counts"]}
        )
        rollup.min_ts = data["min_ts"]
        rollup.max_ts = data["max_ts"]
        return rollup

    # ------------------------------------------------------------------
    # Queries (batch-parity methods)
    # ------------------------------------------------------------------
    def country_signature_shares(self) -> Dict[str, Dict[SignatureId, float]]:
        """Per country: % of its connections matching each signature.

        Mirrors :meth:`AnalysisDataset.country_signature_shares`.
        """
        return {
            country: {
                sig: 100.0 * n / self.totals[country] for sig, n in sigs.items()
            }
            for country, sigs in self.by_signature.items()
        }

    def country_tampering_rate(self) -> Dict[str, float]:
        """Per country: % of connections matching any tampering signature."""
        shares = self.country_signature_shares()
        return {
            country: sum(pct for sig, pct in sigs.items() if sig.is_tampering)
            for country, sigs in shares.items()
        }

    def timeseries(self) -> Dict[str, List[Tuple[float, float]]]:
        """Per country: (bucket_start, tampering %) sorted by time.

        Mirrors :meth:`AnalysisDataset.timeseries` at this rollup's
        bucket size (default one hour) with no signature/stage filter.
        """
        buckets_by_country: Dict[str, List[float]] = {}
        for country, bucket in self.bucket_totals:
            buckets_by_country.setdefault(country, []).append(bucket)
        return {
            country: [
                (
                    b,
                    100.0
                    * self.bucket_matches.get((country, b), 0)
                    / self.bucket_totals.get((country, b), 1),
                )
                for b in sorted(buckets)
            ]
            for country, buckets in buckets_by_country.items()
        }

    def signature_hour_counts(
        self, country: str
    ) -> Dict[SignatureId, List[Tuple[float, int]]]:
        """Per signature: (bucket_start, match count) for one country."""
        out: Dict[SignatureId, List[Tuple[float, int]]] = {}
        for (c, sig, bucket), n in self.bucket_signature.items():
            if c == country:
                out.setdefault(sig, []).append((bucket, n))
        for series in out.values():
            series.sort()
        return out

    def bucket_rate(self, country: str, bucket: float) -> Optional[float]:
        """Tampering % of one (country, bucket) cell, if observed."""
        total = self.bucket_totals.get((country, bucket))
        if not total:
            return None
        return 100.0 * self.bucket_matches.get((country, bucket), 0) / total

    def stage_statistics(self) -> Dict[str, object]:
        """The §4.1 headline numbers, mirroring the batch implementation."""
        total = self.n_records
        n_possibly = self.possibly_tampered
        matched_total = sum(self.signature_counts.values())

        def share(n: int, d: int) -> float:
            return 100.0 * n / d if d else 0.0

        return {
            "total_connections": total,
            "possibly_tampered": n_possibly,
            "possibly_tampered_pct": share(n_possibly, total),
            "stage_share_pct": {
                k: share(v, n_possibly) for k, v in sorted(self.stage_counts.items())
            },
            "stage_coverage_pct": {
                k: share(self.stage_matched.get(k, 0), v)
                for k, v in sorted(self.stage_counts.items())
            },
            "signature_coverage_pct": share(matched_total, n_possibly),
            "signature_counts": Counter(self.signature_counts),
        }

    @property
    def countries(self) -> List[str]:
        return sorted(self.totals)
