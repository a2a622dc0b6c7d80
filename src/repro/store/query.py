"""The query engine: batch-parity answers over bucket slices.

Executes the four batch-parity question families --
``country_tampering_rate``, ``timeseries``, ``signature_hour_counts``,
``stage_statistics`` -- over a set of
:class:`~repro.store.segment.BucketSlice` parts.  It is the only
implementation of those families: the durable store runs it over sealed
segments plus its open slices, and the in-memory
:class:`~repro.stream.rollup.StreamRollup` runs it over its own slices.

Two pushdowns prune the store's scan using manifest metadata alone:

* **time range** (``start``/``end``, compared against bucket start
  times): segments whose ``[min_bucket, max_bucket]`` lies outside the
  range are never opened;
* **country** (``countries``): segments whose recorded country set is
  disjoint from the filter are never opened.

Integer counters from the surviving parts are summed (associative, any
order), then results are assembled in the
:class:`~repro.store.catalog.KeyCatalog` first-seen order with the
batch implementation's float arithmetic -- same divisions, same
accumulation order -- so an unfiltered query is byte-for-byte equal to
:class:`~repro.core.aggregate.AnalysisDataset` over the same records.
Filtered queries use the same global first-seen key order (documented
semantics: for a key set restricted by the filter, the *relative* order
of surviving keys is preserved).
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.model import SignatureId
from repro.errors import StoreError
from repro.store.catalog import KeyCatalog
from repro.store.segment import BucketSlice

__all__ = ["QUERY_FAMILIES", "StoreQuery", "QueryResult", "execute"]

QUERY_FAMILIES = (
    "country_tampering_rate",
    "timeseries",
    "signature_hour_counts",
    "stage_statistics",
)

#: Families whose answer never reads a part's bucket, so a segment's
#: summary can stand in for its slices (see ``RollupStore._scan``).
BUCKET_BLIND_FAMILIES = frozenset(("country_tampering_rate", "stage_statistics"))


@dataclasses.dataclass(frozen=True)
class StoreQuery:
    """One question: a family plus optional pushdown filters.

    ``start``/``end`` select whole buckets by start time
    (``start <= bucket < end``); per-bucket counters cannot subdivide an
    hour.  ``countries`` restricts country-keyed families;
    ``signature_hour_counts`` additionally requires ``country``.
    """

    family: str
    start: Optional[float] = None
    end: Optional[float] = None
    countries: Optional[Tuple[str, ...]] = None
    country: Optional[str] = None

    def __post_init__(self) -> None:
        if self.family not in QUERY_FAMILIES:
            raise StoreError(
                f"unknown query family {self.family!r}; "
                f"expected one of {QUERY_FAMILIES}"
            )
        if self.family == "signature_hour_counts" and not self.country:
            raise StoreError("signature_hour_counts requires a country")
        if self.family == "stage_statistics" and self.countries:
            raise StoreError(
                "stage statistics are global (stage counters are not "
                "partitioned by country); drop the countries filter"
            )
        if self.start is not None and self.end is not None and self.end <= self.start:
            raise StoreError("query end must be greater than start")

    def country_set(self) -> Optional[frozenset]:
        if self.family == "signature_hour_counts":
            return frozenset((self.country,))
        if self.countries is not None:
            return frozenset(self.countries)
        return None

    def bucket_in_range(self, bucket: float) -> bool:
        if self.start is not None and bucket < self.start:
            return False
        if self.end is not None and bucket >= self.end:
            return False
        return True


@dataclasses.dataclass
class QueryResult:
    """The answer plus what the pushdown actually scanned."""

    family: str
    value: object
    segments_scanned: int
    segments_skipped: int
    buckets_scanned: int
    open_buckets_scanned: int


def execute(
    query: StoreQuery,
    catalog: KeyCatalog,
    parts: Iterable[BucketSlice],
) -> object:
    """Aggregate ``parts`` (bucket slices surviving pushdown) and answer.

    ``parts`` may arrive in any order -- only integer counters are
    summed from them; output ordering comes from the catalog.
    """
    wanted = query.country_set()
    if query.family == "country_tampering_rate":
        return _country_tampering_rate(catalog, parts, wanted)
    if query.family == "timeseries":
        return _timeseries(catalog, parts, wanted)
    if query.family == "signature_hour_counts":
        return _signature_hour_counts(catalog, parts, query.country)
    return _stage_statistics(catalog, parts)


# ----------------------------------------------------------------------
# Family implementations: the batch percentage arithmetic, with keys in
# the catalog's first-seen order (the batch accumulation order).
# ----------------------------------------------------------------------
def country_signature_shares(
    catalog: KeyCatalog,
    parts: Iterable[BucketSlice],
    wanted: Optional[frozenset] = None,
) -> Dict[str, Dict[SignatureId, float]]:
    """Per country: % of its connections matching each signature key.

    Mirrors :meth:`AnalysisDataset.country_signature_shares`, with
    countries and each country's keys in first-seen order.
    """
    totals: Dict[str, int] = {}
    by_sig: Dict[str, Dict[SignatureId, int]] = {}
    for part in parts:
        for country, n in part.totals.items():
            if wanted is not None and country not in wanted:
                continue
            totals[country] = totals.get(country, 0) + n
        for country, sigs in part.by_signature.items():
            if wanted is not None and country not in wanted:
                continue
            mine = by_sig.setdefault(country, {})
            for sig, n in sigs.items():
                mine[sig] = mine.get(sig, 0) + n
    out: Dict[str, Dict[SignatureId, float]] = {}
    for country in catalog.ordered_countries(set(totals)):
        sigs = by_sig.get(country, {})
        total = totals[country]
        out[country] = {
            sig: 100.0 * sigs[sig] / total
            for sig in catalog.ordered_sigs(country, set(sigs))
        }
    return out


def _country_tampering_rate(
    catalog: KeyCatalog,
    parts: Iterable[BucketSlice],
    wanted: Optional[frozenset],
) -> Dict[str, float]:
    # Tampering shares summed in the country's first-seen signature
    # order, as the batch implementation accumulates them.
    return {
        country: sum(pct for sig, pct in shares.items() if sig.is_tampering)
        for country, shares in country_signature_shares(catalog, parts, wanted).items()
    }


def _timeseries(
    catalog: KeyCatalog,
    parts: Iterable[BucketSlice],
    wanted: Optional[frozenset],
) -> Dict[str, List[Tuple[float, float]]]:
    # country -> {bucket -> count}: grouped once, so the answer costs
    # one sort per country rather than one pass over every cell.
    bucket_totals: Dict[str, Dict[float, int]] = {}
    bucket_matches: Dict[str, Dict[float, int]] = {}
    for part in parts:
        bucket = part.bucket
        for country, n in part.totals.items():
            if wanted is not None and country not in wanted:
                continue
            cells = bucket_totals.setdefault(country, {})
            cells[bucket] = cells.get(bucket, 0) + n
        for country, n in part.matches.items():
            if wanted is not None and country not in wanted:
                continue
            cells = bucket_matches.setdefault(country, {})
            cells[bucket] = cells.get(bucket, 0) + n
    # A cell with tampering matches but no total connections cannot be
    # produced by a consistent rollup (every match is also a total); it
    # means a segment or WAL slice is corrupt or partial.  Refuse to
    # answer rather than fabricate a rate or silently drop the cell.
    for country, cells in bucket_matches.items():
        totals = bucket_totals.get(country, {})
        for bucket, n in cells.items():
            if n and totals.get(bucket, 0) <= 0:
                raise StoreError(
                    f"inconsistent store state: bucket {bucket} has {n} "
                    f"tampering matches for {country!r} but no total "
                    "connections (corrupt or partial segment/WAL slice)"
                )
    out: Dict[str, List[Tuple[float, float]]] = {}
    for country in catalog.ordered_countries(set(bucket_totals)):
        matches = bucket_matches.get(country, {})
        out[country] = [
            (b, 100.0 * matches.get(b, 0) / total)
            for b, total in sorted(bucket_totals[country].items())
        ]
    return out


def _signature_hour_counts(
    catalog: KeyCatalog,
    parts: Iterable[BucketSlice],
    country: str,
) -> Dict[SignatureId, List[Tuple[float, int]]]:
    # signature -> {bucket -> count}, grouped once.
    cells: Dict[SignatureId, Dict[float, int]] = {}
    for part in parts:
        bucket = part.bucket
        for (c, sig), n in part.signature_cells.items():
            if c != country:
                continue
            series = cells.setdefault(sig, {})
            series[bucket] = series.get(bucket, 0) + n
    return {
        sig: sorted(cells[sig].items())
        for sig in catalog.ordered_sigs(country, set(cells))
        if sig.is_tampering
    }


def _stage_statistics(
    catalog: KeyCatalog,
    parts: Iterable[BucketSlice],
) -> Dict[str, object]:
    total = 0
    n_possibly = 0
    stage_counts: Dict[str, int] = {}
    stage_matched: Dict[str, int] = {}
    sig_counts: Dict[SignatureId, int] = {}
    for part in parts:
        total += part.n_records
        n_possibly += part.possibly_tampered
        for key, n in part.stage_counts.items():
            stage_counts[key] = stage_counts.get(key, 0) + n
        for key, n in part.stage_matched.items():
            stage_matched[key] = stage_matched.get(key, 0) + n
        for sig, n in part.signature_counts.items():
            sig_counts[sig] = sig_counts.get(sig, 0) + n
    matched_total = sum(sig_counts.values())

    def share(n: int, d: int) -> float:
        return 100.0 * n / d if d else 0.0

    signature_counts: Counter = Counter()
    for sig in catalog.ordered_global_sigs(set(sig_counts)):
        signature_counts[sig] = sig_counts[sig]
    return {
        "total_connections": total,
        "possibly_tampered": n_possibly,
        "possibly_tampered_pct": share(n_possibly, total),
        "stage_share_pct": {
            k: share(v, n_possibly) for k, v in sorted(stage_counts.items())
        },
        "stage_coverage_pct": {
            k: share(stage_matched.get(k, 0), v)
            for k, v in sorted(stage_counts.items())
        },
        "signature_coverage_pct": share(matched_total, n_possibly),
        "signature_counts": signature_counts,
    }
