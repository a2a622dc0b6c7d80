"""First-seen key ordering for exact batch parity.

Integer counters merge associatively in any order, but query results do
not: the batch ``country_tampering_rate`` accumulates per-signature
percentages in each country's first-seen signature order,
``timeseries`` emits countries in first-seen order, and
``stage_statistics`` returns a ``Counter`` whose insertion order is the
global first-match order of signatures.  Those orders are a property of
the *record stream*, not of any one partition, so bucket slices and
segments cannot carry them.

:class:`KeyCatalog` holds them for every rollup, in memory or on disk
(:func:`repro.store.query.execute` reads it): a tiny registry (bounded by
key cardinality -- countries × signatures -- never by history) recording

* the first-seen order of countries,
* per country, the first-seen order of signature keys (including
  ``NOT_TAMPERING``, whose position matters for float accumulation), and
* the global first-match order of tampering signatures (the
  ``signature_counts`` Counter order).

The catalog is observed on every ingested record (re-observing a known
key is a no-op, which makes WAL replay and resume re-delivery exactly
idempotent), persisted in the manifest at every swap, and carried in
checkpoints between swaps.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.model import SignatureId

__all__ = ["KeyCatalog"]


class KeyCatalog:
    """First-seen orderings of countries and signatures."""

    def __init__(self) -> None:
        #: countries in first-seen stream order
        self.countries: List[str] = []
        #: country -> signature keys (incl. NOT_TAMPERING) in first-seen order
        self.country_sigs: Dict[str, List[SignatureId]] = {}
        #: tampering signatures in global first-match order
        #: (the insertion order of ``stage_statistics``' counter)
        self.global_sigs: List[SignatureId] = []
        self._country_set: Set[str] = set()
        self._country_sig_sets: Dict[str, Set[SignatureId]] = {}
        self._global_sig_set: Set[SignatureId] = set()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KeyCatalog):
            return NotImplemented
        return (
            self.countries == other.countries
            and self.country_sigs == other.country_sigs
            and self.global_sigs == other.global_sigs
        )

    def __len__(self) -> int:
        return len(self.countries)

    # ------------------------------------------------------------------
    def observe(
        self,
        country: str,
        sig_key: SignatureId,
        counts_globally: bool,
    ) -> None:
        """Register one record's keys; known keys are no-ops.

        ``sig_key`` is the slice's ``by_signature`` key (the signature
        for tampering records, ``NOT_TAMPERING`` otherwise);
        ``counts_globally`` is True exactly when the slice increments
        ``signature_counts`` (possibly-tampered AND matched).
        """
        if country not in self._country_set:
            self._country_set.add(country)
            self.countries.append(country)
            self.country_sigs[country] = []
            self._country_sig_sets[country] = set()
        sig_set = self._country_sig_sets[country]
        if sig_key not in sig_set:
            sig_set.add(sig_key)
            self.country_sigs[country].append(sig_key)
        if counts_globally and sig_key not in self._global_sig_set:
            self._global_sig_set.add(sig_key)
            self.global_sigs.append(sig_key)

    def observe_record(self, record) -> None:
        """Register a :class:`~repro.stream.rollup.StreamRecord` or WAL entry."""
        sig_key = (
            record.signature
            if record.signature.is_tampering
            else SignatureId.NOT_TAMPERING
        )
        self.observe(
            record.country,
            sig_key,
            record.possibly_tampered and record.signature.is_tampering,
        )

    # ------------------------------------------------------------------
    def ordered_countries(self, present: Optional[Set[str]] = None) -> List[str]:
        """First-seen country order, optionally restricted to ``present``."""
        if present is None:
            return list(self.countries)
        return [c for c in self.countries if c in present]

    def ordered_sigs(
        self, country: str, present: Optional[Set[SignatureId]] = None
    ) -> List[SignatureId]:
        """First-seen signature order for one country."""
        sigs = self.country_sigs.get(country, [])
        if present is None:
            return list(sigs)
        return [s for s in sigs if s in present]

    def ordered_global_sigs(
        self, present: Optional[Set[SignatureId]] = None
    ) -> List[SignatureId]:
        """Global first-match signature order (Counter insertion order)."""
        if present is None:
            return list(self.global_sigs)
        return [s for s in self.global_sigs if s in present]

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "countries": list(self.countries),
            "country_sigs": [
                [country, [sig.value for sig in sigs]]
                for country, sigs in self.country_sigs.items()
            ],
            "global_sigs": [sig.value for sig in self.global_sigs],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "KeyCatalog":
        catalog = cls()
        catalog.countries = list(data["countries"])
        catalog._country_set = set(catalog.countries)
        catalog.country_sigs = {
            country: [SignatureId(value) for value in values]
            for country, values in data["country_sigs"]
        }
        catalog._country_sig_sets = {
            country: set(sigs) for country, sigs in catalog.country_sigs.items()
        }
        catalog.global_sigs = [SignatureId(value) for value in data["global_sigs"]]
        catalog._global_sig_set = set(catalog.global_sigs)
        return catalog
