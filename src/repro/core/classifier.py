"""The end-to-end classification pipeline.

:class:`TamperingClassifier` turns a raw
:class:`~repro.cdn.collector.ConnectionSample` into a
:class:`ClassificationResult`: the matched signature, the connection
stage, the protocol and domain extracted from the trigger payload when it
reached the server (Post-PSH and later), plus the fields downstream
aggregation needs.  This is the component a CDN would run in production;
everything it reads is available in a genuine server-side capture.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import OrderedDict
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.cdn.collector import ConnectionSample
from repro.core.featurekey import FeatureKey, feature_key
from repro.core.model import SignatureId, Stage
from repro.core.signatures import INACTIVITY_SECONDS, SignatureMatch, match_signature
from repro.errors import ClassificationError
from repro.netstack.http import extract_host, is_http_request
from repro.netstack.tls import extract_sni, is_tls_client_hello

__all__ = [
    "ClassifierConfig",
    "ClassificationResult",
    "TamperingClassifier",
    "ClassifierCacheInfo",
]


@dataclasses.dataclass(frozen=True)
class ClassifierConfig:
    """Pipeline tunables (defaults = the paper's settings)."""

    max_packets: int = 10
    inactivity_seconds: float = INACTIVITY_SECONDS
    reorder: bool = True  # reconstruct packet order before matching
    cache_size: int = 4096  # feature-key memo entries; 0 disables the memo

    def __post_init__(self) -> None:
        if self.max_packets < 1:
            raise ClassificationError("max_packets must be >= 1")
        if self.inactivity_seconds <= 0:
            raise ClassificationError("inactivity_seconds must be positive")
        if self.cache_size < 0:
            raise ClassificationError("cache_size must be >= 0")


@dataclasses.dataclass
class ClassificationResult:
    """One classified connection.

    ``protocol`` and ``domain`` are derived from the sample's trigger
    payload on first access, not at classification time: the streaming
    fold never reads them, so it never pays for the ClientHello parse.
    """

    sample: ConnectionSample
    signature: SignatureId
    stage: Stage
    possibly_tampered: bool
    silence_gap: float
    n_data_segments: int

    @property
    def is_tampering(self) -> bool:
        return self.signature.is_tampering

    @property
    def conn_id(self) -> int:
        return self.sample.conn_id

    @functools.cached_property
    def _protocol_domain(self) -> Tuple[Optional[str], Optional[str]]:
        return _extract_protocol_domain(self.sample)

    @property
    def protocol(self) -> Optional[str]:
        """``"tls"`` | ``"http"`` | None."""
        return self._protocol_domain[0]

    @property
    def domain(self) -> Optional[str]:
        """Extracted from the trigger payload, if any."""
        return self._protocol_domain[1]


def _extract_protocol_domain(sample: ConnectionSample):
    """Protocol and domain from the reassembled client payload."""
    payload = sample.first_payload()
    if not payload:
        return None, None
    if is_tls_client_hello(payload):
        return "tls", extract_sni(payload)
    if is_http_request(payload):
        return "http", extract_host(payload)
    return None, None


@dataclasses.dataclass(frozen=True)
class ClassifierCacheInfo:
    """Memo statistics, mirroring :func:`functools.lru_cache`'s info."""

    hits: int
    misses: int
    maxsize: int
    currsize: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


#: What the memo stores per feature key -- exactly the fields of a
#: :class:`SignatureMatch` the classifier propagates (the packet lists
#: belong to individual samples and are never shared).
_Decision = Tuple[SignatureId, Stage, bool, float, int]


class TamperingClassifier:
    """Stateless classifier over connection samples.

    "Stateless" refers to the decision function: with the memo enabled
    (``config.cache_size > 0``) the instance carries a bounded LRU cache
    keyed by :func:`repro.core.featurekey.feature_key`, but cached and
    uncached classification are behaviour-identical by construction --
    the key captures everything the decision reads.
    """

    def __init__(self, config: Optional[ClassifierConfig] = None) -> None:
        self.config = config or ClassifierConfig()
        self._cache: "OrderedDict[FeatureKey, _Decision]" = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    # Memo plumbing
    # ------------------------------------------------------------------
    def cache_info(self) -> ClassifierCacheInfo:
        """Hit/miss/size statistics for the feature-key memo."""
        return ClassifierCacheInfo(
            hits=self.cache_hits,
            misses=self.cache_misses,
            maxsize=self.config.cache_size,
            currsize=len(self._cache),
        )

    def cache_clear(self) -> None:
        self._cache.clear()
        self.cache_hits = 0
        self.cache_misses = 0

    def _match(self, sample: ConnectionSample) -> _Decision:
        """The signature decision for one sample, memoized when enabled."""
        config = self.config
        if config.cache_size:
            key = feature_key(
                sample.packets,
                window_end=sample.window_end,
                max_packets=config.max_packets,
                reorder=config.reorder,
            )
            cached = self._cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                self._cache.move_to_end(key)
                return cached
            self.cache_misses += 1
        else:
            key = None
        match: SignatureMatch = match_signature(
            sample.packets,
            window_end=sample.window_end,
            max_packets=config.max_packets,
            inactivity_seconds=config.inactivity_seconds,
            reorder=config.reorder,
        )
        decision: _Decision = (
            match.signature,
            match.stage,
            match.possibly_tampered,
            match.silence_gap,
            match.n_data_segments,
        )
        if key is not None:
            self._cache[key] = decision
            if len(self._cache) > config.cache_size:
                self._cache.popitem(last=False)
        return decision

    # ------------------------------------------------------------------
    # Classification front-ends
    # ------------------------------------------------------------------
    def classify(self, sample: ConnectionSample) -> ClassificationResult:
        """Classify one sample."""
        signature, stage, possibly_tampered, silence_gap, n_data = self._match(sample)
        return ClassificationResult(
            sample=sample,
            signature=signature,
            stage=stage,
            possibly_tampered=possibly_tampered,
            silence_gap=silence_gap,
            n_data_segments=n_data,
        )

    def classify_all(self, samples: Iterable[ConnectionSample]) -> List[ClassificationResult]:
        """Classify a batch of samples."""
        return [self.classify(s) for s in samples]

    def iter_classify(self, samples: Iterable[ConnectionSample]) -> Iterator[ClassificationResult]:
        """Streaming variant of :meth:`classify_all`."""
        for sample in samples:
            yield self.classify(sample)
