"""Cached-vs-uncached parity: the fast path must change nothing.

The feature-key memo (:mod:`repro.core.featurekey`) is a pure
performance feature; these tests enforce the invariant that every
Table 1 decision -- signature, stage, ``possibly_tampered``,
``silence_gap``, ``n_data_segments`` (plus protocol/domain, which are
never memoized) -- is bit-identical with and without it, over
randomized, shuffled and truncated captures covering all 19 signatures.
"""

from __future__ import annotations

import random
from typing import List

import pytest

from repro.cdn.collector import ConnectionSample
from repro.core import classifier as classifier_module
from repro.core.classifier import ClassifierConfig, TamperingClassifier
from repro.core.featurekey import feature_key
from repro.core.model import SignatureId
from repro.errors import ClassificationError
from repro.netstack.flags import TCPFlags
from repro.netstack.http import build_http_request
from repro.netstack.packet import Packet
from repro.netstack.tls import build_client_hello

CLIENT = "11.0.0.5"
SERVER = "198.41.7.7"


def _pkt(ts, flags, seq=0, ack=0, payload=b"", ip_id=0, sport=40000):
    return Packet(
        ts=ts, src=CLIENT, dst=SERVER, sport=sport, dport=443,
        seq=seq, ack=ack, flags=flags, payload=payload, ip_id=ip_id,
    )


def _sample(packets: List[Packet], window_end: float, conn_id: int = 1) -> ConnectionSample:
    return ConnectionSample(
        conn_id=conn_id, packets=packets, window_end=window_end,
        client_ip=CLIENT, client_port=40000, server_ip=SERVER,
        server_port=443, ip_version=4,
    )


def _random_capture(rng: random.Random, conn_id: int) -> ConnectionSample:
    """A randomized capture that can land in any stage of the taxonomy.

    Builds a plausible inbound-only connection prefix (SYNs, handshake
    ACK, data segments, response ACKs, FIN) and then a random event
    (pure RSTs with assorted ack values including the forged 0, RST+ACKs,
    silence, or a clean close), with timestamps floored to 1 s, shuffled
    storage order and random truncation -- the distortions the real
    pipeline applies.
    """
    isn = rng.randrange(1, 2**31)
    server_isn = rng.randrange(1, 2**31)
    packets: List[Packet] = []
    t = float(rng.randrange(0, 5))

    packets.append(_pkt(t, TCPFlags.SYN, seq=isn, ip_id=rng.randrange(0, 65536)))
    if rng.random() < 0.2:  # duplicate SYN (retransmission)
        packets.append(_pkt(t + rng.choice([0.0, 1.0]), TCPFlags.SYN, seq=isn))
    stage_depth = rng.randrange(0, 4)  # 0=post-syn .. 3=post-data
    seq = isn + 1
    if stage_depth >= 1:
        t += rng.choice([0.0, 1.0])
        packets.append(_pkt(t, TCPFlags.ACK, seq=seq, ack=server_isn + 1))
    if stage_depth >= 2:
        payload = bytes([rng.randrange(1, 255)]) * rng.randrange(1, 40)
        t += rng.choice([0.0, 1.0])
        packets.append(_pkt(t, TCPFlags.PSHACK, seq=seq, ack=server_isn + 1, payload=payload))
        if rng.random() < 0.3:  # retransmission of the trigger segment
            packets.append(_pkt(t + rng.choice([0.0, 1.0]), TCPFlags.PSHACK,
                                seq=seq, ack=server_isn + 1, payload=payload))
        seq += len(payload)
    if stage_depth >= 3:
        extra = rng.randrange(1, 3)
        for _ in range(extra):
            kind = rng.randrange(0, 3)
            t += rng.choice([0.0, 1.0])
            if kind == 0:  # second data segment
                payload = b"x" * rng.randrange(1, 20)
                packets.append(_pkt(t, TCPFlags.PSHACK, seq=seq,
                                    ack=server_isn + 1, payload=payload))
                seq += len(payload)
            elif kind == 1:  # ACK of the response
                packets.append(_pkt(t, TCPFlags.ACK, seq=seq,
                                    ack=server_isn + rng.randrange(2, 3000)))
            else:  # client FIN
                packets.append(_pkt(t, TCPFlags.FINACK, seq=seq, ack=server_isn + 1))

    event = rng.randrange(0, 4)
    if event == 0:  # pure RSTs, assorted forged acks (incl. the 0 pattern)
        for _ in range(rng.randrange(1, 4)):
            ack = rng.choice([0, 0, server_isn + 1, rng.randrange(1, 2**31)])
            t += rng.choice([0.0, 1.0])
            packets.append(_pkt(t, TCPFlags.RST, seq=rng.randrange(1, 2**31), ack=ack))
    elif event == 1:  # RST+ACK teardown(s)
        for _ in range(rng.randrange(1, 3)):
            t += rng.choice([0.0, 1.0])
            packets.append(_pkt(t, TCPFlags.RSTACK, seq=seq, ack=server_isn + 1))
    elif event == 2 and rng.random() < 0.5:  # mixed RST / RST+ACK
        packets.append(_pkt(t, TCPFlags.RST, seq=seq, ack=0))
        packets.append(_pkt(t + 1.0, TCPFlags.RSTACK, seq=seq, ack=server_isn + 1))
    # event == 3 (and half of 2): silence -- no tear-down at all.

    rng.shuffle(packets)  # storage order is arbitrary within the capture
    if len(packets) > 3 and rng.random() < 0.3:
        packets = packets[: rng.randrange(3, len(packets) + 1)]  # truncation
    watch = rng.choice([1.0, 2.5, 3.0, 4.0, 10.0])
    window_end = max(p.ts for p in packets) + watch
    return _sample(packets, window_end, conn_id=conn_id)


def _decision(result):
    return (
        result.signature,
        result.stage,
        result.possibly_tampered,
        result.silence_gap,
        result.n_data_segments,
        result.protocol,
        result.domain,
    )


def _payload_captures() -> List[ConnectionSample]:
    """A TLS ClientHello, an HTTP request and a payload-less handshake."""
    captures = []
    for conn_id, payload in enumerate(
        (build_client_hello("tls.example"), build_http_request("http.example"), b""),
        start=1,
    ):
        packets = [
            _pkt(0.0, TCPFlags.SYN, seq=99),
            _pkt(0.0, TCPFlags.ACK, seq=100, ack=501),
        ]
        if payload:
            packets.append(_pkt(1.0, TCPFlags.PSHACK, seq=100, ack=501, payload=payload))
        captures.append(_sample(packets, window_end=5.0, conn_id=conn_id))
    return captures


class TestProtocolDomain:
    def test_pinned_per_payload_kind(self):
        results = TamperingClassifier().classify_all(_payload_captures())
        assert [(r.protocol, r.domain) for r in results] == [
            ("tls", "tls.example"), ("http", "http.example"), (None, None),
        ]

    def test_classify_does_not_parse_the_payload(self, monkeypatch):
        calls = []
        extract = classifier_module._extract_protocol_domain
        monkeypatch.setattr(
            classifier_module, "_extract_protocol_domain",
            lambda sample: calls.append(sample) or extract(sample),
        )
        result = TamperingClassifier().classify(_payload_captures()[0])
        assert calls == []
        assert (result.protocol, result.domain) == ("tls", "tls.example")
        assert len(calls) == 1  # parsed once, on first access


class TestCacheConfig:
    def test_cache_size_validation(self):
        with pytest.raises(ClassificationError):
            ClassifierConfig(cache_size=-1)

    def test_cache_disabled_records_nothing(self):
        classifier = TamperingClassifier(ClassifierConfig(cache_size=0))
        sample = _sample([_pkt(0.0, TCPFlags.SYN, seq=5)], window_end=10.0)
        classifier.classify(sample)
        info = classifier.cache_info()
        assert info.currsize == 0 and info.hits == 0 and info.misses == 0

    def test_cache_hits_on_equivalent_connections(self):
        classifier = TamperingClassifier()
        for conn_id, isn in enumerate([100, 9999, 123456]):
            sample = _sample(
                [_pkt(float(conn_id), TCPFlags.SYN, seq=isn),
                 _pkt(float(conn_id), TCPFlags.RST, seq=isn + 1, ack=0)],
                window_end=float(conn_id) + 10.0,
                conn_id=conn_id,
            )
            result = classifier.classify(sample)
            assert result.signature == SignatureId.SYN_RST
        info = classifier.cache_info()
        assert info.misses == 1 and info.hits == 2  # ISN/time renumbered away

    def test_lru_eviction_is_bounded(self):
        classifier = TamperingClassifier(ClassifierConfig(cache_size=4))
        for i in range(10):
            sample = _sample(
                [_pkt(0.0, TCPFlags.SYN, seq=1),
                 _pkt(float(i), TCPFlags.RST, seq=2, ack=0)],
                window_end=float(i) + 10.0,
            )
            classifier.classify(sample)
        assert classifier.cache_info().currsize == 4

    def test_cache_clear(self):
        classifier = TamperingClassifier()
        sample = _sample([_pkt(0.0, TCPFlags.SYN, seq=5)], window_end=10.0)
        classifier.classify(sample)
        classifier.classify(sample)
        assert classifier.cache_info().hits == 1
        classifier.cache_clear()
        info = classifier.cache_info()
        assert info.hits == 0 and info.misses == 0 and info.currsize == 0


class TestFeatureKey:
    def test_shuffle_invariant_with_reorder(self):
        rng = random.Random(3)
        sample = _random_capture(rng, conn_id=1)
        base = feature_key(sample.packets, sample.window_end, 10, reorder=True)
        for _ in range(5):
            shuffled = list(sample.packets)
            rng.shuffle(shuffled)
            assert feature_key(shuffled, sample.window_end, 10, reorder=True) == base

    def test_stored_order_matters_without_reorder(self):
        a = _pkt(0.0, TCPFlags.SYN, seq=1)
        b = _pkt(0.0, TCPFlags.RST, seq=2, ack=7)
        k1 = feature_key([a, b], 10.0, 10, reorder=False)
        k2 = feature_key([b, a], 10.0, 10, reorder=False)
        assert k1 != k2

    def test_time_and_isn_translation_invariant(self):
        def build(t0, isn):
            return [
                _pkt(t0, TCPFlags.SYN, seq=isn),
                _pkt(t0 + 1.0, TCPFlags.ACK, seq=isn + 1, ack=500),
            ]

        k1 = feature_key(build(0.0, 100), 10.0, 10, reorder=True)
        k2 = feature_key(build(700.0, 424242), 710.0, 10, reorder=True)
        assert k1 == k2

    def test_ack_zero_not_collapsed_with_smallest_ack(self):
        # ack==0 drives the RST(0) signature; renumbering must keep it
        # distinct from "smallest non-zero ack".
        base = [_pkt(0.0, TCPFlags.PSHACK, seq=1, ack=9, payload=b"q")]
        zero = base + [_pkt(1.0, TCPFlags.RST, seq=2, ack=0),
                       _pkt(1.0, TCPFlags.RST, seq=2, ack=9)]
        nonzero = base + [_pkt(1.0, TCPFlags.RST, seq=2, ack=5),
                          _pkt(1.0, TCPFlags.RST, seq=2, ack=9)]
        assert (feature_key(zero, 10.0, 10, True)
                != feature_key(nonzero, 10.0, 10, True))

    def test_full_buffer_ignores_window_end(self):
        packets = [_pkt(float(i), TCPFlags.ACK, seq=1, ack=i + 1) for i in range(10)]
        k1 = feature_key(packets, 100.0, max_packets=10, reorder=True)
        k2 = feature_key(packets, 500.0, max_packets=10, reorder=True)
        assert k1 == k2
        # ... but a truncated capture must keep the slack.
        k3 = feature_key(packets[:5], 100.0, max_packets=10, reorder=True)
        k4 = feature_key(packets[:5], 500.0, max_packets=10, reorder=True)
        assert k3 != k4


class TestRandomizedParity:
    """The tentpole guarantee: zero divergent classifications."""

    N_CAPTURES = 400

    def _captures(self) -> List[ConnectionSample]:
        rng = random.Random(1729)
        return [_random_capture(rng, conn_id=i) for i in range(self.N_CAPTURES)]

    def test_cached_equals_uncached_on_randomized_captures(self):
        captures = self._captures()
        cached = TamperingClassifier(ClassifierConfig(cache_size=256))
        uncached = TamperingClassifier(ClassifierConfig(cache_size=0))
        divergent = [
            (s.conn_id, _decision(a), _decision(b))
            for s, a, b in zip(
                captures, cached.classify_all(captures), uncached.classify_all(captures)
            )
            if _decision(a) != _decision(b)
        ]
        assert divergent == []
        info = cached.cache_info()
        assert info.hits > 0  # the workload is actually repetitive

    def test_parity_covers_every_stage_without_reorder(self):
        captures = self._captures()
        config_c = ClassifierConfig(reorder=False, cache_size=256)
        config_u = ClassifierConfig(reorder=False, cache_size=0)
        cached = TamperingClassifier(config_c).classify_all(captures)
        uncached = TamperingClassifier(config_u).classify_all(captures)
        assert [_decision(r) for r in cached] == [_decision(r) for r in uncached]

    def test_shuffled_storage_order_shares_decisions(self):
        rng = random.Random(99)
        captures = self._captures()[:100]
        classifier = TamperingClassifier()
        baseline = [_decision(r) for r in classifier.classify_all(captures)]
        shuffled_samples = []
        for sample in captures:
            packets = list(sample.packets)
            rng.shuffle(packets)
            shuffled_samples.append(_sample(packets, sample.window_end, sample.conn_id))
        shuffled = [_decision(r) for r in classifier.classify_all(shuffled_samples)]
        assert baseline == shuffled

    def test_all_19_signatures_reachable_and_cached_identically(self, small_study):
        """Study traffic: every signature the world produces, twice."""
        samples = small_study.samples
        cached = TamperingClassifier()
        uncached = TamperingClassifier(ClassifierConfig(cache_size=0))
        results_c = cached.classify_all(samples)
        results_u = uncached.classify_all(samples)
        assert [_decision(a) for a in results_c] == [_decision(b) for b in results_u]
        seen = {r.signature for r in results_c if r.signature.is_tampering}
        assert len(seen) >= 10  # a broad slice of the 19-signature catalogue
        assert cached.cache_info().hit_rate > 0.5
