"""Unit tests for categorization, edge servers, sampling and collection."""

import copy
import io
import ipaddress
import math
import random
from binascii import a2b_base64

import pytest

from repro.cdn.categorize import CategoryDB
from repro.cdn.collector import (
    MAX_TIMESTAMP,
    ConnectionSample,
    checked_timestamp,
    read_samples_jsonl,
    write_samples_jsonl,
)
from repro.cdn.edge import EdgeConfig, make_edge_server
from repro.cdn.sampler import CaptureConfig, ConnectionSampler, capture_sample
from repro.errors import ConfigError
from repro.netstack.flags import TCPFlags
from repro.netstack.options import TCPOption
from repro.netstack.packet import Packet, PacketDirection
from repro.netstack.tcp import TcpState
from repro.network.sim import SimResult
from tests.conftest import capture, make_client, run_connection


class TestCategoryDB:
    def test_assign_and_lookup(self):
        db = CategoryDB({"a.com": ["News"], "b.com": ["News", "Chat"]})
        assert db.categories_of("a.com") == {"News"}
        assert db.categories_of("b.com") == {"News", "Chat"}

    def test_subdomain_walk(self):
        db = CategoryDB({"a.com": ["News"]})
        assert db.categories_of("www.a.com") == {"News"}
        assert db.categories_of("cdn.img.a.com") == {"News"}

    def test_unknown_and_none(self):
        db = CategoryDB()
        assert db.categories_of("nope.com") == frozenset()
        assert db.categories_of(None) == frozenset()

    def test_reverse_index(self):
        db = CategoryDB({"a.com": ["News"], "b.com": ["News"]})
        assert db.domains_in("News") == {"a.com", "b.com"}
        assert db.domains_in("Chat") == frozenset()

    def test_extend_assignment(self):
        db = CategoryDB({"a.com": ["News"]})
        db.assign("a.com", ["Chat"])
        assert db.categories_of("a.com") == {"News", "Chat"}

    def test_container_protocol(self):
        db = CategoryDB({"a.com": ["News"]})
        assert "a.com" in db
        assert "A.COM." in db
        assert "b.com" not in db
        assert len(db) == 1

    def test_as_lookup_callable(self):
        db = CategoryDB({"a.com": ["News"]})
        assert db.as_lookup()("a.com") == {"News"}


class TestEdgeServer:
    def test_deterministic_isn(self):
        a = make_edge_server("198.41.0.1", seed=4)
        b = make_edge_server("198.41.0.1", seed=4)
        assert a.config.isn == b.config.isn
        c = make_edge_server("198.41.0.1", seed=5)
        assert a.config.isn != c.config.isn

    def test_response_payload_size(self):
        config = EdgeConfig(response_size=500)
        payload = config.response_payload()
        assert b"Content-Length: 500" in payload
        assert payload.endswith(bytes((i * 31 + 7) & 0xFF for i in range(500))[-10:])

    def test_server_listens(self):
        server = make_edge_server("198.41.0.1", seed=1)
        assert server.state == TcpState.LISTEN
        assert not server.done


class TestConnectionSampler:
    def test_rate_validation(self):
        with pytest.raises(ConfigError):
            ConnectionSampler(rate=0)

    def test_deterministic_per_conn_id(self):
        a = ConnectionSampler(rate=100, seed=1)
        b = ConnectionSampler(rate=100, seed=1)
        ids = list(range(5000))
        assert [a.decide(i) for i in ids] == [b.decide(i) for i in ids]

    def test_rate_roughly_respected(self):
        sampler = ConnectionSampler(rate=100, seed=2)
        kept = sum(sampler.decide(i) for i in range(50_000))
        assert 380 <= kept <= 630
        assert sampler.observed == 50_000
        assert sampler.sampled == kept
        assert sampler.effective_rate == pytest.approx(kept / 50_000)

    def test_rate_one_keeps_everything(self):
        sampler = ConnectionSampler(rate=1)
        assert all(sampler.decide(i) for i in range(100))


class TestCaptureConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            CaptureConfig(max_packets=0)
        with pytest.raises(ConfigError):
            CaptureConfig(timestamp_granularity=0)
        with pytest.raises(ConfigError):
            CaptureConfig(watch_seconds=-1)


class TestCaptureSample:
    def test_empty_result_returns_none(self):
        assert capture_sample(SimResult(), conn_id=1) is None

    def test_inbound_only_and_truncation(self):
        client = make_client(protocol="http")
        result = run_connection(client, server_port=80)
        sample = capture_sample(result, conn_id=7, config=CaptureConfig(max_packets=3))
        assert sample.n_packets == 3
        assert all(p.direction == PacketDirection.TO_SERVER for p in sample.packets)

    def test_timestamps_floored_to_seconds(self):
        result = run_connection(make_client(), start=1000.25)
        sample = capture_sample(result, conn_id=7)
        assert all(p.ts == math.floor(p.ts) for p in sample.packets)

    def test_window_end_covers_watch(self):
        result = run_connection(make_client())
        config = CaptureConfig(watch_seconds=10.0)
        sample = capture_sample(result, conn_id=7, config=config)
        assert sample.window_end >= max(p.ts for p in sample.packets)

    def test_window_end_measured_on_floored_clock(self):
        """Regression: window_end from un-floored timestamps inflated the
        trailing silence gap by up to one granularity unit."""
        pkt = Packet(ts=1000.7, src="11.0.0.1", dst="198.41.0.1",
                     sport=40000, dport=443, seq=1, flags=TCPFlags.SYN)
        result = SimResult(server_inbound=[pkt])
        config = CaptureConfig(watch_seconds=2.5)
        sample = capture_sample(result, conn_id=1, config=config)
        assert sample.packets[0].ts == 1000.0
        assert sample.window_end == pytest.approx(1002.5)  # not 1003.2
        # The trailing gap a classifier sees is exactly watch_seconds.
        gap = sample.window_end - max(p.ts for p in sample.packets)
        assert gap == pytest.approx(config.watch_seconds)

    def test_silence_boundary_not_flipped_by_granularity(self):
        """A connection watched for < 3 s must not be declared silent just
        because its real timestamps had a fractional part."""
        from repro.core.classifier import TamperingClassifier

        pkt = Packet(ts=1000.7, src="11.0.0.1", dst="198.41.0.1",
                     sport=40000, dport=443, seq=1, flags=TCPFlags.SYN)
        result = SimResult(server_inbound=[pkt])
        sample = capture_sample(
            result, conn_id=1, config=CaptureConfig(watch_seconds=2.5)
        )
        verdict = TamperingClassifier().classify(sample)
        assert verdict.silence_gap < 3.0
        assert not verdict.possibly_tampered

    def test_shuffle_deterministic_per_seed(self):
        result = run_connection(make_client())
        a = capture_sample(result, conn_id=7, seed=1)
        b = capture_sample(result, conn_id=7, seed=1)
        assert [p.seq for p in a.packets] == [p.seq for p in b.packets]

    def test_no_shuffle_mode_preserves_order(self):
        result = run_connection(make_client())
        config = CaptureConfig(shuffle_within_bucket=False)
        sample = capture_sample(result, conn_id=7, config=config)
        assert [p.seq for p in sample.packets] == [
            p.seq for p in result.server_inbound[:10]
        ]

    def test_ground_truth_fields(self):
        result = run_connection(make_client())
        sample = capture_sample(
            result, conn_id=7, truth_tampered=True, truth_vendor="gfw",
            truth_domain="x.com", truth_client_kind="browser",
        )
        assert sample.truth_tampered and sample.truth_vendor == "gfw"

    def test_identifiers_from_first_packet(self):
        result = run_connection(make_client())
        sample = capture_sample(result, conn_id=7)
        assert sample.client_ip == "11.0.0.99"
        assert sample.server_port == 443
        assert sample.ip_version == 4
        assert sample.is_https


class TestSampleRecord:
    def test_rejects_outbound_packets(self):
        bad = Packet(src="198.41.0.1", dst="11.0.0.1", sport=443, dport=5,
                     flags=TCPFlags.SYNACK, direction=PacketDirection.TO_CLIENT)
        with pytest.raises(ValueError):
            ConnectionSample(conn_id=1, packets=[bad], window_end=1.0,
                             client_ip="11.0.0.1", client_port=5,
                             server_ip="198.41.0.1", server_port=443, ip_version=4)

    def test_first_payload_reassembles_in_seq_order(self):
        p1 = Packet(src="11.0.0.1", dst="198.41.0.1", sport=5, dport=443,
                    seq=200, flags=TCPFlags.PSHACK, payload=b"world")
        p2 = Packet(src="11.0.0.1", dst="198.41.0.1", sport=5, dport=443,
                    seq=100, flags=TCPFlags.PSHACK, payload=b"hello")
        sample = ConnectionSample(conn_id=1, packets=[p1, p2], window_end=1.0,
                                  client_ip="11.0.0.1", client_port=5,
                                  server_ip="198.41.0.1", server_port=443, ip_version=4)
        assert sample.first_payload() == b"helloworld"

    def test_jsonl_roundtrip(self):
        result = run_connection(make_client())
        sample = capture(result, conn_id=3)
        buf = io.StringIO()
        assert write_samples_jsonl(buf, [sample]) == 1
        buf.seek(0)
        loaded = read_samples_jsonl(buf)[0]
        assert loaded.conn_id == sample.conn_id
        assert loaded.client_ip == sample.client_ip
        assert len(loaded.packets) == len(sample.packets)
        for a, b in zip(loaded.packets, sample.packets):
            assert (a.ts, a.seq, a.ack, a.flags, a.payload, a.ip_id, a.ttl) == (
                b.ts, b.seq, b.ack, b.flags, b.payload, b.ip_id, b.ttl
            )
            assert a.options == b.options

    @pytest.mark.parametrize(
        "client_ip,server_ip",
        [("11.0.0.1", "198.41.0.1"), ("2001:db8::5", "2606:4700::1")],
    )
    def test_from_dict_inverts_to_dict(self, client_ip, server_ip):
        client = make_client(client_ip=client_ip, server_ip=server_ip)
        sample = capture(run_connection(client, server_ip=server_ip), conn_id=4)
        loaded = ConnectionSample.from_dict(sample.to_dict())
        assert loaded == sample
        version = 6 if ":" in client_ip else 4
        assert loaded.ip_version == version
        for packet in loaded.packets:
            assert packet.ip_version == version
            assert type(packet.flags) is TCPFlags

    def test_from_dict_versions_each_packet_by_its_own_src(self):
        p4 = Packet(ts=1.0, src="11.0.0.1", dst="198.41.0.1", sport=5,
                    dport=443, flags=TCPFlags.SYN)
        p6 = Packet(ts=2.0, src="2001:db8::5", dst="2606:4700::1", sport=5,
                    dport=443, flags=TCPFlags.ACK)
        sample = ConnectionSample(conn_id=1, packets=[p4, p6, p4], window_end=5.0,
                                  client_ip="11.0.0.1", client_port=5,
                                  server_ip="198.41.0.1", server_port=443,
                                  ip_version=4)
        loaded = ConnectionSample.from_dict(sample.to_dict())
        assert [p.ip_version for p in loaded.packets] == [4, 6, 4]
        assert loaded == sample

    def test_from_dict_rejects_malformed_src(self):
        result = run_connection(make_client())
        data = capture(result, conn_id=3).to_dict()
        data["packets"][-1]["src"] = "not-an-ip"
        with pytest.raises(ValueError):
            ConnectionSample.from_dict(data)

    def test_jsonl_tolerates_blank_lines(self, tmp_path):
        result = run_connection(make_client())
        sample = capture(result, conn_id=3)
        path = str(tmp_path / "samples.jsonl")
        with open(path, "w") as fh:
            import json

            fh.write("\n")
            fh.write(json.dumps(sample.to_dict()) + "\n\n")
        assert len(read_samples_jsonl(path)) == 1

    def test_jsonl_file_roundtrip(self, tmp_path):
        result = run_connection(make_client())
        sample = capture(result, conn_id=3)
        path = str(tmp_path / "samples.jsonl")
        write_samples_jsonl(path, [sample, sample])
        assert len(read_samples_jsonl(path)) == 2


class TestFromDictAdmission:
    """``from_dict`` refuses what the fold cannot read, so a bad sample
    is refused where it is admitted, not where it is folded."""

    @pytest.mark.parametrize(
        "field,value,error",
        [
            ("client_ip", None, TypeError),
            ("client_ip", 5, TypeError),
            ("window_end", "x", TypeError),
            ("window_end", None, TypeError),
            ("window_end", math.nan, ValueError),
            ("window_end", math.inf, ValueError),
            ("window_end", 1e308, ValueError),
        ],
    )
    def test_sample_fields(self, field, value, error):
        data = capture(run_connection(make_client()), conn_id=3).to_dict()
        data[field] = value
        with pytest.raises(error):
            ConnectionSample.from_dict(data)

    @pytest.mark.parametrize(
        "value,error",
        [("1", TypeError), (None, TypeError), (math.nan, ValueError),
         (-math.inf, ValueError), (MAX_TIMESTAMP * 2, ValueError)],
    )
    def test_packet_ts(self, value, error):
        data = capture(run_connection(make_client()), conn_id=3).to_dict()
        data["packets"][-1]["ts"] = value
        with pytest.raises(error):
            ConnectionSample.from_dict(data)

    def test_bound_is_inclusive(self):
        assert checked_timestamp(MAX_TIMESTAMP, "ts") == MAX_TIMESTAMP
        assert checked_timestamp(-MAX_TIMESTAMP, "ts") == -MAX_TIMESTAMP
        assert checked_timestamp(0, "ts") == 0


_MISSING = object()

#: Replacement values for the differential test: valid and invalid
#: values of every JSON type, including ones a table or dict lookup
#: would treat differently from the enum (unhashable ``[]``/``{}``).
_MUTATIONS = [
    _MISSING, None, True, False, 0, 1, 2, 18, 255, 256, 65535, 65536, -1,
    2**32, 2**64, -(2**63), 10**30, 1.5, 2.0, math.nan, math.inf,
    -math.inf, 1e308, "", "x", "2", "1.2.3.4", "11.0.0.9", "01.2.3.4",
    "::1", "2001:db8::5", "fe80::1%eth0", "[::1]", " 1.2.3.4", "AAAA",
    "QUJD", "A===", "=", [], {}, [1], {"a": 1}, [2, "BbQ="], [[2, "BbQ="]],
    [[1, ""]], [[0, "AA=="]], [[300, ""]], [["x", ""]], [[2]],
    [[2, "BbQ", 1]],
]
_PACKET_FIELDS = [
    "ts", "src", "dst", "ttl", "ip_id", "sport", "dport", "seq", "ack",
    "flags", "window", "options", "payload", "injected",
]
_SAMPLE_FIELDS = [
    "conn_id", "window_end", "client_ip", "client_port", "server_ip",
    "server_port", "ip_version", "packets",
]


def _reference_from_dict(data: dict) -> ConnectionSample:
    """``ConnectionSample.from_dict`` spelled with ``ipaddress`` and
    ``TCPFlags()`` directly: no address fast path, no flags table."""
    def timestamp(value):
        if not isinstance(value, (int, float)):
            raise TypeError("not a number")
        if value != value or abs(value) > MAX_TIMESTAMP:
            raise ValueError("not a finite time within the bound")
        return value

    client_ip = data["client_ip"]
    if not isinstance(client_ip, str):
        raise TypeError("client_ip must be a string")
    window_end = timestamp(data["window_end"])
    packets = []
    for entry in data["packets"]:
        src = entry["src"]
        version = ipaddress.ip_address(src).version
        ts = timestamp(entry["ts"])
        flags = TCPFlags(entry["flags"])
        options = entry.get("options")
        payload = entry["payload"]
        packets.append(Packet(
            ts=ts, src=src, dst=entry["dst"], ttl=entry["ttl"],
            ip_id=entry["ip_id"], ip_version=version, sport=entry["sport"],
            dport=entry["dport"], seq=entry["seq"], ack=entry["ack"],
            flags=flags, window=entry.get("window", 0),
            options=tuple(
                TCPOption(kind, a2b_base64(b64)) for kind, b64 in options
            ) if options else (),
            payload=b"" if payload == "" else a2b_base64(payload),
            direction=PacketDirection.TO_SERVER,
            injected=entry.get("injected", False),
        ))
    return ConnectionSample(
        conn_id=data["conn_id"], packets=packets, window_end=window_end,
        client_ip=client_ip, client_port=data["client_port"],
        server_ip=data["server_ip"], server_port=data["server_port"],
        ip_version=data["ip_version"],
        truth_tampered=data.get("truth_tampered"),
        truth_vendor=data.get("truth_vendor"),
        truth_domain=data.get("truth_domain"),
        truth_client_kind=data.get("truth_client_kind", "browser"),
    )


def _decode_outcome(decode, data):
    """What ``decode`` makes of ``data``: the sample's dict form, flag
    types and versions, or the type of the exception it raised."""
    try:
        sample = decode(data)
        return (
            repr(sample.to_dict()),
            [type(p.flags) for p in sample.packets],
            [p.ip_version for p in sample.packets],
        )
    except Exception as exc:  # the type is what is compared
        return type(exc)


class TestFromDictDifferential:
    """``from_dict`` (address fast path, flags table) agrees with a
    reference built on ``ipaddress`` and ``TCPFlags()`` on every
    one-field mutation of real samples: same dict form and flag types,
    or the same exception type."""

    def test_one_field_mutations(self):
        bases = [
            capture(run_connection(make_client()), conn_id=3).to_dict(),
            capture(
                run_connection(
                    make_client(client_ip="2001:db8::5", server_ip="2606:4700::1"),
                    server_ip="2606:4700::1",
                ),
                conn_id=4,
            ).to_dict(),
        ]
        rng = random.Random(27)
        raised = agreed = 0
        for field in _PACKET_FIELDS + _SAMPLE_FIELDS:
            for value in _MUTATIONS:
                data = copy.deepcopy(rng.choice(bases))
                target = data
                if field in _PACKET_FIELDS:
                    target = rng.choice(data["packets"])
                if value is _MISSING:
                    target.pop(field, None)
                else:
                    target[field] = copy.deepcopy(value)
                expected = _decode_outcome(_reference_from_dict, data)
                got = _decode_outcome(ConnectionSample.from_dict, data)
                assert got == expected, (field, value)
                agreed += 1
                raised += isinstance(expected, type)
        # Both outcomes are exercised in bulk.
        assert 0.2 * agreed < raised < 0.9 * agreed

    @pytest.mark.parametrize("value", [[], {}, [1], None, "2", 1.5])
    def test_unhashable_and_odd_flags_raise_like_the_enum(self, value):
        data = capture(run_connection(make_client()), conn_id=3).to_dict()
        data["packets"][0]["flags"] = value
        assert _decode_outcome(ConnectionSample.from_dict, data) is ValueError
