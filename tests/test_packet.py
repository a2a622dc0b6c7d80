"""Unit tests for the Packet model and its wire encoding."""

import pytest

from repro.errors import ChecksumError, PacketDecodeError
from repro.netstack.flags import TCPFlags
from repro.netstack.options import DEFAULT_CLIENT_OPTIONS, mss_option
from repro.netstack.packet import Packet, PacketDirection


def sample_packet(**overrides):
    base = dict(
        ts=12.5,
        src="11.0.1.2",
        dst="198.41.0.7",
        ttl=57,
        ip_id=4242,
        sport=51000,
        dport=443,
        seq=123456,
        ack=654321,
        flags=TCPFlags.PSHACK,
        window=29200,
        options=(mss_option(1400),),
        payload=b"hello world",
    )
    base.update(overrides)
    return Packet(**base)


class TestConstruction:
    def test_ip_version_derived(self):
        assert sample_packet().ip_version == 4
        assert sample_packet(src="2a00::1", dst="2606:4700::5").ip_version == 6

    def test_seq_ack_wrap(self):
        pkt = sample_packet(seq=2**32 + 7, ack=2**33 + 9)
        assert pkt.seq == 7
        assert pkt.ack == 9

    def test_port_range_enforced(self):
        with pytest.raises(ValueError):
            sample_packet(sport=70000)

    def test_every_flag_byte_is_its_enum_member(self):
        for byte in range(256):
            flags = sample_packet(flags=byte).flags
            assert type(flags) is TCPFlags
            assert flags is TCPFlags(byte)
        for value in (256, -1, 2.0, True):
            assert sample_packet(flags=value).flags is TCPFlags(value)

    def test_flow_and_conn_key(self):
        pkt = sample_packet()
        assert pkt.flow == ("11.0.1.2", 51000, "198.41.0.7", 443)
        reply = pkt.reply_template()
        assert reply.conn_key == pkt.conn_key
        assert reply.direction == PacketDirection.TO_CLIENT

    def test_has_payload(self):
        assert sample_packet().has_payload
        assert not sample_packet(payload=b"").has_payload

    def test_describe_mentions_flags_and_injected(self):
        text = sample_packet().clone(injected=True).describe()
        assert "PSH+ACK" in text
        assert "[injected]" in text


class TestWireRoundtrip:
    def test_ipv4_roundtrip(self):
        pkt = sample_packet()
        decoded = Packet.decode(pkt.encode(), ts=pkt.ts)
        assert decoded.src == pkt.src
        assert decoded.dst == pkt.dst
        assert decoded.ttl == pkt.ttl
        assert decoded.ip_id == pkt.ip_id
        assert decoded.sport == pkt.sport
        assert decoded.dport == pkt.dport
        assert decoded.seq == pkt.seq
        assert decoded.ack == pkt.ack
        assert decoded.flags == pkt.flags
        assert decoded.window == pkt.window
        assert tuple(decoded.options) == pkt.options
        assert decoded.payload == pkt.payload

    def test_ipv6_roundtrip(self):
        pkt = sample_packet(src="2a00:0:0:1::9", dst="2606:4700::1:2", ip_id=0)
        decoded = Packet.decode(pkt.encode())
        assert decoded.src == pkt.src
        assert decoded.dst == pkt.dst
        assert decoded.ip_version == 6
        assert decoded.payload == pkt.payload

    def test_strict_decode_accepts_valid_checksum(self):
        pkt = sample_packet()
        assert Packet.decode(pkt.encode(), strict=True).seq == pkt.seq

    def test_strict_decode_rejects_corrupted(self):
        raw = bytearray(sample_packet().encode())
        raw[-1] ^= 0xFF  # flip a payload byte
        with pytest.raises(ChecksumError):
            Packet.decode(bytes(raw), strict=True)

    def test_lenient_decode_ignores_corruption(self):
        raw = bytearray(sample_packet().encode())
        raw[-1] ^= 0xFF
        assert Packet.decode(bytes(raw)).payload.endswith(b"worl" + bytes([ord("d") ^ 0xFF]))

    def test_full_default_options_roundtrip(self):
        pkt = sample_packet(options=DEFAULT_CLIENT_OPTIONS)
        assert tuple(Packet.decode(pkt.encode()).options) == DEFAULT_CLIENT_OPTIONS


class TestDecodeErrors:
    def test_empty(self):
        with pytest.raises(PacketDecodeError):
            Packet.decode(b"")

    def test_bad_version(self):
        with pytest.raises(PacketDecodeError):
            Packet.decode(b"\x50" + bytes(40))

    def test_short_ipv4(self):
        with pytest.raises(PacketDecodeError):
            Packet.decode(b"\x45" + bytes(10))

    def test_non_tcp_protocol(self):
        raw = bytearray(sample_packet().encode())
        raw[9] = 17  # UDP
        with pytest.raises(PacketDecodeError):
            Packet.decode(bytes(raw))

    def test_truncated_tcp_header(self):
        raw = sample_packet().encode()[:24]  # IPv4 header + 4 TCP bytes
        with pytest.raises(PacketDecodeError):
            Packet.decode(raw)

    def test_bad_data_offset(self):
        raw = bytearray(sample_packet(options=()).encode())
        raw[20 + 12] = 0x30  # data offset 12 words > segment length
        with pytest.raises(PacketDecodeError):
            Packet.decode(bytes(raw))


class TestClone:
    def test_clone_overrides(self):
        pkt = sample_packet()
        moved = pkt.clone(ttl=9, ts=99.0)
        assert moved.ttl == 9 and moved.ts == 99.0
        assert pkt.ttl == 57  # original untouched

    def test_clone_preserves_annotations(self):
        pkt = sample_packet().clone(injected=True)
        assert pkt.clone(ttl=1).injected
