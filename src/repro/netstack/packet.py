"""The packet model: one IPv4/IPv6 + TCP packet with real wire encoding.

:class:`Packet` is the unit of data flowing through the whole system --
clients emit them, middleboxes observe/drop/forge them, the CDN edge
receives them, and the sampler records them.  The classifier consumes only
fields that a genuine server-side capture would contain.

Two kinds of extra state ride along for *testing and validation only*:

* ``injected`` -- ground-truth marker set by middlebox forgery.  The
  classifier never reads it; tests use it to score precision/recall, and
  the evidence analysis (Figures 2-3) uses it only to label oracle plots.
* ``direction`` -- whether the packet travels client→server or
  server→client.  The CDN sampler keeps inbound packets only, mirroring
  the paper's collection constraint.
"""

from __future__ import annotations

import dataclasses
import enum
import struct
from typing import List, Optional, Tuple

from repro._util import int_to_ipv4, int_to_ipv6, ip_version, ipv4_to_int, ipv6_to_int
from repro.errors import PacketDecodeError, PacketEncodeError
from repro.netstack.checksum import internet_checksum, tcp_checksum
from repro.netstack.flags import TCPFlags, flags_to_str
from repro.netstack.options import TCPOption, decode_options, encode_options

__all__ = ["Packet", "PacketDirection"]

_IPV4_MIN_HEADER = 20
_IPV6_HEADER = 40
_TCP_MIN_HEADER = 20


class PacketDirection(enum.Enum):
    """Direction of travel relative to the CDN edge server."""

    TO_SERVER = "to_server"
    TO_CLIENT = "to_client"


#: ``TCPFlags`` member per wire byte, filled on first use: the enum's
#: ``__call__`` costs microseconds, and every decoded packet needs one.
_FLAGS_BY_BYTE: List[Optional[TCPFlags]] = [None] * 256


@dataclasses.dataclass
class Packet:
    """One TCP/IP packet.

    Addresses are textual; ``ip_version`` is derived automatically when
    left at 0.  ``ip_id`` is meaningful only for IPv4 (the paper's IP-ID
    evidence analysis skips IPv6 connections for exactly this reason).
    """

    ts: float = 0.0
    src: str = "0.0.0.0"
    dst: str = "0.0.0.0"
    ttl: int = 64
    ip_id: int = 0
    ip_version: int = 0
    sport: int = 0
    dport: int = 0
    seq: int = 0
    ack: int = 0
    flags: TCPFlags = TCPFlags.NONE
    window: int = 65535
    options: Tuple[TCPOption, ...] = ()
    payload: bytes = b""
    # --- simulation-only annotations (never read by the classifier) ---
    direction: PacketDirection = PacketDirection.TO_SERVER
    injected: bool = False

    def __post_init__(self) -> None:
        if self.ip_version == 0:
            self.ip_version = ip_version(self.src)
        if self.ip_version not in (4, 6):
            raise ValueError(f"bad ip_version: {self.ip_version}")
        if not 0 <= self.sport <= 0xFFFF or not 0 <= self.dport <= 0xFFFF:
            raise ValueError("TCP port out of range")
        self.seq &= 0xFFFFFFFF
        self.ack &= 0xFFFFFFFF
        self.ip_id &= 0xFFFF
        self.ttl &= 0xFF
        flags = self.flags
        if type(flags) is int and 0 <= flags <= 0xFF:
            member = _FLAGS_BY_BYTE[flags]
            if member is None:
                member = _FLAGS_BY_BYTE[flags] = TCPFlags(flags)
            self.flags = member
        elif type(flags) is not TCPFlags:
            # Out-of-range ints and other types keep the enum's own
            # conversion and its exceptions.
            self.flags = TCPFlags(flags)
        if not isinstance(self.options, tuple):
            self.options = tuple(self.options)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def has_payload(self) -> bool:
        """True if the segment carries application data."""
        return len(self.payload) > 0

    @property
    def flow(self) -> Tuple[str, int, str, int]:
        """(src, sport, dst, dport) 4-tuple."""
        return (self.src, self.sport, self.dst, self.dport)

    @property
    def conn_key(self) -> Tuple[str, int, str, int]:
        """Direction-independent connection key (sorted endpoint pair)."""
        a = (self.src, self.sport)
        b = (self.dst, self.dport)
        lo, hi = sorted((a, b))
        return (lo[0], lo[1], hi[0], hi[1])

    def describe(self) -> str:
        """Short human-readable one-liner for logs and examples."""
        tag = " [injected]" if self.injected else ""
        return (
            f"{self.ts:10.3f} {self.src}:{self.sport} > {self.dst}:{self.dport} "
            f"{flags_to_str(self.flags)} seq={self.seq} ack={self.ack} "
            f"len={len(self.payload)} ttl={self.ttl} id={self.ip_id}{tag}"
        )

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        """Serialise to real IPv4/IPv6 + TCP wire bytes with checksums."""
        option_bytes = encode_options(self.options)
        data_offset_words = (_TCP_MIN_HEADER + len(option_bytes)) // 4
        tcp_header = struct.pack(
            "!HHIIBBHHH",
            self.sport,
            self.dport,
            self.seq,
            self.ack,
            data_offset_words << 4,
            int(self.flags) & 0xFF,
            self.window & 0xFFFF,
            0,  # checksum placeholder
            0,  # urgent pointer
        )
        segment = tcp_header + option_bytes + self.payload
        csum = tcp_checksum(self.src, self.dst, self.ip_version, segment)
        segment = segment[:16] + struct.pack("!H", csum) + segment[18:]

        if self.ip_version == 4:
            total_length = _IPV4_MIN_HEADER + len(segment)
            if total_length > 0xFFFF:
                raise PacketEncodeError("IPv4 packet exceeds 65535 bytes")
            ip_header = struct.pack(
                "!BBHHHBBHII",
                (4 << 4) | 5,  # version + IHL
                0,  # DSCP/ECN
                total_length,
                self.ip_id,
                0,  # flags + fragment offset (DF not modelled)
                self.ttl,
                6,  # protocol TCP
                0,  # header checksum placeholder
                ipv4_to_int(self.src),
                ipv4_to_int(self.dst),
            )
            ip_csum = internet_checksum(ip_header)
            ip_header = ip_header[:10] + struct.pack("!H", ip_csum) + ip_header[12:]
            return ip_header + segment

        # IPv6: fixed header only, next-header TCP, hop limit in self.ttl.
        ip_header = struct.pack(
            "!IHBB",
            6 << 28,  # version, zero traffic class / flow label
            len(segment),
            6,  # next header TCP
            self.ttl,
        ) + ipv6_to_int(self.src).to_bytes(16, "big") + ipv6_to_int(self.dst).to_bytes(16, "big")
        return ip_header + segment

    @classmethod
    def decode(cls, data: bytes, ts: float = 0.0, strict: bool = False) -> "Packet":
        """Parse wire bytes produced by :meth:`encode` (or a real capture).

        With ``strict=True`` a bad TCP checksum raises
        :class:`~repro.errors.ChecksumError` (via tcp verification); by
        default checksums are ignored on decode, like most passive taps.
        """
        if len(data) < 1:
            raise PacketDecodeError("empty packet")
        version = data[0] >> 4
        if version == 4:
            if len(data) < _IPV4_MIN_HEADER:
                raise PacketDecodeError("short IPv4 header")
            ihl = (data[0] & 0x0F) * 4
            if ihl < _IPV4_MIN_HEADER or len(data) < ihl:
                raise PacketDecodeError(f"bad IPv4 IHL: {ihl}")
            total_length, ip_id = struct.unpack("!HH", data[2:6])
            ttl, proto = data[8], data[9]
            if proto != 6:
                raise PacketDecodeError(f"not TCP (protocol {proto})")
            src = int_to_ipv4(struct.unpack("!I", data[12:16])[0])
            dst = int_to_ipv4(struct.unpack("!I", data[16:20])[0])
            if total_length > len(data):
                raise PacketDecodeError("IPv4 total length exceeds capture")
            segment = data[ihl:total_length]
        elif version == 6:
            if len(data) < _IPV6_HEADER:
                raise PacketDecodeError("short IPv6 header")
            payload_length = struct.unpack("!H", data[4:6])[0]
            next_header, hop_limit = data[6], data[7]
            if next_header != 6:
                raise PacketDecodeError(f"not TCP (next header {next_header})")
            src = int_to_ipv6(int.from_bytes(data[8:24], "big"))
            dst = int_to_ipv6(int.from_bytes(data[24:40], "big"))
            ttl, ip_id = hop_limit, 0
            if _IPV6_HEADER + payload_length > len(data):
                raise PacketDecodeError("IPv6 payload length exceeds capture")
            segment = data[_IPV6_HEADER : _IPV6_HEADER + payload_length]
        else:
            raise PacketDecodeError(f"unknown IP version nibble: {version}")

        if len(segment) < _TCP_MIN_HEADER:
            raise PacketDecodeError("short TCP header")
        sport, dport, seq, ack, off_flags, flag_bits, window, _csum, _urg = struct.unpack(
            "!HHIIBBHHH", segment[:_TCP_MIN_HEADER]
        )
        data_offset = (off_flags >> 4) * 4
        if data_offset < _TCP_MIN_HEADER or data_offset > len(segment):
            raise PacketDecodeError(f"bad TCP data offset: {data_offset}")
        options = tuple(decode_options(segment[_TCP_MIN_HEADER:data_offset]))
        payload = segment[data_offset:]

        if strict:
            from repro.errors import ChecksumError
            from repro.netstack.checksum import verify_tcp_checksum

            if not verify_tcp_checksum(src, dst, version, segment):
                raise ChecksumError("TCP checksum verification failed")

        return cls(
            ts=ts,
            src=src,
            dst=dst,
            ttl=ttl,
            ip_id=ip_id,
            ip_version=version,
            sport=sport,
            dport=dport,
            seq=seq,
            ack=ack,
            flags=TCPFlags(flag_bits),
            window=window,
            options=options,
            payload=bytes(payload),
        )

    # ------------------------------------------------------------------
    # Convenience constructors used across the simulator
    # ------------------------------------------------------------------
    def reply_template(self) -> "Packet":
        """A packet skeleton going the opposite way on the same flow."""
        return Packet(
            ts=self.ts,
            src=self.dst,
            dst=self.src,
            sport=self.dport,
            dport=self.sport,
            ip_version=self.ip_version,
            direction=(
                PacketDirection.TO_CLIENT
                if self.direction == PacketDirection.TO_SERVER
                else PacketDirection.TO_SERVER
            ),
        )

    def clone(self, **overrides: object) -> "Packet":
        """Copy the packet, replacing the given fields."""
        return dataclasses.replace(self, **overrides)  # type: ignore[arg-type]


def sort_key_capture(pkt: Packet) -> Tuple[float, int]:
    """Sort key approximating capture order at 1-second granularity."""
    return (float(int(pkt.ts)), pkt.seq)


def total_inbound_bytes(packets: List[Packet]) -> int:
    """Sum of payload bytes on to-server packets (helper for stats)."""
    return sum(len(p.payload) for p in packets if p.direction == PacketDirection.TO_SERVER)
