"""Connection sample records and their persistence.

A :class:`ConnectionSample` is the unit the analysis pipeline consumes:
the first (up to) ten inbound packets of one sampled connection, with
1-second timestamps, plus connection identifiers.  Ground-truth fields
(was the connection actually tampered? by which device? which domain did
the client request?) ride along for evaluation and are clearly separated
from observed fields; the classifier reads only the observed part.

Samples serialise to JSON-lines (one connection per line, payloads
base64) and to pcap via :func:`repro.netstack.pcap.write_pcap`.
"""

from __future__ import annotations

import base64
import dataclasses
import json
from binascii import a2b_base64
from typing import IO, Dict, Iterable, Iterator, List, Optional, Union

from repro._util import ip_version
from repro.netstack.options import TCPOption
from repro.netstack.packet import Packet, PacketDirection

__all__ = ["ConnectionSample", "write_samples_jsonl", "read_samples_jsonl"]


@dataclasses.dataclass
class ConnectionSample:
    """One sampled connection as recorded at the edge.

    Observed fields -- what the real pipeline records:

    ``packets``
        Up to ten inbound packets, timestamps floored to whole seconds,
        possibly out of order within a second (the paper's constraint).
    ``window_end``
        Virtual time when the capture window closed; the gap between the
        last packet and this instant is what the 3-second inactivity rule
        inspects.
    ``client_ip`` / ``server_ip`` / ports / ``ip_version``
        Connection identifiers.

    Ground-truth fields -- evaluation only, never read by the classifier:

    ``truth_tampered`` / ``truth_vendor`` / ``truth_domain`` /
    ``truth_client_kind``.
    """

    conn_id: int
    packets: List[Packet]
    window_end: float
    client_ip: str
    client_port: int
    server_ip: str
    server_port: int
    ip_version: int
    # --- ground truth (evaluation only) ---
    truth_tampered: Optional[bool] = None
    truth_vendor: Optional[str] = None
    truth_domain: Optional[str] = None
    truth_client_kind: str = "browser"

    def __post_init__(self) -> None:
        if any(p.direction != PacketDirection.TO_SERVER for p in self.packets):
            raise ValueError("ConnectionSample must contain inbound packets only")

    @property
    def n_packets(self) -> int:
        return len(self.packets)

    @property
    def last_packet_ts(self) -> Optional[float]:
        """Timestamp of the latest packet (samples may be unordered)."""
        if not self.packets:
            return None
        return max(p.ts for p in self.packets)

    @property
    def is_https(self) -> bool:
        return self.server_port == 443

    def first_payload(self) -> bytes:
        """Concatenated client payload in sequence order (DPI view)."""
        data_packets = sorted(
            (p for p in self.packets if p.has_payload), key=lambda p: p.seq
        )
        return b"".join(p.payload for p in data_packets)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe dictionary form."""
        return {
            "conn_id": self.conn_id,
            "window_end": self.window_end,
            "client_ip": self.client_ip,
            "client_port": self.client_port,
            "server_ip": self.server_ip,
            "server_port": self.server_port,
            "ip_version": self.ip_version,
            "truth_tampered": self.truth_tampered,
            "truth_vendor": self.truth_vendor,
            "truth_domain": self.truth_domain,
            "truth_client_kind": self.truth_client_kind,
            "packets": [
                {
                    "ts": p.ts,
                    "src": p.src,
                    "dst": p.dst,
                    "ttl": p.ttl,
                    "ip_id": p.ip_id,
                    "sport": p.sport,
                    "dport": p.dport,
                    "seq": p.seq,
                    "ack": p.ack,
                    "flags": int(p.flags),
                    "window": p.window,
                    "options": [[o.kind, base64.b64encode(o.data).decode()] for o in p.options],
                    "payload": base64.b64encode(p.payload).decode(),
                    "injected": p.injected,
                }
                for p in self.packets
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ConnectionSample":
        """Inverse of :meth:`to_dict`.

        Every packet of a sample normally shares one ``src``, so each
        distinct address is parsed once (malformed ones still raise
        ``ValueError``) and its version handed to every packet that
        carries it.
        """
        versions: Dict[str, int] = {}
        packets = []
        for entry in data["packets"]:
            src = entry["src"]
            version = versions.get(src)
            if version is None:
                version = versions[src] = ip_version(src)
            payload = entry["payload"]
            options = entry.get("options")
            packets.append(Packet(
                ts=entry["ts"],
                src=src,
                dst=entry["dst"],
                ttl=entry["ttl"],
                ip_id=entry["ip_id"],
                ip_version=version,
                sport=entry["sport"],
                dport=entry["dport"],
                seq=entry["seq"],
                ack=entry["ack"],
                flags=entry["flags"],  # Packet.__post_init__ makes it TCPFlags
                window=entry.get("window", 0),
                options=tuple(
                    TCPOption(kind, a2b_base64(b64)) for kind, b64 in options
                ) if options else (),
                payload=b"" if payload == "" else a2b_base64(payload),
                direction=PacketDirection.TO_SERVER,
                injected=entry.get("injected", False),
            ))
        return cls(
            conn_id=data["conn_id"],
            packets=packets,
            window_end=data["window_end"],
            client_ip=data["client_ip"],
            client_port=data["client_port"],
            server_ip=data["server_ip"],
            server_port=data["server_port"],
            ip_version=data["ip_version"],
            truth_tampered=data.get("truth_tampered"),
            truth_vendor=data.get("truth_vendor"),
            truth_domain=data.get("truth_domain"),
            truth_client_kind=data.get("truth_client_kind", "browser"),
        )


def write_samples_jsonl(path_or_file: Union[str, IO[str]], samples: Iterable[ConnectionSample]) -> int:
    """Write samples as JSON lines; returns the sample count."""
    owned = isinstance(path_or_file, str)
    fh = open(path_or_file, "w") if owned else path_or_file
    count = 0
    try:
        for sample in samples:
            fh.write(json.dumps(sample.to_dict(), separators=(",", ":")))
            fh.write("\n")
            count += 1
    finally:
        if owned:
            fh.close()
    return count


def read_samples_jsonl(path_or_file: Union[str, IO[str]]) -> List[ConnectionSample]:
    """Read samples back from JSON lines."""
    return list(iter_samples_jsonl(path_or_file))


def iter_samples_jsonl(path_or_file: Union[str, IO[str]]) -> Iterator[ConnectionSample]:
    """Stream samples from a JSON-lines file."""
    owned = isinstance(path_or_file, str)
    fh = open(path_or_file, "r") if owned else path_or_file
    try:
        for line in fh:
            line = line.strip()
            if line:
                yield ConnectionSample.from_dict(json.loads(line))
    finally:
        if owned:
            fh.close()
