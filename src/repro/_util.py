"""Small shared utilities: deterministic RNG derivation, IP formatting,
and crash-safe file replacement.

The whole simulation is seeded.  To avoid threading a single
:class:`random.Random` instance through every component (which would make
results depend on call ordering), components derive *independent* child
generators from a parent seed and a string label via :func:`derive_rng`.
Two runs with the same seed therefore produce identical traffic no matter
how the caller interleaves component construction.

:func:`atomic_write_text` / :func:`atomic_write_json` /
:func:`fsync_directory` are the durability primitives shared by every
crash-safe writer in the tree (stream checkpoints, store segments, the
store manifest): fsync'd temp file, ``os.replace``, then an fsync of the
containing directory so the rename itself survives a crash on ext4/xfs.
"""

from __future__ import annotations

import hashlib
import ipaddress
import json
import os
import random
import tempfile
from socket import AF_INET, AF_INET6, inet_pton
from typing import Iterable, Iterator, List, Sequence, Tuple, TypeVar

T = TypeVar("T")

__all__ = [
    "derive_seed",
    "derive_rng",
    "ipv4_to_int",
    "int_to_ipv4",
    "ipv6_to_int",
    "int_to_ipv6",
    "ip_version",
    "zipf_weights",
    "weighted_choice",
    "stable_hash",
    "chunk_payload",
    "clamp",
    "fsync_directory",
    "compact_json",
    "json_file_pieces",
    "atomic_write_text",
    "atomic_write_json",
]

#: Compact JSON text (no spaces), byte-equal to ``json.dumps(obj,
#: separators=(",", ":"))``.  One shared encoder saves building a fresh
#: ``JSONEncoder`` per call; ``encode`` runs the C encoder.
compact_json = json.JSONEncoder(separators=(",", ":")).encode


def json_file_pieces(head: dict, key: str, items: Iterable[str]) -> Iterator[str]:
    """The text ``compact_json({**head, key: [...]}) + "\\n"``, in pieces,
    where ``items`` are the list's entries, each already encoded.

    ``head`` must be non-empty and must not hold ``key``.  Large files
    are written entry by entry this way (see :func:`atomic_write_text`):
    the C encoder's working memory peaks at about ten times its output,
    so one call over a ~100 kB payload would leave a megabyte-scale
    high-water mark.
    """
    yield f'{compact_json(head)[:-1]},"{key}":['
    for index, item in enumerate(items):
        if index:
            yield ","
        yield item
    yield "]}\n"


def fsync_directory(directory: str) -> None:
    """fsync a directory so renames inside it are durable.

    ``os.replace`` makes a swap *atomic* but not *durable*: on ext4/xfs
    the new directory entry lives in the page cache until the directory
    inode itself is flushed.  Platforms whose directory handles cannot be
    fsync'd (or opened) are silently tolerated -- durability there is
    best-effort, exactly as it was before the call.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX fallback
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. directories on some FS
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: str, pieces: Iterable[str]) -> int:
    """Durably replace ``path`` with the concatenated ``pieces`` (an
    iterable of ``str``, consumed as it is written); returns bytes
    written.

    The sequence is: write to an fsync'd temp file in the same directory,
    chmod it to honour the process umask (``mkstemp`` creates 0600, which
    would make artifacts written by one user unreadable by group
    tooling), ``os.replace`` over the target, then fsync the directory so
    the rename is durable.  A crash at any point leaves either the old
    file or the new file, never a torn mix.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(pieces)
            fh.flush()
            os.fsync(fh.fileno())
        size = os.path.getsize(tmp_path)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_path, 0o666 & ~umask)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
    fsync_directory(directory)
    return size


def atomic_write_json(path: str, payload: object, *, indent: int = None) -> int:
    """:func:`atomic_write_text` of ``payload`` as JSON plus a newline.

    Compact separators unless ``indent`` is given.  The text is built
    with ``json.dumps``-equivalent calls rather than ``json.dump``,
    which always runs the pure-Python encoder; the bytes are the same.
    """
    if indent is None:
        text = compact_json(payload)
    else:
        text = json.dumps(payload, indent=indent)
    return atomic_write_text(path, (text, "\n"))


def stable_hash(*parts: object) -> int:
    """Return a 64-bit hash of ``parts`` that is stable across processes.

    Python's builtin :func:`hash` is randomised per process for strings,
    which would break cross-run determinism, so we hash through SHA-256.
    """
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest()[:8], "big")


def derive_seed(parent_seed: int, label: str) -> int:
    """Derive a child seed from ``parent_seed`` and a component ``label``."""
    return stable_hash(parent_seed, label)


def derive_rng(parent_seed: int, label: str) -> random.Random:
    """Return an independent :class:`random.Random` for one component."""
    return random.Random(derive_seed(parent_seed, label))


# Address parsing tries ``socket.inet_pton`` first: a C call, against
# microseconds of pure Python in :mod:`ipaddress`.  Every text inet_pton
# accepts, ``ipaddress`` accepts with the same value; everything it
# refuses (scope ids such as ``fe80::1%eth0``, int or packed-bytes
# inputs, malformed text) falls back to ``ipaddress``, which stays the
# authority on values and on the exception raised.


def ipv4_to_int(address: str) -> int:
    """Convert dotted-quad IPv4 text to its 32-bit integer value."""
    try:
        return int.from_bytes(inet_pton(AF_INET, address), "big")
    except (OSError, TypeError, ValueError):
        return int(ipaddress.IPv4Address(address))


def int_to_ipv4(value: int) -> str:
    """Convert a 32-bit integer to dotted-quad IPv4 text."""
    return str(ipaddress.IPv4Address(value))


def ipv6_to_int(address: str) -> int:
    """Convert IPv6 text to its 128-bit integer value."""
    try:
        return int.from_bytes(inet_pton(AF_INET6, address), "big")
    except (OSError, TypeError, ValueError):
        return int(ipaddress.IPv6Address(address))


def int_to_ipv6(value: int) -> str:
    """Convert a 128-bit integer to compressed IPv6 text."""
    return str(ipaddress.IPv6Address(value))


def ip_version(address: str) -> int:
    """Return 4 or 6 for the given textual IP address."""
    try:
        # IPv4 text never holds a colon, and IPv6 text always does.
        if ":" in address:
            inet_pton(AF_INET6, address)
            return 6
        inet_pton(AF_INET, address)
        return 4
    except (OSError, TypeError, ValueError):
        return ipaddress.ip_address(address).version


def zipf_weights(n: int, exponent: float = 1.0) -> List[float]:
    """Return ``n`` Zipf-distributed weights summing to 1.

    Rank 1 is the heaviest.  Used for domain popularity so that a small
    set of domains dominates traffic, as on the real web.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    raw = [1.0 / ((rank + 1) ** exponent) for rank in range(n)]
    total = sum(raw)
    return [w / total for w in raw]


def weighted_choice(rng: random.Random, items: Sequence[T], weights: Sequence[float]) -> T:
    """Pick one item according to ``weights`` using ``rng``.

    Thin wrapper that validates lengths; ``random.choices`` silently
    mis-pairs mismatched sequences.
    """
    if len(items) != len(weights):
        raise ValueError("items and weights must have the same length")
    return rng.choices(items, weights=weights, k=1)[0]


def chunk_payload(payload: bytes, mss: int) -> List[bytes]:
    """Split an application payload into MSS-sized TCP segments."""
    if mss <= 0:
        raise ValueError("mss must be positive")
    if not payload:
        return []
    return [payload[i : i + mss] for i in range(0, len(payload), mss)]


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into the inclusive range [low, high]."""
    return max(low, min(high, value))


def cumulative(values: Iterable[float]) -> List[float]:
    """Running sum of ``values`` (used by CDF helpers in reports)."""
    out: List[float] = []
    total = 0.0
    for v in values:
        total += v
        out.append(total)
    return out


def pairwise(seq: Sequence[T]) -> Iterable[Tuple[T, T]]:
    """Yield consecutive pairs of ``seq`` (like itertools.pairwise)."""
    for i in range(len(seq) - 1):
        yield seq[i], seq[i + 1]
