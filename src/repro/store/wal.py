"""The open-bucket write-ahead log.

Sealed history lives in immutable segments; the *open* buckets -- the
ones still receiving records -- live in memory as
:class:`~repro.store.segment.BucketSlice` objects.  The WAL makes that
in-memory tail durable: every ingested record appends one small JSONL
entry to a per-bucket log file, and reopening the store replays the
logs to reconstruct the open slices (and their catalog registrations)
exactly.

One file per open bucket keeps truncation trivial: sealing a bucket
into a segment simply unlinks its log.  Entries carry the global record
ordinal ``n`` (the engine's fold count), which is what makes replay
idempotent -- a resume replays only entries at or below the checkpoint
count, and re-delivered records re-append under their original
ordinals.

Appends are buffered and fsync'd every ``sync_every`` records (and
always at checkpoint/seal boundaries), so the durability window is
bounded and explicit.  A torn *final* line -- the crash landed
mid-append -- is skipped on replay, same as the JSONL sources treat a
half-written tail; a torn line anywhere else is corruption and raises.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, IO, Iterable, List, Tuple

from repro._util import compact_json, fsync_directory
from repro.core.model import SignatureId, Stage
from repro.errors import StoreError
from repro.obs import NULL_OBS

__all__ = ["WAL_PREFIX", "WalEntry", "WriteAheadLog"]

WAL_PREFIX = "wal-"

#: Timing-sample stride (power of two) for the per-record append span:
#: only every Nth append is clocked; the recorded span carries weight N
#: in the histogram.  ``WriteAheadLog.appends`` stays exact.
_APPEND_SAMPLE = 4


def _bucket_token(bucket: float) -> str:
    """Filename-safe token for a bucket start (``-``/``.`` are munged)."""
    return format(bucket, ".6f").replace("-", "m").replace(".", "p")


class WalEntry:
    """One logged record: ordinal plus the fields the rollup reads."""

    __slots__ = ("ordinal", "bucket", "country", "ts", "signature", "stage",
                 "possibly_tampered")

    def __init__(
        self,
        ordinal: int,
        bucket: float,
        country: str,
        ts: float,
        signature: SignatureId,
        stage: Stage,
        possibly_tampered: bool,
    ) -> None:
        self.ordinal = ordinal
        self.bucket = bucket
        self.country = country
        self.ts = ts
        self.signature = signature
        self.stage = stage
        self.possibly_tampered = possibly_tampered

    def to_line(self) -> str:
        return compact_json(
            {
                "n": self.ordinal,
                "b": self.bucket,
                "c": self.country,
                "t": self.ts,
                "s": self.signature.value,
                "g": self.stage.value,
                "p": 1 if self.possibly_tampered else 0,
            }
        )

    @classmethod
    def from_line(cls, line: str) -> "WalEntry":
        data = json.loads(line)
        return cls(
            ordinal=data["n"],
            bucket=data["b"],
            country=data["c"],
            ts=data["t"],
            signature=SignatureId(data["s"]),
            stage=Stage(data["g"]),
            possibly_tampered=bool(data["p"]),
        )


class WriteAheadLog:
    """Per-bucket JSONL logs under ``<store>/wal/``."""

    def __init__(self, directory: str, sync_every: int = 64, obs=NULL_OBS) -> None:
        if sync_every < 1:
            raise StoreError("wal sync_every must be >= 1")
        self.directory = directory
        self.sync_every = sync_every
        os.makedirs(directory, exist_ok=True)
        self._handles: Dict[float, IO[str]] = {}
        self._dirty: Dict[float, bool] = {}
        self._since_sync = 0
        self.appends = 0
        self.syncs = 0
        self.obs = obs if obs is not None else NULL_OBS
        self._t_append = self.obs.timer("wal.append", sample=_APPEND_SAMPLE)
        self._t_fsync = self.obs.timer("wal.fsync")
        self._trace_rec = getattr(self.obs, "trace_recorder", None)

    # ------------------------------------------------------------------
    def _path(self, bucket: float) -> str:
        return os.path.join(self.directory, f"{WAL_PREFIX}{_bucket_token(bucket)}.jsonl")

    def append(self, entry: WalEntry) -> None:
        """Buffered append; fsyncs every ``sync_every`` appends."""
        # The span covers the serialise+write only; a triggered sync is
        # timed separately as wal.fsync so the two stages stay distinct
        # in the latency report.  A buffered append is a few
        # microseconds, so only every _APPEND_SAMPLE-th one is clocked
        # (weight-corrected histogram; ``self.appends`` stays exact).
        # A request-traced append (active context on the recorder) is
        # always clocked for its span tree, but feeds the weighted
        # histogram only on its regular stride.
        rec = self._trace_rec
        if rec is not None and rec.active is not None:
            start = time.perf_counter()
            self._append(entry)
            duration = time.perf_counter() - start
            if not (self.appends - 1) & (_APPEND_SAMPLE - 1):
                self._t_append.record(duration, start)
            rec.record_span("wal.append", start, duration)
        elif self.appends & (_APPEND_SAMPLE - 1):
            self._append(entry)
        else:
            with self._t_append:
                self._append(entry)
        if self._since_sync >= self.sync_every:
            self.sync()

    def _append(self, entry: WalEntry) -> None:
        handle = self._handles.get(entry.bucket)
        if handle is None:
            created = not os.path.exists(self._path(entry.bucket))
            handle = open(self._path(entry.bucket), "a")
            self._handles[entry.bucket] = handle
            if created:
                # The new log file's directory entry must be durable
                # before its contents can be.
                fsync_directory(self.directory)
        handle.write(entry.to_line() + "\n")
        self._dirty[entry.bucket] = True
        self.appends += 1
        self._since_sync += 1

    def sync(self) -> None:
        """Flush and fsync every dirty log file."""
        start = time.perf_counter()
        flushed = False
        for bucket, dirty in list(self._dirty.items()):
            if not dirty:
                continue
            handle = self._handles.get(bucket)
            if handle is None:
                continue
            handle.flush()
            os.fsync(handle.fileno())
            self._dirty[bucket] = False
            flushed = True
        if self._since_sync:
            self.syncs += 1
        self._since_sync = 0
        if flushed:
            # No-op syncs (checkpoint/seal boundaries with nothing
            # dirty) are not recorded; they are not fsync latency.
            duration = time.perf_counter() - start
            self._t_fsync.record(duration, start)
            rec = self._trace_rec
            if rec is not None and rec.active is not None:
                rec.record_span("wal.fsync", start, duration)

    def drop_bucket(self, bucket: float) -> None:
        """A sealed bucket needs no log; close and unlink it."""
        handle = self._handles.pop(bucket, None)
        if handle is not None:
            handle.close()
        self._dirty.pop(bucket, None)
        try:
            os.unlink(self._path(bucket))
        except FileNotFoundError:
            pass

    def close(self) -> None:
        self.sync()
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()
        self._dirty.clear()

    # ------------------------------------------------------------------
    def replay(self) -> List[WalEntry]:
        """All durable entries, in global ordinal order.

        A torn final line in a file (crash mid-append) is dropped; a
        torn line followed by more data is corruption and raises.
        """
        entries: List[WalEntry] = []
        for name in sorted(os.listdir(self.directory)):
            if not (name.startswith(WAL_PREFIX) and name.endswith(".jsonl")):
                continue
            path = os.path.join(self.directory, name)
            with open(path, "r") as fh:
                lines = fh.read().split("\n")
            for index, line in enumerate(lines):
                if not line.strip():
                    continue
                try:
                    entries.append(WalEntry.from_line(line))
                except (json.JSONDecodeError, KeyError, ValueError) as exc:
                    trailing = all(not later.strip() for later in lines[index + 1:])
                    if trailing:
                        break  # torn tail from a crash mid-append
                    raise StoreError(
                        f"corrupt WAL line {index + 1} in {path!r}: {exc}"
                    ) from exc
        entries.sort(key=lambda e: e.ordinal)
        return entries

    def rewrite(self, entries: Iterable[WalEntry]) -> None:
        """Replace every log with exactly ``entries`` (used on resume).

        Restoring a checkpoint truncates the WAL to the checkpoint's
        record count; entries past it describe records the engine will
        re-pull from the source, and keeping them would double-apply on
        the next replay.
        """
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()
        self._dirty.clear()
        self._since_sync = 0
        for name in list(os.listdir(self.directory)):
            if name.startswith(WAL_PREFIX) and name.endswith(".jsonl"):
                os.unlink(os.path.join(self.directory, name))
        by_bucket: Dict[float, List[WalEntry]] = {}
        for entry in entries:
            by_bucket.setdefault(entry.bucket, []).append(entry)
        for bucket, bucket_entries in by_bucket.items():
            bucket_entries.sort(key=lambda e: e.ordinal)
            with open(self._path(bucket), "w") as fh:
                for entry in bucket_entries:
                    fh.write(entry.to_line() + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        fsync_directory(self.directory)

    def bucket_files(self) -> List[Tuple[str, str]]:
        """(file name, path) of every log currently on disk."""
        out = []
        for name in sorted(os.listdir(self.directory)):
            if name.startswith(WAL_PREFIX) and name.endswith(".jsonl"):
                out.append((name, os.path.join(self.directory, name)))
        return out
