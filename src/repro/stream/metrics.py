"""Cheap operational metrics for the streaming pipeline.

:class:`StreamMetrics` is a handful of integer counters and gauges --
nothing that allocates per sample -- snapshotted into the final report
and into every checkpoint.  It answers the questions an operator asks of
a live pipeline: how fast is it going (samples/s), how many windows
raised anomalies, and which source faults it absorbed.
"""

from __future__ import annotations

import time
from typing import Optional

__all__ = ["StreamMetrics"]


class StreamMetrics:
    """Counters and gauges; wall-clock rates derived on snapshot."""

    def __init__(self) -> None:
        self.samples_in = 0
        self.records_out = 0
        self.tampering_matches = 0
        self.checkpoints_written = 0
        self.anomaly_events = 0
        self.resumed_from = 0  # cursor position a resume started at
        self.source_retries = 0  # transient source errors absorbed
        self.duplicates_dropped = 0  # redelivered items discarded
        self._started: Optional[float] = None
        self._stopped: Optional[float] = None
        #: RollupStore.stats() snapshot, when the engine runs store-backed
        self.store_stats: Optional[dict] = None
        #: The engine's Observability layer (set by StreamEngine); its
        #: summary lands in snapshots under the "obs" key.
        self.obs = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started is None:
            self._started = time.monotonic()

    def stop(self) -> None:
        self._stopped = time.monotonic()

    @property
    def elapsed_seconds(self) -> float:
        if self._started is None:
            return 0.0
        end = self._stopped if self._stopped is not None else time.monotonic()
        return max(end - self._started, 0.0)

    # ------------------------------------------------------------------
    def on_sample_in(self) -> None:
        self.samples_in += 1

    def on_record_out(self, is_tampering: bool) -> None:
        self.records_out += 1
        if is_tampering:
            self.tampering_matches += 1

    # ------------------------------------------------------------------
    def samples_per_second(self) -> float:
        elapsed = self.elapsed_seconds
        return self.records_out / elapsed if elapsed > 0 else 0.0

    def snapshot(self) -> dict:
        """JSON-safe dump of every counter plus derived rates."""
        snap = {
            "samples_in": self.samples_in,
            "records_out": self.records_out,
            "tampering_matches": self.tampering_matches,
            "checkpoints_written": self.checkpoints_written,
            "anomaly_events": self.anomaly_events,
            "resumed_from": self.resumed_from,
            "source_retries": self.source_retries,
            "duplicates_dropped": self.duplicates_dropped,
            "elapsed_seconds": self.elapsed_seconds,
            "samples_per_second": self.samples_per_second(),
        }
        if self.store_stats is not None:
            snap["store"] = dict(self.store_stats)
        if self.obs is not None and getattr(self.obs, "enabled", False):
            snap["obs"] = self.obs.summary()
        return snap

    def render(self) -> str:
        """A short human-readable block for CLI output."""
        snap = self.snapshot()
        lines = [
            f"samples in / records out: {snap['samples_in']} / {snap['records_out']}",
            f"tampering matches: {snap['tampering_matches']}",
            f"throughput: {snap['samples_per_second']:,.0f} samples/s "
            f"over {snap['elapsed_seconds']:.2f}s",
            f"checkpoints written: {snap['checkpoints_written']}",
            f"anomaly events: {snap['anomaly_events']}",
        ]
        if self.source_retries or self.duplicates_dropped:
            lines.append(
                f"faults survived: {snap['source_retries']} source retries, "
                f"{snap['duplicates_dropped']} duplicates dropped"
            )
        if self.store_stats is not None:
            store = self.store_stats
            lines.append(
                f"store: {store['sealed_buckets']} sealed buckets in "
                f"{store['segments']} segments ({store['live_bytes']} bytes), "
                f"{store['open_buckets']} open, "
                f"{store['compaction_runs']} compactions"
            )
        return "\n".join(lines)
