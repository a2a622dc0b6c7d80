"""Periodic one-line progress reports for long-running stream jobs.

The engine calls :meth:`ProgressReporter.maybe_report` once per fold --
a monotonic-clock comparison and an early return in the common case --
and every ``interval_seconds`` the reporter emits one line built from
the live :class:`~repro.stream.metrics.StreamMetrics`::

    progress: 120,000 records | 14,900/s (interval 15,200/s) | 2 anomalies | 1 source retries

A callable sink (default: print to stderr) keeps the reporter testable
and lets the CLI redirect it.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional

__all__ = ["ProgressReporter"]


def _stderr_sink(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


class ProgressReporter:
    """Rate-limited progress lines driven by the engine's fold loop."""

    def __init__(
        self,
        interval_seconds: float = 5.0,
        sink: Optional[Callable[[str], None]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError("progress interval must be positive")
        self.interval_seconds = interval_seconds
        self.sink = sink or _stderr_sink
        self._clock = clock
        self._last_emit = clock()
        self._last_records = 0
        self.lines_emitted = 0

    def maybe_report(self, metrics) -> bool:
        """Emit a line if the interval elapsed; returns True if emitted."""
        now = self._clock()
        elapsed = now - self._last_emit
        if elapsed < self.interval_seconds:
            return False
        records = metrics.records_out
        interval_rate = (records - self._last_records) / elapsed if elapsed > 0 else 0.0
        parts = [
            f"progress: {records:,} records",
            f"{metrics.samples_per_second():,.0f}/s (interval {interval_rate:,.0f}/s)",
            f"{metrics.anomaly_events} anomalies",
        ]
        if metrics.source_retries:
            parts.append(f"{metrics.source_retries} source retries")
        self.sink(" | ".join(parts))
        self._last_emit = now
        self._last_records = records
        self.lines_emitted += 1
        return True
