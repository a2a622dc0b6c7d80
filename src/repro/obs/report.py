"""Render a stage-latency / bottleneck report from an ``--obs`` export.

``repro stream --obs DIR`` leaves three files behind (``metrics.json``,
``metrics.prom``, ``spans.jsonl``); ``repro obs DIR`` reads them back
and answers the operator question "where did the time go": per-stage
call counts, p50/p99 latencies reconstructed from the exported
histogram buckets, total busy seconds, and the share of measured time
each stage accounts for.  The stage with the largest total busy time is
flagged as the bottleneck.

Stages nest (``rollup.fold`` contains ``wal.append`` and
``segment.seal``), so shares are of
*measured span time*, not wall time, and can legitimately sum past
100%.  The report is about ranking, not accounting identities.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Dict, List, Optional

from repro.core.report import render_table
from repro.errors import ReproError
from repro.obs.registry import percentile_from_buckets

__all__ = ["ObsExport", "load_export", "stage_rows", "render_obs_report"]


@dataclasses.dataclass
class ObsExport:
    """Parsed contents of an ``--obs`` export directory."""

    directory: str
    metrics: Dict[str, object]
    spans: List[Dict[str, object]]

    @property
    def histograms(self) -> Dict[str, dict]:
        return self.metrics.get("histograms", {})

    @property
    def counters(self) -> Dict[str, int]:
        return self.metrics.get("counters", {})

    @property
    def gauges(self) -> Dict[str, float]:
        return self.metrics.get("gauges", {})

    def events(self, name: Optional[str] = None) -> List[Dict[str, object]]:
        return [
            span
            for span in self.spans
            if span.get("kind") == "event"
            and (name is None or span.get("name") == name)
        ]


def load_export(directory: str) -> ObsExport:
    """Read an export directory written by ``Observability.export``."""
    metrics_path = os.path.join(directory, "metrics.json")
    if not os.path.isfile(metrics_path):
        raise ReproError(
            f"no metrics.json under {directory!r}; "
            "expected a directory written by `repro stream --obs DIR`"
        )
    with open(metrics_path, "r", encoding="utf-8") as handle:
        metrics = json.load(handle)
    spans: List[Dict[str, object]] = []
    spans_path = os.path.join(directory, "spans.jsonl")
    if os.path.isfile(spans_path):
        with open(spans_path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    spans.append(json.loads(line))
    return ObsExport(directory=directory, metrics=metrics, spans=spans)


def stage_rows(export: ObsExport) -> List[Dict[str, object]]:
    """Per-stage latency summaries, sorted by total busy time (desc)."""
    rows: List[Dict[str, object]] = []
    total_measured = sum(
        hist.get("sum", 0.0) for hist in export.histograms.values()
    )
    for name, hist in export.histograms.items():
        count = hist.get("count", 0)
        if not count:
            continue
        bounds = hist.get("bounds", [])
        counts = hist.get("counts", [])
        busy = hist.get("sum", 0.0)
        rows.append(
            {
                "stage": name,
                "count": count,
                "p50_us": percentile_from_buckets(bounds, counts, 50.0) * 1e6,
                "p99_us": percentile_from_buckets(bounds, counts, 99.0) * 1e6,
                "mean_us": busy / count * 1e6,
                "total_s": busy,
                "share_pct": 100.0 * busy / total_measured if total_measured else 0.0,
            }
        )
    rows.sort(key=lambda row: (-row["total_s"], row["stage"]))
    return rows


def render_obs_report(export: ObsExport, top_counters: int = 12) -> str:
    """The human-readable ``repro obs`` output."""
    blocks: List[str] = []
    rows = stage_rows(export)
    if rows:
        table = [
            [
                row["stage"],
                row["count"],
                f"{row['p50_us']:.1f}",
                f"{row['p99_us']:.1f}",
                f"{row['mean_us']:.1f}",
                f"{row['total_s']:.3f}",
                f"{row['share_pct']:.1f}%",
            ]
            for row in rows
        ]
        blocks.append(
            render_table(
                ["stage", "count", "p50_us", "p99_us", "mean_us", "total_s", "share"],
                table,
                title="Stage latencies",
            )
        )
        top = rows[0]
        blocks.append(
            f"bottleneck: {top['stage']} "
            f"({top['total_s']:.3f}s busy, {top['share_pct']:.1f}% of measured span time, "
            f"p99 {top['p99_us']:.1f}us over {top['count']} calls)"
        )
    else:
        blocks.append("no stage histograms recorded")

    counters = [
        (name, value) for name, value in sorted(export.counters.items()) if value
    ]
    if counters:
        counters.sort(key=lambda kv: (-kv[1], kv[0]))
        blocks.append(
            render_table(
                ["counter", "value"],
                [[name, value] for name, value in counters[:top_counters]],
                title="Counters",
            )
        )

    events = export.events()
    if events:
        by_name: Dict[str, int] = {}
        for event in events:
            by_name[event["name"]] = by_name.get(event["name"], 0) + 1
        blocks.append(
            render_table(
                ["event", "count"],
                [[name, n] for name, n in sorted(by_name.items())],
                title="Lifecycle events (ring window)",
            )
        )

    span_stats = export.metrics.get("spans", {})
    if span_stats:
        blocks.append(
            "spans: {recorded} in ring (capacity {capacity}), "
            "{total_spans} recorded in total, {total_events} events".format(
                **{
                    "recorded": span_stats.get("recorded", 0),
                    "capacity": span_stats.get("capacity", 0),
                    "total_spans": span_stats.get("total_spans", 0),
                    "total_events": span_stats.get("total_events", 0),
                }
            )
        )
    return "\n\n".join(blocks)
