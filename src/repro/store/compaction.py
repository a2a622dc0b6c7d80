"""Background compaction: merge small segments into larger partitions.

Sealing produces one level-0 segment per hour bucket, so a long-running
stream accumulates hundreds of small files and every wide query pays a
per-file open/parse cost.  The compactor merges them, size-tiered:
whenever a level holds ``trigger`` or more segments, the ``fanout``
oldest (by bucket range) are merged -- rows re-sorted by (bucket,
country), the unique-bucket invariant re-checked -- into one segment at
the next level, up to ``max_level``.

The merge is crash-safe by construction (see
:mod:`repro.store.manifest`): the merged file is written first, the
manifest swap is the commit point, and only then are the inputs
unlinked.  :class:`CompactionChaos` can SIGKILL the process at either
window -- after the merged segment is written but before the swap, or
after the swap but before the unlinks -- which is exactly what the
``store-compaction`` fire drill does to prove neither window can lose
or double-count a bucket.
"""

from __future__ import annotations

import dataclasses
import os
import signal
from typing import Dict, List, Optional

from repro.errors import StoreError
from repro.obs import NULL_OBS
from repro.store.manifest import Manifest
from repro.store.segment import BucketSlice, SegmentMeta, load_segment, write_segment

__all__ = ["CompactionConfig", "CompactionChaos", "Compactor"]

#: The two crash windows a chaotic compaction can die in.
CHAOS_POINTS = ("segment-written", "manifest-swapped")


@dataclasses.dataclass(frozen=True)
class CompactionConfig:
    """When and how aggressively to merge."""

    trigger: int = 8  # segments at one level before a merge fires
    fanout: int = 8  # segments merged per run
    max_level: int = 2  # merged segments never exceed this level

    def __post_init__(self) -> None:
        if self.trigger < 2:
            raise StoreError("compaction trigger must be >= 2")
        if self.fanout < 2:
            raise StoreError("compaction fanout must be >= 2")
        if self.max_level < 1:
            raise StoreError("compaction max_level must be >= 1")


@dataclasses.dataclass
class CompactionChaos:
    """Deterministic kill switch for the fire drill.

    SIGKILLs the calling process during compaction run number
    ``on_run`` (1-based), at ``point``: ``"segment-written"`` (merged
    file exists, manifest not yet swapped -- the orphan window) or
    ``"manifest-swapped"`` (swap committed, old segments not yet
    unlinked -- the stale-file window).
    """

    on_run: int = 1
    point: str = "manifest-swapped"

    def __post_init__(self) -> None:
        if self.point not in CHAOS_POINTS:
            raise StoreError(
                f"unknown chaos point {self.point!r}; expected one of {CHAOS_POINTS}"
            )
        if self.on_run < 1:
            raise StoreError("chaos on_run is 1-based")

    def maybe_kill(self, run: int, point: str) -> None:
        if run == self.on_run and point == self.point:
            os.kill(os.getpid(), signal.SIGKILL)


class Compactor:
    """Incremental size-tiered merging over a store's manifest."""

    def __init__(
        self,
        segments_dir: str,
        config: Optional[CompactionConfig] = None,
        chaos: Optional[CompactionChaos] = None,
        obs=NULL_OBS,
    ) -> None:
        self.segments_dir = segments_dir
        self.config = config or CompactionConfig()
        self.chaos = chaos
        self.obs = obs if obs is not None else NULL_OBS
        self._t_merge = self.obs.timer("compaction.merge")
        self.runs = 0
        self.segments_merged = 0
        self.bytes_written = 0

    # ------------------------------------------------------------------
    def due(self, manifest: Manifest) -> Optional[int]:
        """The lowest level with enough segments to merge, if any."""
        for level, metas in sorted(manifest.levels().items()):
            if level >= self.config.max_level:
                continue
            if len(metas) >= self.config.trigger:
                return level
        return None

    def run_once(self, manifest: Manifest) -> bool:
        """Merge one batch if due; returns True when a merge happened.

        Mutates ``manifest`` and swaps it to disk; the caller owns the
        manifest object and must keep using the mutated instance.
        """
        level = self.due(manifest)
        if level is None:
            return False
        with self._t_merge:
            return self._merge_level(manifest, level)

    def _merge_level(self, manifest: Manifest, level: int) -> bool:
        victims = sorted(
            manifest.levels()[level],
            key=lambda meta: (meta.min_bucket, meta.segment_id),
        )[: self.config.fanout]
        self.runs += 1
        run = self.runs

        merged: Dict[float, BucketSlice] = {}
        for meta in victims:
            segment = load_segment(self.segments_dir, meta)
            for bucket, slice_ in segment.slices.items():
                if bucket in merged:
                    # The manifest's unique-owner invariant makes this
                    # unreachable; merging anyway would double-count.
                    raise StoreError(
                        f"compaction found bucket {bucket} in two segments"
                    )
                merged[bucket] = slice_

        new_id = manifest.allocate_segment_id()
        new_meta = write_segment(
            self.segments_dir, new_id, level + 1, list(merged.values())
        )
        self.bytes_written += new_meta.size_bytes
        if self.chaos is not None:
            self.chaos.maybe_kill(run, "segment-written")

        victim_ids = {meta.segment_id for meta in victims}
        survivors = [
            meta for meta in manifest.segments if meta.segment_id not in victim_ids
        ]
        # Commit point; a failed swap leaves the victims live.
        manifest.save(os.path.dirname(self.segments_dir), survivors + [new_meta])
        if self.chaos is not None:
            self.chaos.maybe_kill(run, "manifest-swapped")

        for meta in victims:
            try:
                os.unlink(os.path.join(self.segments_dir, meta.name))
            except FileNotFoundError:
                pass
        self.segments_merged += len(victims)
        return True

    def run(self, manifest: Manifest, max_runs: int = 16) -> int:
        """Merge until nothing is due (bounded); returns runs performed."""
        performed = 0
        while performed < max_runs and self.run_once(manifest):
            performed += 1
        return performed
