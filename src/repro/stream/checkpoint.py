"""Periodic JSON checkpoints of stream state.

A checkpoint captures everything needed to resume a killed stream with
no lost and no duplicated connections: the **source cursor** (what has
been consumed), the **rollup** (what has been aggregated, or the
store's open tail), the **detector state** (baselines and open
incidents), and the horizon through which windows have been fed to the
detector.

Checkpoints are written atomically and durably (fsync'd temp file +
``os.replace`` + an fsync of the containing directory, via
:func:`repro._util.atomic_write_json` -- the same discipline the store
manifest uses) so a kill mid-write leaves the previous checkpoint
intact, and carry a schema version so stale files fail loudly instead
of resuming garbage.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro._util import atomic_write_json
from repro.errors import CheckpointError

__all__ = ["CHECKPOINT_VERSION", "CheckpointManager"]

CHECKPOINT_VERSION = 1


class CheckpointManager:
    """Owns one checkpoint file; saves every ``interval`` samples."""

    def __init__(self, path: str, interval: int = 5000) -> None:
        if interval < 1:
            raise CheckpointError("checkpoint interval must be >= 1")
        self.path = path
        self.interval = interval
        self._last_saved_at = 0  # samples_done at last save

    # ------------------------------------------------------------------
    def due(self, samples_done: int) -> bool:
        return samples_done - self._last_saved_at >= self.interval

    def save(self, state: dict, samples_done: int) -> None:
        """Atomically and durably write ``state`` (adds the schema envelope)."""
        payload = {"version": CHECKPOINT_VERSION, "samples_done": samples_done}
        payload.update(state)
        atomic_write_json(self.path, payload)
        self._last_saved_at = samples_done

    def load(self) -> Optional[dict]:
        """Read the checkpoint; None when absent, raises when corrupt."""
        if not os.path.exists(self.path):
            return None
        try:
            with open(self.path, "r") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable checkpoint {self.path!r}: {exc}") from exc
        version = payload.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {self.path!r} has schema version {version!r}, "
                f"expected {CHECKPOINT_VERSION}"
            )
        self._last_saved_at = payload.get("samples_done", 0)
        return payload

    def clear(self) -> None:
        """Remove the checkpoint file (a completed stream needs none).

        Tolerates the file vanishing between the existence check and the
        unlink -- the kill9 drill's resumed engine and its supervisor can
        race to clean up the same checkpoint.
        """
        if os.path.exists(self.path):
            try:
                os.unlink(self.path)
            except FileNotFoundError:
                pass
        self._last_saved_at = 0
