"""repro.store -- partitioned on-disk rollup storage.

The stream engine's durable tier: closed hour-buckets are sealed out of
memory into immutable, time-partitioned segment files; the open buckets
ride a write-ahead log; a background compactor merges small segments
under an atomically-swapped manifest; and a query engine answers the
batch-parity question families with time-range and country pushdown --
byte-for-byte equal to the batch analysis over the same records.  The
in-memory :class:`~repro.stream.rollup.StreamRollup` is the same
structure (a catalog plus bucket slices) without the disk.

See ``docs/data-formats.md`` for the on-disk formats and
``docs/architecture.md`` for the dataflow.
"""

from repro.store.catalog import KeyCatalog
from repro.store.compaction import (
    CHAOS_POINTS,
    CompactionChaos,
    CompactionConfig,
    Compactor,
)
from repro.store.manifest import MANIFEST_NAME, Manifest
from repro.store.query import QUERY_FAMILIES, QueryResult, StoreQuery
from repro.store.segment import (
    BucketSlice,
    Segment,
    SegmentMeta,
    load_segment,
    segment_file_name,
    write_segment,
)
from repro.store.store import RollupStore, StoreConfig
from repro.store.wal import WalEntry, WriteAheadLog

__all__ = [
    "KeyCatalog",
    "CHAOS_POINTS",
    "CompactionChaos",
    "CompactionConfig",
    "Compactor",
    "MANIFEST_NAME",
    "Manifest",
    "QUERY_FAMILIES",
    "QueryResult",
    "StoreQuery",
    "BucketSlice",
    "Segment",
    "SegmentMeta",
    "load_segment",
    "segment_file_name",
    "write_segment",
    "RollupStore",
    "StoreConfig",
    "WalEntry",
    "WriteAheadLog",
]
