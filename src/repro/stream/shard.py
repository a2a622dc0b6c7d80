"""Sharded classification: a multiprocessing pool with ordered merge.

The classifier is stateless and CPU-bound, so it parallelises by
partitioning samples across N worker processes -- each running its own
:class:`~repro.core.classifier.TamperingClassifier` -- by a hash of
``conn_id``.  Three properties the stream engine depends on:

* **Ordered merge.**  Every sample gets a global sequence number on
  intake; completed records are re-merged through a heap so the output
  order equals the input order regardless of which shard ran first.
  Downstream rollups therefore see the exact arrival order, which keeps
  incremental aggregation bit-identical with the batch path.
* **Bounded in-flight work.**  The coordinator never lets more than
  ``max_inflight`` samples sit between submission and merge, so memory
  stays flat no matter how large the stream is (backpressure reaches
  all the way back to the source).
* **Worker supervision.**  If a worker process dies (OOM-killed,
  segfault, bug -- exit code 0 included: a cleanly-exited worker whose
  work is still in flight is just as fatal to the merge), the
  coordinator notices within a poll interval.  With a restart budget
  (``ShardConfig.max_restarts``) it respawns the worker and re-dispatches
  every batch that was never acknowledged -- safe because classification
  is stateless and the ordered merge dedupes by sequence number --
  otherwise it raises :class:`~repro.errors.StreamError` instead of
  hanging on a queue forever.

:class:`WorkerChaos` is the deterministic fault hook for all of the
above: it arranges for one chosen worker to die (SIGKILL or clean exit)
after a chosen number of batches, so the supervision and shutdown paths
can be exercised in tests and ``repro stream --drill`` runs instead of
being discovered in production.

Workers return slim :class:`StreamRecord` values, not full
:class:`~repro.core.classifier.ClassificationResult` objects: shipping
the packets back across the process boundary would roughly double IPC
for fields the rollup never reads.
"""

from __future__ import annotations

import dataclasses
import heapq
import multiprocessing
import os
import queue as queue_module
import signal
import time
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.cdn.collector import ConnectionSample
from repro.core.classifier import ClassificationResult, ClassifierConfig, TamperingClassifier
from repro.core.model import SignatureId, Stage
from repro.errors import StreamError
from repro.obs import NULL_OBS
from repro.stream.source import StreamItem

__all__ = [
    "StreamRecord",
    "ShardConfig",
    "ShardedClassifierPool",
    "WorkerChaos",
    "shard_of",
    "serial_records",
]

#: Knuth multiplicative hash constant (32-bit golden ratio).
_HASH_MULT = 0x9E3779B1


def shard_of(conn_id: int, n_shards: int) -> int:
    """Stable shard assignment for a connection id."""
    return ((conn_id * _HASH_MULT) & 0xFFFFFFFF) % n_shards


@dataclasses.dataclass(frozen=True)
class StreamRecord:
    """A classified connection, reduced to what aggregation reads.

    This is the unit that crosses the worker/coordinator boundary and
    feeds :class:`~repro.stream.rollup.StreamRollup`; ``country``/``asn``
    are filled in by the engine (geolocation stays in the coordinator so
    workers never need the world model).
    """

    seq: int
    conn_id: int
    signature: SignatureId
    stage: Stage
    possibly_tampered: bool
    client_ip: str
    ip_version: int
    server_port: int
    ts: float
    country: str = "??"
    asn: int = -1
    #: Decision detail carried for batch-parity consumers
    #: (:meth:`~repro.core.classifier.TamperingClassifier.classify_batch`);
    #: the rollup never reads these, and they are two scalars, so the IPC
    #: cost is negligible.
    silence_gap: float = 0.0
    n_data_segments: int = 0

    @classmethod
    def from_result(
        cls,
        result: ClassificationResult,
        seq: int,
        ts: Optional[float] = None,
        country: str = "??",
        asn: int = -1,
    ) -> "StreamRecord":
        sample = result.sample
        if ts is None:
            ts = min((p.ts for p in sample.packets), default=0.0)
        return cls(
            seq=seq,
            conn_id=sample.conn_id,
            signature=result.signature,
            stage=result.stage,
            possibly_tampered=result.possibly_tampered,
            client_ip=sample.client_ip,
            ip_version=sample.ip_version,
            server_port=sample.server_port,
            ts=ts,
            country=country,
            asn=asn,
            silence_gap=result.silence_gap,
            n_data_segments=result.n_data_segments,
        )

    def located(self, country: str, asn: int) -> "StreamRecord":
        return dataclasses.replace(self, country=country, asn=asn)

    @property
    def is_tampering(self) -> bool:
        return self.signature.is_tampering


@dataclasses.dataclass(frozen=True)
class ShardConfig:
    """Pool tunables."""

    n_workers: int = 2
    batch_size: int = 64
    max_inflight: int = 4096
    queue_depth: int = 8  # batches buffered per worker input queue
    poll_seconds: float = 0.2  # worker-liveness poll while waiting
    join_seconds: float = 5.0  # graceful-shutdown patience
    max_restarts: int = 0  # dead workers respawned before giving up

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise StreamError("n_workers must be >= 1")
        if self.batch_size < 1:
            raise StreamError("batch_size must be >= 1")
        if self.max_inflight < self.batch_size:
            raise StreamError("max_inflight must be >= batch_size")
        if self.max_restarts < 0:
            raise StreamError("max_restarts must be >= 0")


@dataclasses.dataclass(frozen=True)
class WorkerChaos:
    """Planned death of one worker: the pool's fault-injection hook.

    The chosen worker completes ``after_batches`` batches, then dies
    while holding its next batch -- either abruptly (``kill9``, as an
    OOM kill would) or by exiting cleanly with code 0 (``exit0``, the
    sneaky variant: nothing looks wrong except that work the merge is
    waiting for died with it).  Fires at most once; a respawned
    replacement is healthy.
    """

    worker_id: int = 0
    after_batches: int = 1
    mode: str = "kill9"

    def __post_init__(self) -> None:
        if self.mode not in ("kill9", "exit0"):
            raise StreamError(f"unknown chaos mode {self.mode!r}")
        if self.worker_id < 0:
            raise StreamError("chaos worker_id must be >= 0")
        if self.after_batches < 0:
            raise StreamError("chaos after_batches must be >= 0")


def _worker_main(worker_id, config_blob, in_queue, out_queue, chaos=None):
    """Worker process body: classify batches until the None sentinel."""
    classifier = TamperingClassifier(config_blob)
    batches_done = 0
    while True:
        task = in_queue.get()
        if task is None:
            break
        if chaos is not None and batches_done >= chaos.after_batches:
            # The planned accident: die holding an unfinished batch, so
            # the coordinator must notice and re-dispatch it.
            if chaos.mode == "kill9":
                os.kill(os.getpid(), signal.SIGKILL)
            return  # exit0: clean-but-early death
        batch_id, rows = task
        try:
            began = time.monotonic()
            hits_before = classifier.cache_hits
            misses_before = classifier.cache_misses
            records = []
            for seq, ts, sample in rows:
                result = classifier.classify(sample)
                records.append(StreamRecord.from_result(result, seq=seq, ts=ts))
            # The trailing hit/miss deltas let the coordinator aggregate
            # cache behaviour across processes without extra IPC.
            out_queue.put(
                (
                    "ok",
                    worker_id,
                    batch_id,
                    records,
                    time.monotonic() - began,
                    classifier.cache_hits - hits_before,
                    classifier.cache_misses - misses_before,
                )
            )
            batches_done += 1
        except BaseException as exc:  # surface, don't hang the merge
            out_queue.put(("error", worker_id, batch_id, repr(exc), 0.0))
            break


class ShardedClassifierPool:
    """Partition samples across worker processes; merge results in order.

    Usage::

        with ShardedClassifierPool(ShardConfig(n_workers=4)) as pool:
            for record in pool.process(items):
                ...

    ``process`` is a generator: it submits upstream items lazily (pulling
    from the source only when in-flight room exists) and yields
    :class:`StreamRecord` values in global sequence order.
    """

    def __init__(
        self,
        config: Optional[ShardConfig] = None,
        classifier_config: Optional[ClassifierConfig] = None,
        chaos: Optional[WorkerChaos] = None,
        obs=NULL_OBS,
    ) -> None:
        self.config = config or ShardConfig()
        self.classifier_config = classifier_config or ClassifierConfig()
        self.chaos = chaos
        self.obs = obs if obs is not None else NULL_OBS
        self._t_dispatch = self.obs.timer("shard.dispatch")
        self._t_collect = self.obs.timer("shard.collect")
        self._h_batch = self.obs.histogram("classify.batch")
        self._c_cache_hits = self.obs.counter("classify.cache_hits")
        self._c_cache_misses = self.obs.counter("classify.cache_misses")
        self._c_restarts = self.obs.counter("worker.restarts")
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._ctx = multiprocessing.get_context("spawn")
        self._workers: List[multiprocessing.Process] = []
        self._in_queues: List[multiprocessing.Queue] = []
        self._out_queue: Optional[multiprocessing.Queue] = None
        self._started = False
        self._closed = False
        #: Per worker: batch_id -> rows submitted but not yet acknowledged
        #: by an "ok" message.  This is the re-dispatch ledger: everything
        #: a dead worker owes the merge is here.
        self._unacked: List[Dict[int, list]] = []
        self._next_batch_id = 0
        #: Busy seconds and record counts per worker (metrics reads these).
        self.worker_busy: Dict[int, float] = {}
        self.worker_records: Dict[int, int] = {}
        #: Supervision and shutdown outcomes (metrics/drills read these).
        self.restarts = 0
        self.worker_restarts: Dict[int, int] = {}
        self.forced_terminations = 0
        self.drained_on_close = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, worker_id: int, chaos: Optional[WorkerChaos]):
        in_queue = self._ctx.Queue(maxsize=self.config.queue_depth)
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, self.classifier_config, in_queue, self._out_queue, chaos),
            daemon=True,
            name=f"repro-shard-{worker_id}",
        )
        process.start()
        return process, in_queue

    def start(self) -> None:
        if self._started:
            return
        self._out_queue = self._ctx.Queue()
        for worker_id in range(self.config.n_workers):
            chaos = (
                self.chaos
                if self.chaos is not None and self.chaos.worker_id == worker_id
                else None
            )
            process, in_queue = self._spawn(worker_id, chaos)
            self._in_queues.append(in_queue)
            self._workers.append(process)
            self._unacked.append({})
            self.worker_busy[worker_id] = 0.0
            self.worker_records[worker_id] = 0
        self._started = True

    def close(self) -> None:
        """Graceful drain: sentinel every live worker, join, then escalate.

        A busy worker's input queue can be full, so the shutdown
        sentinel is retried until it fits (the worker is draining that
        queue) instead of being dropped on the floor -- dropping it
        meant every busy shutdown stalled ``join_seconds`` and ended in
        ``terminate()``.  While retrying, the output queue is drained
        and discarded so worker feeder threads can always make progress.
        """
        if self._closed:
            return
        self._closed = True
        deadline = time.monotonic() + self.config.join_seconds
        pending = [
            worker_id
            for worker_id in range(len(self._workers))
            if self._workers[worker_id].is_alive()
        ]
        while pending:
            still_pending = []
            for worker_id in pending:
                if not self._workers[worker_id].is_alive():
                    continue  # dead workers need no sentinel
                try:
                    self._in_queues[worker_id].put_nowait(None)
                except queue_module.Full:
                    still_pending.append(worker_id)
            pending = still_pending
            if not pending or time.monotonic() >= deadline:
                break
            self._discard_output()
            time.sleep(min(0.01, self.config.poll_seconds))
        while any(process.is_alive() for process in self._workers):
            if time.monotonic() >= deadline:
                break
            # Keep the output pipe moving while workers flush and exit,
            # or their feeder threads could hang the exit itself.
            self._discard_output()
            time.sleep(min(0.01, self.config.poll_seconds))
        for process in self._workers:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
        for process in self._workers:
            if process.is_alive():
                self.forced_terminations += 1
                process.terminate()
                process.join(timeout=1.0)
        for in_queue in self._in_queues:
            in_queue.close()
            in_queue.cancel_join_thread()
        if self._out_queue is not None:
            self._out_queue.close()
            self._out_queue.cancel_join_thread()

    def _discard_output(self) -> None:
        """Throw away completed batches nobody will merge (closing)."""
        if self._out_queue is None:
            return
        while True:
            try:
                self._out_queue.get_nowait()
            except (queue_module.Empty, OSError, ValueError):
                return
            self.drained_on_close += 1

    def __enter__(self) -> "ShardedClassifierPool":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_workers(self) -> None:
        """Supervise: restart dead workers, or fail loudly.

        Only the waiting loops (submit backpressure, merge collection)
        call this, so whenever it runs the pool still owes records
        downstream -- a dead worker here is fatal *regardless of exit
        code*: a worker that exited 0 early took in-flight work to the
        grave just as surely as a segfault.  Within the restart budget
        the worker is respawned and its unacknowledged batches are
        re-dispatched; classification is stateless and the ordered merge
        dedupes by sequence number, so redone work is invisible
        downstream.
        """
        for worker_id, process in enumerate(self._workers):
            if process.is_alive():
                continue
            if self.restarts < self.config.max_restarts:
                self._restart_worker(worker_id)
            else:
                raise StreamError(
                    f"worker {process.name} died with exit code "
                    f"{process.exitcode} while {len(self._unacked[worker_id])} "
                    f"batch(es) were unacknowledged"
                )

    def _restart_worker(self, worker_id: int) -> None:
        dead = self._workers[worker_id]
        dead.join(timeout=1.0)
        old_queue = self._in_queues[worker_id]
        old_queue.close()
        old_queue.cancel_join_thread()
        self.restarts += 1
        self.worker_restarts[worker_id] = self.worker_restarts.get(worker_id, 0) + 1
        self._c_restarts.inc()
        self.obs.event(
            "worker.restart",
            worker_id=worker_id,
            exitcode=dead.exitcode,
            unacked_batches=len(self._unacked[worker_id]),
        )
        # The replacement never inherits chaos, or a planned death would
        # loop until the restart budget burned out.
        process, in_queue = self._spawn(worker_id, chaos=None)
        self._workers[worker_id] = process
        self._in_queues[worker_id] = in_queue
        for batch_id in sorted(self._unacked[worker_id]):
            task = (batch_id, self._unacked[worker_id][batch_id])
            while True:
                try:
                    in_queue.put(task, timeout=self.config.poll_seconds)
                    break
                except queue_module.Full:
                    if not process.is_alive():
                        raise StreamError(
                            f"worker {process.name} died again immediately "
                            f"after a restart; giving up on re-dispatch"
                        )

    def _submit(self, worker_id: int, rows: list) -> None:
        """Blocking put with liveness checks (bounded queue = backpressure)."""
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        task = (batch_id, rows)
        # The span covers backpressure waits too: a full input queue is
        # dispatch latency the operator should see.
        with self._t_dispatch:
            while True:
                try:
                    self._in_queues[worker_id].put(
                        task, timeout=self.config.poll_seconds
                    )
                    self._unacked[worker_id][batch_id] = rows
                    return
                except queue_module.Full:
                    self._check_workers()

    def _collect_one(self, block: bool) -> Optional[Tuple[int, List[StreamRecord]]]:
        """Pull one completed batch off the output queue."""
        assert self._out_queue is not None
        start = time.perf_counter()
        while True:
            try:
                message = self._out_queue.get(
                    timeout=self.config.poll_seconds if block else 0.001
                )
            except queue_module.Empty:
                if not block:
                    return None
                self._check_workers()
                continue
            # "ok" messages grew trailing cache-delta fields; slicing
            # keeps "error" messages (and any old 5-tuples) working.
            kind, worker_id, batch_id, payload, busy = message[:5]
            if kind == "error":
                raise StreamError(f"worker {worker_id} failed: {payload}")
            # Only a delivered batch is a collection; empty non-blocking
            # polls are not latency anyone waited on.
            self._t_collect.record(time.perf_counter() - start, start)
            self._h_batch.observe(busy)
            if len(message) > 6:
                self._c_cache_hits.inc(message[5])
                self._c_cache_misses.inc(message[6])
            self._unacked[worker_id].pop(batch_id, None)
            self.worker_busy[worker_id] += busy
            self.worker_records[worker_id] += len(payload)
            return worker_id, payload

    # ------------------------------------------------------------------
    # The pipeline
    # ------------------------------------------------------------------
    def process(self, items: Iterable[StreamItem]) -> Iterator[StreamRecord]:
        """Classify a stream of items; yield records in input order."""
        if not self._started:
            self.start()
        if self._closed:
            raise StreamError("pool is closed")

        config = self.config
        pending: List[List] = [[] for _ in range(config.n_workers)]
        heap: List[Tuple[int, StreamRecord]] = []
        heaped: Set[int] = set()  # seqs currently in the heap
        next_seq = 0  # next sequence number to hand out
        emit_seq = 0  # next sequence number to yield
        iterator = iter(items)
        exhausted = False

        def flush_shard(worker_id: int) -> None:
            if pending[worker_id]:
                self._submit(worker_id, pending[worker_id])
                pending[worker_id] = []

        def absorb(batch: List[StreamRecord]) -> None:
            for record in batch:
                if record.seq < emit_seq or record.seq in heaped:
                    # Re-dispatched batch whose original "ok" also
                    # arrived (worker died after sending it): the merge
                    # dedupes by seq, so restarts stay exactly-once.
                    continue
                heaped.add(record.seq)
                heapq.heappush(heap, (record.seq, record))

        while True:
            inflight = next_seq - emit_seq
            # Pull input while there is room for a whole batch.
            if not exhausted and inflight < config.max_inflight:
                try:
                    item = next(iterator)
                except StopIteration:
                    exhausted = True
                    for worker_id in range(config.n_workers):
                        flush_shard(worker_id)
                else:
                    worker_id = shard_of(item.sample.conn_id, config.n_workers)
                    pending[worker_id].append(
                        (next_seq, item.ts, item.sample)
                    )
                    next_seq += 1
                    if len(pending[worker_id]) >= config.batch_size:
                        flush_shard(worker_id)
                    continue

            if exhausted and emit_seq == next_seq:
                break

            # Saturated (or drained input): everything still pending must
            # be on a worker queue before blocking, or the merge could
            # wait on a sequence number no worker has ever seen.
            for worker_id in range(config.n_workers):
                flush_shard(worker_id)
            collected = self._collect_one(block=True)
            if collected is not None:
                absorb(collected[1])
            # Opportunistically drain whatever else is ready.
            while True:
                more = self._collect_one(block=False)
                if more is None:
                    break
                absorb(more[1])
            while heap and heap[0][0] == emit_seq:
                _, record = heapq.heappop(heap)
                heaped.discard(record.seq)
                emit_seq += 1
                yield record

    def map_samples(
        self,
        samples: Iterable[ConnectionSample],
        timestamps: Optional[Dict[int, float]] = None,
    ) -> List[StreamRecord]:
        """Classify a batch of bare samples; records in input order."""
        timestamps = timestamps or {}
        items = (
            StreamItem(sample=s, ts=timestamps.get(s.conn_id)) for s in samples
        )
        return list(self.process(items))


def serial_records(
    samples: Iterable[ConnectionSample],
    timestamps: Optional[Dict[int, float]] = None,
    classifier: Optional[TamperingClassifier] = None,
) -> List[StreamRecord]:
    """The single-process reference path: classify in order, no pool.

    Exists so parity tests and the engine's ``n_workers=0`` mode share
    one code path with identical record construction.
    """
    classifier = classifier or TamperingClassifier()
    timestamps = timestamps or {}
    out: List[StreamRecord] = []
    for seq, sample in enumerate(samples):
        result = classifier.classify(sample)
        out.append(
            StreamRecord.from_result(
                result, seq=seq, ts=timestamps.get(sample.conn_id)
            )
        )
    return out
