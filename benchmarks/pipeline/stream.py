"""Run the offline pipeline as the benchmark's process under test.

The job ``repro stream FILE --store DIR`` runs (``StreamEngine`` over a
``JsonlSource``, inline classification, hourly buckets, no checkpoint),
plus ``geodb=World(GEO_SEED).geo`` so records get real countries.  Stdout:

* ``READY`` once the engine is built, before the first record is read;
* one JSON line: records processed, lines the source read, the
  monotonic time the source ended, and a stamp after every ``CHUNK``
  records;
* ``HWM <kib>``, the peak resident set, just before exit.

The source ends at end-of-file, or at the first stamp ``--max-seconds``
or more after the first read; the job then finishes as at end-of-file,
having read the first ``read`` lines of FILE.
``--ready-only`` exits right after ``READY`` (set-up timing).  With
``--trace DIR`` every layer is wrapped first (see ``ledger.py``) and
``DIR/spans.jsonl`` is written at exit.

    PYTHONPATH=src python benchmarks/pipeline/stream.py FILE --store DIR [--max-seconds S]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import ledger as ledger_mod
from server import GEO_SEED

#: Records read between two stamps.
CHUNK = 250


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("samples")
    parser.add_argument("--store", required=True)
    parser.add_argument("--max-seconds", type=float, default=float("inf"))
    parser.add_argument("--ready-only", action="store_true")
    parser.add_argument("--trace", help="write spans.jsonl into this directory")
    args = parser.parse_args(argv)

    ledger = extra = None
    if args.trace:
        ledger = ledger_mod.Ledger()
        extra = ledger_mod.instrument(ledger, serve=False)
    cpu0 = time.process_time()

    from repro.stream import JsonlSource, StreamEngine
    from repro.workloads.world import World

    stamps = []
    end = {}

    class ChunkClockSource(JsonlSource):
        def __iter__(self):
            start = time.monotonic()
            stamps.append(start)
            n = 0
            for n, item in enumerate(super().__iter__(), 1):
                yield item
                if not n % CHUNK:
                    now = time.monotonic()
                    stamps.append(now)
                    if now - start >= args.max_seconds:
                        break
            end.update(eof=time.monotonic(), read=n)

    engine = StreamEngine(
        ChunkClockSource(args.samples),
        geodb=World(seed=GEO_SEED).geo,
        bucket_seconds=3600.0,
        store_dir=args.store,
    )
    print("READY", flush=True)
    if args.ready_only:
        return 0
    report = engine.run()
    print(json.dumps({
        "records": report.samples_processed,
        "finished": report.finished,
        "read": end["read"],
        "eof": end["eof"],
        "stamps": stamps,
    }), flush=True)
    if ledger is not None:
        registry = engine.obs.registry
        extra.update(
            process_cpu=time.process_time() - cpu0,
            records_folded=engine._n_folded,
            cache_hits=registry.get("classify.cache_hits").value,
            cache_misses=registry.get("classify.cache_misses").value,
        )
        ledger.write(os.path.join(args.trace, "spans.jsonl"), extra)
    print(f"HWM {ledger_mod.vm_hwm_kb()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
