"""CPU-speed probe: a fixed reference workload at idle priority.

This machine's CPU speed drifts by 10-30% over tens of seconds (a
shared host), which swamps run-to-run differences in every wall-clock
metric.  The probe runs beside the process under test under
``SCHED_IDLE``, so it only takes CPU that nothing else wants, and counts
how many fixed work units it completes per CPU-second of its own.
``run.py`` scales time metrics by that speed.

The work unit resembles the pipeline's own mix -- JSON decode, base64,
small tuples and dicts, a sort and a hash -- because contention slows
that mix more than a tight arithmetic loop.  It uses only the standard
library, so no change to the program under test can move it.

Appends ``<monotonic> <units> <thread cpu seconds>`` to FILE every 0.1 s
until it is terminated::

    python benchmarks/pipeline/speedprobe.py FILE
"""

from __future__ import annotations

import base64
import json
import os
import sys
import time

_DOC = json.dumps({
    "id": 1,
    "end": 12.5,
    "items": [
        {
            "ts": i * 1.5,
            "src": f"10.0.{i}.1",
            "flags": i % 7,
            "payload": base64.b64encode(bytes(range(5 * i))).decode(),
            "opts": [[2, "AAE="], [4, ""]],
        }
        for i in range(10)
    ],
})


def work_unit() -> int:
    """One fixed unit of pipeline-like Python work."""
    rows = []
    for _ in range(20):
        data = json.loads(_DOC)
        for item in data["items"]:
            rows.append((
                item["ts"], item["src"], item["flags"],
                base64.b64decode(item["payload"]),
                tuple(tuple(opt) for opt in item["opts"]),
            ))
    return hash(tuple(sorted((row[2], len(row[3])) for row in rows)))


def main() -> int:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    units, next_write = 0, 0.0
    with open(sys.argv[1], "a") as fh:
        while True:
            work_unit()
            units += 1
            now = time.monotonic()
            if now >= next_write:
                fh.write(f"{now} {units} {time.thread_time()}\n")
                fh.flush()
                next_write = now + 0.1


if __name__ == "__main__":
    sys.exit(main())
