"""Start the serve tier as the pipeline benchmark's process under test.

Builds ``ServeConfig()`` and ``ServeService`` exactly as ``repro serve``
does with its defaults (batch 256 / 50 ms, queue 8192, trace-sample 64,
grace 0, checkpoint every 5000 records), plus two things:

* ``geodb=World(GEO_SEED).geo``, so records get real countries, not ``??``;
* the real bound port, printed as ``PORT <n>`` on stdout once ready
  (``repro serve --port 0`` logs the requested port, not the bound one).

On SIGTERM the service drains and exits 0; the last stdout line is
``HWM <kib>``, the peak resident set.  With ``--trace DIR`` every layer
is wrapped first (see ``ledger.py``) and ``DIR/spans.jsonl`` is written
at exit.

    PYTHONPATH=src python benchmarks/pipeline/server.py --store DIR
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time

import ledger as ledger_mod

#: World seed of the record pool: ``run.py`` simulates the pool with it,
#: so the launchers must geolocate with the same World.
GEO_SEED = 7


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace", help="write spans.jsonl into this directory")
    args = parser.parse_args(argv)

    ledger = extra = None
    if args.trace:
        ledger = ledger_mod.Ledger()
        extra = ledger_mod.instrument(ledger, serve=True)
    cpu0 = time.process_time()

    from repro.serve import ServeConfig, ServeService
    from repro.workloads.world import World

    service = ServeService(
        args.store,
        config=ServeConfig(port=0),
        geodb=World(seed=GEO_SEED).geo,
        bucket_seconds=3600.0,
        checkpoint_interval=5000,
    )

    def announce() -> None:
        service.ready.wait()
        print(f"PORT {service.port}", flush=True)

    threading.Thread(target=announce, daemon=True).start()
    code = service.run()
    if ledger is not None:
        registry = service.obs.registry
        extra.update(
            process_cpu=time.process_time() - cpu0,
            records_folded=service.engine._n_folded,
            cache_hits=registry.get("classify.cache_hits").value,
            cache_misses=registry.get("classify.cache_misses").value,
        )
        ledger.write(os.path.join(args.trace, "spans.jsonl"), extra)
    print(f"HWM {ledger_mod.vm_hwm_kb()}", flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
