"""Command-line interface: ``repro-tamper`` / ``python -m repro``.

Subcommands:

* ``simulate`` -- run a study and write samples to JSONL (optionally pcap).
* ``classify`` -- classify a JSONL sample file and print per-signature counts.
* ``report`` -- run a study and print the headline analyses (Table 1
  statistics, per-country rates, top categories).
* ``evidence`` -- print IP-ID/TTL injection evidence for a sample file.
* ``radar`` -- export privacy-preserving aggregates (the paper's data-
  sharing commitment), suppressing small cells.
* ``fingerprints`` -- cluster device fingerprints in a sample file.
* ``profiles`` -- export the built-in country profiles as editable JSON.
* ``signatures`` -- print the Table 1 signature catalogue.
* ``stream`` -- run the online pipeline: serial classification,
  incremental rollups, live anomaly detection, kill-safe checkpoints,
  and (with ``--store``) durable partitioned rollup storage.
* ``query`` -- answer the batch-parity question families from a
  ``--store`` directory, with time-range and country pushdown.
* ``obs`` -- render the per-stage latency / bottleneck report from a
  ``stream --obs`` export (metrics.json + spans.jsonl).
* ``trace`` -- reconstruct sampled request span trees from an export's
  spans.jsonl and print each slow request's critical path (queue wait
  vs. fold vs. fsync) with per-hop self time.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from typing import List, Optional

from repro.cdn.collector import read_samples_jsonl, write_samples_jsonl
from repro.core.classifier import TamperingClassifier
from repro.core.model import SIGNATURES
from repro.core.report import render_table
from repro.netstack.pcap import write_pcap
from repro.workloads.scenarios import iran_protest_study, two_week_study

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tamper",
        description="Passive connection-tampering detection (SIGCOMM 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a study and persist the samples")
    sim.add_argument("--connections", "-n", type=int, default=2000)
    sim.add_argument("--seed", type=int, default=7)
    sim.add_argument("--scenario", choices=("two-week", "iran"), default="two-week")
    sim.add_argument("--profiles", help="JSON file of country profiles (two-week scenario only)")
    sim.add_argument("--out", "-o", required=True, help="output JSONL path")
    sim.add_argument("--pcap", help="also write all sampled packets to this pcap")

    cls = sub.add_parser("classify", help="classify a JSONL sample file")
    cls.add_argument("samples", help="input JSONL path")
    cls.add_argument("--inactivity", type=float, default=3.0)
    cls.add_argument("--no-cache", action="store_true",
                     help="disable the feature-key memo (uncached reference path)")
    cls.add_argument("--cache-size", type=int, default=None,
                     help="feature-key memo entries per classifier (default 4096)")

    rep = sub.add_parser("report", help="run a study and print headline analyses")
    rep.add_argument("--connections", "-n", type=int, default=2000)
    rep.add_argument("--seed", type=int, default=7)

    evd = sub.add_parser("evidence", help="IP-ID/TTL injection evidence for a JSONL sample file")
    evd.add_argument("samples", help="input JSONL path")

    radar = sub.add_parser("radar", help="run a study and export privacy-safe aggregates")
    radar.add_argument("--connections", "-n", type=int, default=2000)
    radar.add_argument("--seed", type=int, default=7)
    radar.add_argument("--min-cell", type=int, default=20)
    radar.add_argument("--out", "-o", required=True, help="output JSON path")

    fng = sub.add_parser("fingerprints", help="cluster device fingerprints in a JSONL sample file")
    fng.add_argument("samples", help="input JSONL path")
    fng.add_argument("--min-count", type=int, default=2)

    profiles = sub.add_parser("profiles", help="export the built-in country profiles as JSON")
    profiles.add_argument("--out", "-o", required=True, help="output JSON path")

    sub.add_parser("signatures", help="print the Table 1 signature catalogue")

    stream = sub.add_parser("stream", help="run the online streaming pipeline")
    stream.add_argument("samples", nargs="?", default=None,
                        help="JSONL file or directory to replay "
                             "(default: simulate --scenario live)")
    stream.add_argument("--scenario", choices=("two-week", "iran"), default="two-week")
    stream.add_argument("--connections", "-n", type=int, default=2000)
    stream.add_argument("--seed", type=int, default=7)
    stream.add_argument("--no-cache", action="store_true",
                        help="disable the classifier feature-key memo")
    stream.add_argument("--bucket-seconds", type=float, default=3600.0)
    stream.add_argument("--checkpoint", help="checkpoint JSON path (enables kill-safe resume)")
    stream.add_argument("--checkpoint-interval", type=int, default=5000)
    stream.add_argument("--resume", action="store_true",
                        help="resume from the checkpoint file")
    stream.add_argument("--max-samples", type=int, default=None,
                        help="stop after this many connections (for drills)")
    stream.add_argument("--fault-plan",
                        help="JSON fault-plan file (see FaultPlan.to_dict); "
                             "wraps the source in FaultySource")
    stream.add_argument("--store",
                        help="rollup store directory: seal closed hour "
                             "buckets to partitioned segments on disk "
                             "(shrinks checkpoints to the open tail)")
    stream.add_argument("--drill",
                        choices=("flaky-source", "kill9-resume",
                                 "store-compaction"),
                        help="run a fire drill under fault injection and "
                             "assert rollup parity with a clean run")
    stream.add_argument("--obs",
                        help="export observability data (metrics.json, "
                             "metrics.prom, spans.jsonl) to this directory; "
                             "inspect with: repro obs DIR")
    stream.add_argument("--trace-sample", type=int, default=0, metavar="N",
                        help="head-sample 1 in N connections for end-to-end "
                             "span trees (0 = off); "
                             "inspect with: repro trace OBS_DIR")
    stream.add_argument("--progress", type=float, default=None, metavar="SECONDS",
                        help="print a progress line to stderr every N seconds")

    obs = sub.add_parser(
        "obs", help="stage-latency / bottleneck report from a stream --obs export"
    )
    obs.add_argument("export", help="directory written by stream --obs")
    obs.add_argument("--json", action="store_true",
                     help="emit per-stage summaries as JSON instead of tables")

    trace = sub.add_parser(
        "trace",
        help="span-tree / critical-path report from an --obs export "
             "with tracing enabled",
    )
    trace.add_argument("export", help="directory written by stream/serve --obs")
    trace.add_argument("--top", type=int, default=5,
                       help="show the N slowest traces (default 5)")
    trace.add_argument("--trace", dest="trace_id", default=None,
                       help="show only this trace id (as echoed in the "
                            "traceparent response header or /metrics "
                            "exemplars)")
    trace.add_argument("--json", action="store_true",
                       help="emit the span trees as JSON instead of text")

    query = sub.add_parser(
        "query", help="answer batch-parity questions from a rollup store"
    )
    query.add_argument("store", help="store directory written by stream --store")
    query.add_argument("--family",
                       choices=("country_tampering_rate", "timeseries",
                                "signature_hour_counts", "stage_statistics"),
                       default="country_tampering_rate")
    query.add_argument("--start", type=float, default=None,
                       help="include buckets starting at or after this unix ts")
    query.add_argument("--end", type=float, default=None,
                       help="include buckets starting strictly before this unix ts")
    query.add_argument("--country",
                       help="country for signature_hour_counts")
    query.add_argument("--countries",
                       help="comma-separated country filter "
                            "(country-keyed families)")
    query.add_argument("--json", action="store_true",
                       help="emit the raw result as JSON instead of a table")

    serve = sub.add_parser(
        "serve",
        help="run the HTTP ingest/query service over a rollup store",
    )
    serve.add_argument("--store", required=True,
                       help="store directory (created if missing); also "
                            "holds the serve checkpoint")
    serve.add_argument("--obs",
                       help="export observability data to this directory "
                            "on drain; inspect with: repro obs DIR")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321,
                       help="listen port (0 = pick a free port)")
    serve.add_argument("--batch-records", type=int, default=256,
                       help="micro-batch flush size")
    serve.add_argument("--batch-delay", type=float, default=0.05,
                       help="micro-batch flush deadline in seconds")
    serve.add_argument("--queue-records", type=int, default=8192,
                       help="admission control: max records queued before "
                            "ingest answers 429")
    serve.add_argument("--rate", type=float, default=0.0,
                       help="per-client token-bucket rate in records/second "
                            "(0 = unlimited)")
    serve.add_argument("--burst", type=int, default=None,
                       help="per-client token-bucket burst in records")
    serve.add_argument("--no-seal", action="store_true",
                       help="on drain, keep trailing buckets open (pause "
                            "instead of finish; a restarted server resumes "
                            "them)")
    serve.add_argument("--bucket-seconds", type=float, default=3600.0)
    serve.add_argument("--checkpoint-interval", type=int, default=5000)
    serve.add_argument("--trace-sample", type=int, default=64, metavar="N",
                       help="head-sample 1 in N untraced ingest requests "
                            "for end-to-end span trees (0 = only trace "
                            "requests that send a traceparent header)")
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.scenario == "iran":
        study = iran_protest_study(n_connections=args.connections, seed=args.seed)
    else:
        profiles = None
        if getattr(args, "profiles", None):
            from repro.workloads.config import load_profiles

            profiles = load_profiles(args.profiles)
        study = two_week_study(n_connections=args.connections, seed=args.seed,
                               profiles=profiles)
    count = write_samples_jsonl(args.out, study.samples)
    print(f"wrote {count} samples to {args.out}")
    if args.pcap:
        packets = [p for sample in study.samples for p in sample.packets]
        write_pcap(args.pcap, packets)
        print(f"wrote {len(packets)} packets to {args.pcap}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from repro.core.classifier import ClassifierConfig

    samples = read_samples_jsonl(args.samples)
    if args.no_cache:
        cache_size = 0
    elif args.cache_size is not None:
        cache_size = args.cache_size
    else:
        cache_size = ClassifierConfig().cache_size
    classifier = TamperingClassifier(
        ClassifierConfig(inactivity_seconds=args.inactivity, cache_size=cache_size)
    )
    results = classifier.classify_all(samples)
    counts = Counter(r.signature for r in results)
    rows = [
        [sig.display if sig.is_tampering else sig.value, counts[sig], f"{100.0 * counts[sig] / len(results):.2f}%"]
        for sig in sorted(counts, key=lambda s: -counts[s])
    ]
    print(render_table(["signature", "count", "share"], rows, title=f"{len(results)} connections"))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    study = two_week_study(n_connections=args.connections, seed=args.seed)
    data = study.analyze()
    stats = data.stage_statistics()
    print(f"connections: {stats['total_connections']}")
    print(f"possibly tampered: {stats['possibly_tampered_pct']:.1f}%")
    print(f"signature coverage of possibly tampered: {stats['signature_coverage_pct']:.1f}%")
    print()
    rates = data.country_tampering_rate()
    rows = [[country, f"{rate:.1f}%"] for country, rate in sorted(rates.items(), key=lambda kv: -kv[1])[:20]]
    print(render_table(["country", "tampered"], rows, title="Top tampered countries"))
    print()
    table2 = data.category_table(study.world.categories, countries=["CN", "IR", "US"], threshold=3)
    rows = []
    for region, entries in table2.items():
        for cat, share, coverage in entries:
            rows.append([region, cat, f"{share:.1f}%", f"{coverage:.1f}%"])
    print(render_table(["region", "category", "% tampered conns", "category coverage"], rows,
                       title="Most affected categories"))
    return 0


def _cmd_evidence(args: argparse.Namespace) -> int:
    from repro.core.evidence import evidence_for_sample

    samples = read_samples_jsonl(args.samples)
    classifier = TamperingClassifier()
    rows = []
    scanners = 0
    for sample in samples:
        result = classifier.classify(sample)
        if not result.is_tampering:
            continue
        summary = evidence_for_sample(sample)
        scanners += summary.scanner
        rows.append([
            sample.conn_id,
            result.signature.display,
            summary.max_ipid_delta if summary.max_ipid_delta is not None else "-",
            summary.max_ttl_delta if summary.max_ttl_delta is not None else "-",
            "yes" if (summary.ipid_inconsistent or summary.ttl_inconsistent) else "no",
        ])
    print(render_table(
        ["conn", "signature", "max |ΔIP-ID|", "max ΔTTL", "injection evidence"],
        rows,
        title=f"{len(rows)} tampering matches ({scanners} scanner-heuristic hits overall)",
    ))
    return 0


def _cmd_radar(args: argparse.Namespace) -> int:
    from repro.core.sharing import build_radar_export, write_radar_json

    study = two_week_study(n_connections=args.connections, seed=args.seed)
    data = study.analyze()
    records = build_radar_export(data, min_cell=args.min_cell)
    count = write_radar_json(args.out, records, indent=2)
    countries = sorted({r.country for r in records})
    print(f"wrote {count} aggregate records for {len(countries)} countries to {args.out}")
    print(f"privacy floor: cells with fewer than {args.min_cell} connections suppressed")
    return 0


def _cmd_fingerprints(args: argparse.Namespace) -> int:
    from repro.core.fingerprint import FingerprintIndex

    samples = read_samples_jsonl(args.samples)
    classifier = TamperingClassifier()
    results = classifier.classify_all(samples)
    index = FingerprintIndex.build(samples, results)
    rows = []
    for cluster in index.clusters(min_count=args.min_count):
        rows.append([
            cluster.fingerprint.signature.display,
            cluster.fingerprint.ttl.value,
            cluster.fingerprint.ip_id.value,
            cluster.count,
            cluster.label,
        ])
    print(render_table(["signature", "ttl", "ip-id", "events", "catalogue label"],
                       rows, title=f"{len(rows)} fingerprint clusters"))
    return 0


def _cmd_profiles(args: argparse.Namespace) -> int:
    from repro.workloads.config import dump_profiles
    from repro.workloads.profiles import default_profiles

    count = dump_profiles(args.out, default_profiles())
    print(f"wrote {count} country profiles to {args.out}")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.stream import (
        FaultPlan,
        FaultySource,
        JsonlDirectorySource,
        JsonlSource,
        StreamEngine,
        run_drill,
    )
    from repro.workloads.scenarios import (
        iran_protest_stream_source,
        two_week_stream_source,
    )

    if args.drill:
        result = run_drill(
            args.drill,
            scenario=args.scenario,
            connections=args.connections,
            seed=args.seed,
        )
        print(result.render())
        return 0 if result.ok else 1

    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint", file=sys.stderr)
        return 2

    geodb = None
    if args.samples:
        if os.path.isdir(args.samples):
            source = JsonlDirectorySource(args.samples)
        else:
            source = JsonlSource(args.samples)
    elif args.scenario == "iran":
        source = iran_protest_stream_source(n_connections=args.connections, seed=args.seed)
        geodb = source.world.geo
    else:
        source = two_week_stream_source(n_connections=args.connections, seed=args.seed)
        geodb = source.world.geo

    if args.fault_plan:
        with open(args.fault_plan, "r") as fh:
            source = FaultySource(source, FaultPlan.from_dict(json.load(fh)))

    from repro.core.classifier import ClassifierConfig
    from repro.obs import ProgressReporter

    engine = StreamEngine(
        source,
        geodb=geodb,
        classifier_config=(
            ClassifierConfig(cache_size=0) if args.no_cache else None
        ),
        bucket_seconds=args.bucket_seconds,
        checkpoint_path=args.checkpoint,
        checkpoint_interval=args.checkpoint_interval,
        store_dir=args.store,
        trace_sample_n=args.trace_sample,
        progress=(
            ProgressReporter(interval_seconds=args.progress)
            if args.progress
            else None
        ),
    )
    # A signal lands between folds: the loop notices the flag, writes a
    # resumable checkpoint (when --checkpoint is set), and exits cleanly
    # instead of dying mid-fold with a torn run.
    import signal

    stopped_by = []

    def _on_signal(signum, frame):
        stopped_by.append(signal.Signals(signum).name)
        engine.request_stop()

    previous = {
        sig: signal.signal(sig, _on_signal)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        report = engine.run(max_samples=args.max_samples, resume=args.resume)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    if stopped_by:
        print(f"stopped by {stopped_by[0]}", file=sys.stderr)
    print(report.render())
    print()
    print(engine.metrics.render())
    if args.checkpoint and not report.finished:
        print(f"\ncheckpoint saved to {args.checkpoint}; rerun with --resume to continue")
    if args.store:
        print(f"\nrollup store at {args.store}; inspect with: repro query {args.store}")
    if args.obs:
        engine.obs.export(args.obs, extra={"stream_metrics": report.metrics})
        print(f"\nobservability export at {args.obs}; inspect with: repro obs {args.obs}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeConfig, ServeService

    config = ServeConfig(
        host=args.host,
        port=args.port,
        batch_max_records=args.batch_records,
        batch_max_delay_seconds=args.batch_delay,
        queue_max_records=args.queue_records,
        rate_records_per_second=args.rate,
        rate_burst_records=args.burst,
        drain_seal=not args.no_seal,
        trace_sample_n=args.trace_sample,
    )
    service = ServeService(
        args.store,
        config=config,
        obs_dir=args.obs,
        bucket_seconds=args.bucket_seconds,
        checkpoint_interval=args.checkpoint_interval,
    )

    def announce() -> None:
        # After the bind: with --port 0 only now is the port known.
        print(
            f"serving on {args.host}:{service.port} -- store at {args.store}; "
            "SIGTERM/SIGINT drains gracefully",
            file=sys.stderr,
            flush=True,
        )

    code = service.run(on_ready=announce)
    if service.report is not None:
        print(
            f"drained after {service.report.samples_processed} records "
            f"({'sealed' if not args.no_seal else 'paused'})",
            file=sys.stderr,
        )
    return code


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    from repro.obs import load_export, render_obs_report, stage_rows

    export = load_export(args.export)
    if args.json:
        print(json.dumps(
            {
                "stages": stage_rows(export),
                "counters": export.counters,
                "gauges": export.gauges,
                "spans": export.metrics.get("spans", {}),
                "events": export.events(),
            },
            indent=2,
        ))
        return 0
    print(render_obs_report(export))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs import load_export, render_trace_report, trace_report_data

    export = load_export(args.export)
    spans = [s for s in export.spans if s.get("kind") == "trace"]
    if not spans:
        print(
            f"no trace spans in {args.export}; run with tracing enabled "
            "(stream --trace-sample N, serve --trace-sample N, or a client "
            "sending a traceparent header)",
            file=sys.stderr,
        )
        return 1
    data = trace_report_data(spans, top=args.top, trace_filter=args.trace_id)
    if args.trace_id and not data["traces"]:
        print(f"trace {args.trace_id!r} not found in {args.export}",
              file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(data, indent=2))
        return 0
    print(render_trace_report(data))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.errors import StoreError
    from repro.store import RollupStore, StoreQuery

    if not os.path.isdir(args.store):
        # Opening would silently create an empty store; a query must
        # never mkdir, and a typo'd path should fail loudly.
        raise StoreError(f"no rollup store at {args.store!r}")
    countries = None
    if args.countries:
        countries = tuple(
            c.strip() for c in args.countries.split(",") if c.strip()
        )
    # Read-only snapshot: safe against a store another process is
    # actively writing (no orphan sweep, no WAL truncation).
    store = RollupStore.open_read_only(args.store)
    try:
        result = store.query(
            StoreQuery(
                args.family,
                start=args.start,
                end=args.end,
                countries=countries,
                country=args.country,
            )
        )
    finally:
        store.close()

    def jsonable(value):
        if isinstance(value, dict):
            return {
                (k.value if hasattr(k, "value") else str(k)): jsonable(v)
                for k, v in value.items()
            }
        if isinstance(value, (list, tuple)):
            return [jsonable(v) for v in value]
        return value

    scan = (
        f"scanned {result.segments_scanned} segments "
        f"({result.segments_skipped} pruned), "
        f"{result.buckets_scanned} sealed + "
        f"{result.open_buckets_scanned} open buckets"
    )
    if args.json:
        print(json.dumps(
            {"family": args.family, "value": jsonable(result.value),
             "segments_scanned": result.segments_scanned,
             "segments_skipped": result.segments_skipped,
             "buckets_scanned": result.buckets_scanned,
             "open_buckets_scanned": result.open_buckets_scanned},
            indent=2,
        ))
        return 0

    value = result.value
    if args.family == "country_tampering_rate":
        rows = [[c, f"{rate:.2f}%"]
                for c, rate in sorted(value.items(), key=lambda kv: -kv[1])]
        print(render_table(["country", "tampered"], rows,
                           title="Tampering rate by country"))
    elif args.family == "timeseries":
        rows = []
        for country, series in value.items():
            if not series:
                continue
            peak_bucket, peak = max(series, key=lambda bv: bv[1])
            mean = sum(v for _, v in series) / len(series)
            rows.append([country, len(series), f"{mean:.2f}%",
                         f"{peak:.2f}%", f"{peak_bucket:.0f}"])
        print(render_table(
            ["country", "buckets", "mean rate", "peak rate", "peak bucket"],
            rows, title="Hourly tampering timeseries"))
    elif args.family == "signature_hour_counts":
        rows = []
        for sig, series in value.items():
            total = sum(n for _, n in series)
            rows.append([sig.display, len(series), total])
        print(render_table(["signature", "active hours", "matches"], rows,
                           title=f"Signature activity for {args.country}"))
    else:  # stage_statistics
        print(f"connections: {value['total_connections']}")
        print(f"possibly tampered: {value['possibly_tampered']} "
              f"({value['possibly_tampered_pct']:.2f}%)")
        print(f"signature coverage: {value['signature_coverage_pct']:.2f}%")
        rows = [
            [stage, f"{value['stage_share_pct'][stage]:.2f}%",
             f"{value['stage_coverage_pct'][stage]:.2f}%"]
            for stage in value["stage_share_pct"]
        ]
        print(render_table(["stage", "share of tampered", "signature coverage"],
                           rows, title="Tampering by connection stage"))
    print(scan)
    return 0


def _cmd_signatures(_args: argparse.Namespace) -> int:
    rows = [
        [info.stage.value, info.display, info.description, info.prior_work]
        for info in SIGNATURES.values()
    ]
    print(render_table(["stage", "signature", "description", "prior work"], rows,
                       title="Table 1: tampering signatures"))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "classify": _cmd_classify,
        "report": _cmd_report,
        "evidence": _cmd_evidence,
        "radar": _cmd_radar,
        "fingerprints": _cmd_fingerprints,
        "profiles": _cmd_profiles,
        "signatures": _cmd_signatures,
        "stream": _cmd_stream,
        "query": _cmd_query,
        "serve": _cmd_serve,
        "obs": _cmd_obs,
        "trace": _cmd_trace,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
