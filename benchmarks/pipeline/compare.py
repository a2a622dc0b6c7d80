"""Compare two sets of pipeline-benchmark results against BENCHMARK.json.

    python benchmarks/pipeline/compare.py BASE NEW

BASE and NEW are each a directory of result files written by
``run.py --out`` (one JSON object per line), or a JSON file holding
``{"runs": [...]}`` such as ``baseline.json``.  ``PATH:LABEL`` keeps
only the runs whose ``"set"`` is LABEL; ``baseline.json`` holds two
sets, so name one (``baseline.json:A``).  Runs are paired by seed, and
a seed that appears twice on one side is an error.  For every
(workload, end-to-end metric) it prints each side's median and
quartiles, NEW's wins over BASE in the seed pairs, and a verdict:

* ``unresolved``: BASE's own spread (quartile distance over median)
  exceeds the metric's bound, unless every NEW run beats every BASE run;
* ``regressed``: NEW's median is worse than BASE's by more than the bound;
* ``ok`` otherwise.

``gain`` marks a claimable improvement: NEW wins at least 9 of every 10
pairs (ties count for neither), the medians differ by more than BASE's
quartile distance, and NEW failed no larger share of requests.  Failed
requests get a bound of +0 points.  Exits 1 when anything regressed or
a run failed its correctness check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_runs(spec: str) -> list:
    """Untraced result objects from a directory, a runs file, or PATH:LABEL."""
    path, _, label = spec.partition(":")
    path = Path(path)
    runs = []
    if path.is_dir():
        for file in sorted(path.glob("*.json")):
            runs += [json.loads(line) for line in file.read_text().splitlines() if line.strip()]
    else:
        runs = json.loads(path.read_text())["runs"]
    return [r for r in runs if not r["traced"] and (not label or r.get("set") == label)]


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, q2, q3


def by_seed(runs, workload: str) -> dict:
    """seed -> run of one workload; a repeated seed means two sets mixed."""
    seeds = {}
    for run in runs:
        if run["workload"] != workload:
            continue
        if run["seed"] in seeds:
            raise ValueError(f"{workload}: seed {run['seed']} appears twice on one side; "
                             "keep one set with PATH:LABEL")
        seeds[run["seed"]] = run
    return seeds


def verdict(base: dict, new: dict, bound: float, better: str) -> dict:
    """Medians, quartiles, wins and the verdict for one metric, from
    seed -> value maps; wins count the seeds both sides ran."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = [(base[seed], new[seed]) for seed in sorted(base.keys() & new.keys())]
    base, new = list(base.values()), list(new.values())
    b_q1, b_med, b_q3 = quartiles(base)
    n_q1, n_med, n_q3 = quartiles(new)
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    worse = sign * (b_med - n_med) / b_med
    spread = (b_q3 - b_q1) / b_med
    dominates = all(sign * (n - b) > 0 for n in new for b in base)
    if spread > bound and not dominates:
        word = "unresolved"
    elif worse > bound:
        word = "regressed"
    else:
        word = "ok"
    gain = bool(pairs) and wins >= 0.9 * len(pairs) and sign * (n_med - b_med) > b_q3 - b_q1
    return {
        "base": (b_med, b_q1, b_q3), "new": (n_med, n_q1, n_q3), "wins": wins,
        "pairs": len(pairs), "change": (n_med - b_med) / b_med, "spread": spread,
        "verdict": word, "gain": gain,
    }


def compare(base_runs, new_runs, benchmark: dict):
    """Rows of (workload, metric, verdict dict) plus the failed-request rows."""
    rows = []
    workloads = [w["name"] for w in benchmark["workloads"]]
    for workload in workloads:
        base, new = by_seed(base_runs, workload), by_seed(new_runs, workload)
        if not base or not new:
            continue
        failed = [100.0 * sum(r["failed"] for r in side.values())
                  / sum(r["attempted"] for r in side.values()) for side in (base, new)]
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            v = verdict({s: r["metrics"][name] for s, r in base.items()},
                        {s: r["metrics"][name] for s, r in new.items()},
                        metric["bound"], metric["better"])
            # A gain does not count when more requests failed.
            v["gain"] = v["gain"] and failed[1] <= failed[0]
            rows.append((workload, name, v))
        rows.append((workload, "failed_pct", {
            "base": (failed[0],) * 3, "new": (failed[1],) * 3, "wins": 0,
            "pairs": len(base.keys() & new.keys()),
            # printed as a percentage: the change in points
            "change": (failed[1] - failed[0]) / 100.0,
            "spread": 0.0, "verdict": "regressed" if failed[1] > failed[0] else "ok",
            "gain": False,
        }))
    return rows


def render(rows) -> str:
    head = (f"{'workload':<17} {'metric':<16} {'base median [q1, q3]':>30} "
            f"{'new median [q1, q3]':>30} {'change':>8} {'spread':>7} {'wins':>6}  verdict")
    lines = [head, "-" * len(head)]
    for workload, name, v in rows:
        fmt = lambda t: f"{t[0]:.4g} [{t[1]:.4g}, {t[2]:.4g}]"  # noqa: E731
        lines.append(
            f"{workload:<17} {name:<16} {fmt(v['base']):>30} {fmt(v['new']):>30} "
            f"{100 * v['change']:>+7.1f}% {100 * v['spread']:>6.1f}% "
            f"{v['wins']:>2}/{v['pairs']:<3}  {v['verdict']}{' gain' if v['gain'] else ''}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    benchmark = json.loads(Path(args.benchmark).read_text())
    base, new = load_runs(args.base), load_runs(args.new)
    try:
        rows = compare(base, new, benchmark)
    except ValueError as exc:
        print(f"compare.py: {exc}", file=sys.stderr)
        return 2
    print(render(rows))
    incorrect = [r for r in base + new if not r["correct"]]
    for r in incorrect:
        print(f"incorrect run: {r['workload']} seed {r['seed']}: {r.get('problems')}")
    return 1 if incorrect or any(v["verdict"] == "regressed" for _, _, v in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
