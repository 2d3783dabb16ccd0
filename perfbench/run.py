#!/usr/bin/env python3
"""Real-model serving benchmark: one command, four traffic mixes.

Usage (from the repository root)::

    python3 perfbench/run.py                      # all four workloads
    python3 perfbench/run.py --workload warm_zipf --seed 3 --seconds 10 --trace 0

The first run in a checkout trains the bench-world model (fixture time,
cached under ``.bench_build/perfbench/``); later runs load it.  Each
workload prints its end-to-end metrics with units and sample counts
(``--trace 0``) or, from a separate traced phase, its per-layer metrics
(``--trace 1``), then a JSON report line, then — as the last line — the
result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="cold_ingest, warm_zipf, live_tail, fleet_replay or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced phase")
    return parser.parse_args(argv)


def _table(report: dict, trace: bool, units: dict) -> str:
    name = report["workload"]
    samples = report["samples"]
    lines = [f"== {name} (seed {report['seed']}): {report['why']}"]
    metrics = report["per_layer"] if trace else report["end_to_end"]
    calibrated = report["speed"]["calibrated"]
    for metric, value in metrics.items():
        note = ""
        if not trace and metric in report["measured"] and (calibrated or metric == "setup_s"):
            note = f"  (at reference speed; measured {report['measured'][metric]:.6g})"
        if metric.startswith("latency_"):
            note += f"  (n={samples['latency_events']} events, {samples['latency_calls']} calls)"
        elif metric == "peak_rss_mb":
            note = (f"  (serving deployment from its set-up on; "
                    f"{report['rss']['before_mb']:.1f} MB before it)")
        elif metric == "setup_s":
            note += f"  (median of {samples['setup_rounds']})"
        elif metric.startswith("alert_"):
            note = (f"  ({samples['distinct_lines']} distinct lines, "
                    f"{samples['positives']} malicious, {samples['alerts']} flagged)")
        lines.append(f"  {metric:<42} {value:>14.6g} {units[metric]:<6}{note}")
    lines.append(f"  {'error_rate':<42} {report['error_rate']:>14.6g} ratio "
                 f" ({report['failed']} of {report['attempted']} operations)")
    traffic = report["traffic"]
    lines.append("  traffic: " + ", ".join(
        f"{key}={value:.4g}" if isinstance(value, float) else f"{key}={value}"
        for key, value in traffic.items()))
    return "\n".join(lines)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(REPO)]
    from perfbench import bench, envinfo, world
    from perfbench import workloads as wl

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in wl.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(wl.WORKLOADS)} or all", file=sys.stderr)
        return 2
    root = world.cache_root(REPO)
    print("perfbench: loading the bench-world bundle (trains it on first use)",
          file=sys.stderr, flush=True)
    bundle, fixture_s = world.ensure_bundle(root)
    env = envinfo.environment(REPO)
    trace = bool(args.trace)
    units = bench.PER_LAYER if trace else bench.END_TO_END

    reports = {}
    for name in names:
        print(f"perfbench: running {name}", file=sys.stderr, flush=True)
        report = bench.run_workload(
            name, bundle, root / "runs" / name, seed=args.seed, seconds=args.seconds,
            trace=trace,
        )
        report["environment"] = env
        report["fixture_train_s"] = fixture_s
        reports[name] = report
        print(_table(report, trace, units))
        print("report " + json.dumps(report, sort_keys=True, default=str))

    def result(report: dict) -> dict:
        metrics = report["per_layer"] if trace else report["end_to_end"]
        return {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
        }

    if len(names) == 1:
        print(json.dumps(result(reports[names[0]])))
    else:
        print(json.dumps({"workloads": {name: result(r) for name, r in reports.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
