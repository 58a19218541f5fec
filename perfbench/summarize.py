"""Summarize the run records in perfbench/out/ into one trajectory point.

    python3 perfbench/summarize.py --label <name> [--out perfbench/trajectory/BENCH_<name>.json]

For every workload it reports, per end-to-end metric, the median and the
quartile spread (IQR / median) over the untraced runs, and per-layer metric
medians over the traced runs, with the environment of the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def summarize(records: list) -> dict:
    by = defaultdict(lambda: {0: [], 1: []})
    for r in records:
        by[r["workload"]][r["trace"]].append(r)
    out = {}
    for workload, runs in sorted(by.items()):
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            if not runs[trace]:
                continue
            metrics = {}
            for name, m in runs[trace][0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in runs[trace]]
                metrics[name] = {"median": statistics.median(values), "unit": m["unit"],
                                 "iqr_over_median": spread(values)}
            entry[key] = metrics
            entry[f"runs_{key}"] = len(runs[trace])
            entry[f"seeds_{key}"] = sorted(r["seed"] for r in runs[trace])
        untraced = runs[0] or runs[1]
        entry["calls_per_run"] = statistics.median(r["attempted"] for r in untraced)
        entry["failed_per_run"] = [r["failed"] for r in untraced]
        entry["fail_frac"] = (sum(r["failed"] for r in untraced)
                              / sum(r["attempted"] for r in untraced))
        entry["tail_percentile"] = statistics.median(r["tail_percentile"] for r in untraced)
        entry["host_speed"] = [r["host_speed"] for r in untraced]
        entry["seconds"] = untraced[0]["seconds"]
        out[workload] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="summarize perfbench/out/ run records")
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    records = [json.loads(p.read_text()) for p in sorted((HERE / "out").glob("result-*.json"))]
    if not records:
        print("no run records in perfbench/out/")
        return 1
    point = {"label": args.label, "env": records[0]["env"], "workloads": summarize(records)}
    text = json.dumps(point, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
