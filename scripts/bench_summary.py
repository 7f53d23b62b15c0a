#!/usr/bin/env python3
"""Summarize parent/change benchmark pairs and a layer sweep as one JSON file.

Usage (from the repository root):

    python3 scripts/bench_summary.py --pairs exact.jsonl large.jsonl \\
        --sweep sweep.json --out BENCH_<pr>.json

Each line of a pairs file is {"side": "parent" | "change", "seed": S,
"workload": W, "result": R}, where R is the last stdout line of
`python3 perfbench/run.py --workload W --seed S --seconds 45 --trace 0`
run in a checkout of that side; the two sides of one seed form a pair.
For every workload and end-to-end metric of BENCHMARK.json the summary
gives each side's median and quartiles, the pairs the change won (ties
count for neither), and the medians' gap against the parent's quartile
spread.  A metric is `resolved` when that spread, relative to the parent's
median, is within the metric's bound, or when every change run beats every
parent run; an unresolved metric's change is not shown to be within its
bound.  The sweep is one output of `scripts/layer_sweep.py --parent`, which
measures both sides cell by cell in one process; it goes into the summary
as it is, as `layer_sweep` (leave it out for a change that touches no swept
layer).
"""

import argparse
import json
import os
import platform
import statistics


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarize_pairs(lines, metrics):
    runs = {}
    for line in lines:
        runs.setdefault((line["workload"], line["seed"]), {})[line["side"]] = line["result"]
    out = {}
    for workload in sorted({w for w, _ in runs}):
        pairs = [r for (w, _), r in sorted(runs.items()) if w == workload and len(r) == 2]
        entry = {
            "pairs": len(pairs),
            "seeds": sorted(s for (w, s), r in runs.items() if w == workload and len(r) == 2),
            "failed": {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")},
            "attempted": {side: sum(p[side]["attempted"] for p in pairs) for side in ("parent", "change")},
            "all_correct": all(p[side]["correct"] for p in pairs for side in ("parent", "change")),
            "metrics": {},
        }
        for m in metrics:
            name, sign = m["name"], (1.0 if m["better"] == "lower" else -1.0)
            parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
            change = [p["change"]["metrics"][name]["value"] for p in pairs]
            before, after = _quartiles(parent), _quartiles(change)
            iqr = before["q3"] - before["q1"]
            beats = all(sign * (c - p) < 0 for p in parent for c in change)
            entry["metrics"][name] = {
                "unit": m["unit"],
                "better": m["better"],
                "bound": m["bound"],
                "parent": before,
                "change": after,
                "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
                "median_gap": sign * (before["median"] - after["median"]),
                "parent_iqr": iqr,
                "relative_change": (after["median"] - before["median"]) / before["median"],
                "resolved": iqr / before["median"] <= m["bound"] or beats,
            }
        out[workload] = entry
    return out


def _load(path):
    with open(path) as f:
        return json.load(f)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", nargs="+", required=True)
    ap.add_argument("--sweep", help="the output of scripts/layer_sweep.py --parent")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    metrics = _load(args.benchmark)["end_to_end"]
    lines = []
    for path in args.pairs:
        with open(path) as f:
            lines.extend(json.loads(line) for line in f if line.strip())
    report = {
        "machine": {
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "benchmark": {
            "command": "python3 perfbench/run.py --workload W --seed S --seconds 45 --trace 0",
            "order": "parent first in even-numbered pairs, change first in odd-numbered pairs",
            "workloads": summarize_pairs(lines, metrics),
        },
    }
    if args.sweep:
        report["layer_sweep"] = _load(args.sweep)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
