#!/usr/bin/env python3
"""Summarize parent/change benchmark pairs and a layer sweep as one JSON file.

Usage (from the repository root):

    python3 scripts/bench_summary.py --pairs exact.jsonl large.jsonl \\
        --sweep-before sweep_parent.json --sweep-after sweep_change.json \\
        --out BENCH_<pr>.json

Each line of a pairs file is {"side": "parent" | "change", "seed": S,
"workload": W, "result": R}, where R is the last stdout line of
`python3 perfbench/run.py --workload W --seed S --seconds 45 --trace 0`
run in a checkout of that side; the two sides of one seed form a pair.
For every workload and end-to-end metric of BENCHMARK.json the summary
gives each side's median and quartiles, the pairs the change won (ties
count for neither), and the medians' gap against the parent's quartile
spread.  The sweep sides are outputs of `scripts/layer_sweep.py`, run with
the parent's and the change's `src` on PYTHONPATH so both measure the same
cells; they are joined cell by cell into `layer_sweep` (leave out both
sides for a change that touches no swept layer).  A side may list several
runs of the sweep (alternate them with the other side's, since the
machine's speed drifts): each cell then keeps its minimum time and minimum
peak over the runs.
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
            entry["metrics"][name] = {
                "unit": m["unit"],
                "better": m["better"],
                "bound": m["bound"],
                "parent": before,
                "change": after,
                "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
                "median_gap": sign * (before["median"] - after["median"]),
                "parent_iqr": before["q3"] - before["q1"],
                "relative_change": (after["median"] - before["median"]) / before["median"],
            }
        out[workload] = entry
    return out


MEASURED = ("min_s", "peak_mb")


def _key(cell):
    return tuple((k, v) for k, v in cell.items() if k not in MEASURED)


def min_sweeps(runs):
    """One sweep from several runs of it: each cell's minimum time and minimum peak."""
    cells = [dict(c) for c in runs[0]["cells"]]
    for cell in cells:
        same = [c for run in runs for c in run["cells"] if _key(c) == _key(cell)]
        for m in MEASURED:
            cell[m] = min(c[m] for c in same)
    return {**runs[0], "repeats": sum(r["repeats"] for r in runs), "runs": len(runs), "cells": cells}


def join_sweeps(before, after):
    """Cells of two sweeps side by side, matched on every field that is not measured."""
    parent = {_key(c): c for c in before["cells"]}
    cells = []
    for cell in after["cells"]:
        old = parent[_key(cell)]
        cells.append(
            dict(
                _key(cell),
                parent_min_s=old["min_s"],
                change_min_s=cell["min_s"],
                parent_peak_mb=old["peak_mb"],
                change_peak_mb=cell["peak_mb"],
            )
        )
    meta = {k: v for k, v in after.items() if k not in ("package", "cells")}
    return {**meta, "cells": cells}


def _load(path):
    with open(path) as f:
        return json.load(f)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", nargs="+", required=True)
    ap.add_argument("--sweep-before", nargs="+", default=())
    ap.add_argument("--sweep-after", nargs="+", default=())
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if bool(args.sweep_before) != bool(args.sweep_after):
        ap.error("give both --sweep-before and --sweep-after, or neither")
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
    if args.sweep_before:
        sides = (args.sweep_before, args.sweep_after)
        report["layer_sweep"] = join_sweeps(*(min_sweeps([_load(path) for path in paths]) for paths in sides))
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
