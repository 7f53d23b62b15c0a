"""scripts/bench_summary.py on small synthetic pairs and a sweep."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_summary.py"
_spec = importlib.util.spec_from_file_location("bench_summary", SCRIPT)
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)

METRICS = [
    {"name": "job_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def _line(side, seed, job_s, jobs_per_s, failed=0):
    result = {
        "correct": True,
        "attempted": 10,
        "failed": failed,
        "metrics": {"job_s": {"value": job_s}, "jobs_per_s": {"value": jobs_per_s}},
    }
    return {"side": side, "seed": seed, "workload": "w", "result": result}


def test_summarize_pairs_medians_wins_and_failures():
    parent = [(1, 4.0, 1.0), (2, 2.0, 3.0), (3, 3.0, 2.0), (4, 5.0, 4.0), (5, 1.0, 5.0)]
    change = [(1, 3.0, 1.0), (2, 2.0, 4.0), (3, 2.0, 1.0), (4, 6.0, 5.0), (5, 0.5, 6.0)]
    lines = [_line("parent", s, t, r) for s, t, r in parent]
    lines += [_line("change", s, t, r, failed=1 if s == 2 else 0) for s, t, r in change]
    lines.append(_line("parent", 9, 1.0, 1.0))  # no change side: not a pair
    entry = bench_summary.summarize_pairs(lines, METRICS)["w"]
    assert entry["pairs"] == 5 and entry["seeds"] == [1, 2, 3, 4, 5]
    assert entry["failed"] == {"parent": 0, "change": 1}
    assert entry["attempted"] == {"parent": 50, "change": 50}
    assert entry["all_correct"]
    job = entry["metrics"]["job_s"]
    assert job["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert job["change"] == {"median": 2.0, "q1": 2.0, "q3": 3.0}
    # seeds 1, 3 and 5 are faster, seed 4 slower, seed 2 a tie
    assert job["change_wins"] == 3
    assert job["median_gap"] == 1.0 and job["parent_iqr"] == 2.0
    assert job["relative_change"] == pytest.approx(-1 / 3)
    # the parent's spread, 2/3 of its median, is wider than the 0.25 bound
    assert not job["resolved"]
    rate = entry["metrics"]["jobs_per_s"]
    # higher is better: seeds 2, 4 and 5 win, seed 3 loses, seed 1 ties
    assert rate["change_wins"] == 3
    assert rate["median_gap"] == 1.0


def test_a_metric_is_resolved_by_a_narrow_parent_spread_or_a_clean_win():
    # the parent's quartile spread is 0.1 of the median for job_s, within the
    # 0.25 bound, and 0.5 for jobs_per_s, resolved only while every change
    # run beats every parent run
    parent = [(1, 10.0, 1.0), (2, 9.0, 2.0), (3, 11.0, 3.0), (4, 9.5, 1.5), (5, 10.5, 2.5)]
    lines = [_line("parent", s, t, r) for s, t, r in parent]
    lines += [_line("change", s, t + 5.0, r + 2.5) for s, t, r in parent]
    metrics = bench_summary.summarize_pairs(lines, METRICS)["w"]["metrics"]
    assert metrics["job_s"]["resolved"] and metrics["jobs_per_s"]["resolved"]
    lines[-1] = _line("change", 5, 10.5, 3.0)  # ties the parent's best rate
    metrics = bench_summary.summarize_pairs(lines, METRICS)["w"]["metrics"]
    assert metrics["job_s"]["resolved"] and not metrics["jobs_per_s"]["resolved"]


def test_main_embeds_the_sweep_as_it_is(tmp_path):
    pairs, sweep, out = tmp_path / "pairs.jsonl", tmp_path / "sweep.json", tmp_path / "out.json"
    lines = [_line(side, s, 1.0 + s, 2.0 + s) for s in range(1, 4) for side in ("parent", "change")]
    pairs.write_text("".join(json.dumps(line) + "\n" for line in lines))
    cell = {"layer": "lr_atoms", "d": 2, "parent": {"min_s": 0.5}, "change": {"min_s": 0.4}, "same_output": True}
    sweep.write_text(json.dumps({"rounds": 11, "cells": [cell]}))
    benchmark = tmp_path / "benchmark.json"
    benchmark.write_text(json.dumps({"end_to_end": METRICS}))
    argv = ["--pairs", str(pairs), "--sweep", str(sweep), "--benchmark", str(benchmark), "--out", str(out)]
    assert bench_summary.main(argv) == 0
    report = json.loads(out.read_text())
    assert report["layer_sweep"] == {"rounds": 11, "cells": [cell]}
    assert report["benchmark"]["workloads"]["w"]["pairs"] == 3
