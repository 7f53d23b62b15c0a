"""scripts/bench_summary.py on small synthetic pairs and sweeps."""

import importlib.util
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
    rate = entry["metrics"]["jobs_per_s"]
    # higher is better: seeds 2, 4 and 5 win, seed 3 loses, seed 1 ties
    assert rate["change_wins"] == 3
    assert rate["median_gap"] == 1.0


def _sweep(cells, repeats=5):
    return {"package": "src", "python": "3", "repeats": repeats, "cells": cells}


SAMPLER = {"layer": "sample_privacy_loss", "d": 2, "n": 47, "k": 15, "m": 1, "reps": 100, "workers": 1}
ATOMS = {**SAMPLER, "layer": "lr_atoms"}  # only the layer tells the two apart
PROCESS = {"layer": "process", "command": "python -c pass"}  # layer_sweep's fresh-process cells


def test_min_sweeps_keeps_each_cells_minimum():
    runs = [
        _sweep([{**SAMPLER, "min_s": 2.0, "peak_mb": 1.0}, {**ATOMS, "min_s": 0.5, "peak_mb": 3.0}]),
        _sweep([{**SAMPLER, "min_s": 1.0, "peak_mb": 1.5}, {**ATOMS, "min_s": 0.7, "peak_mb": 2.0}]),
    ]
    sweep = bench_summary.min_sweeps(runs)
    assert sweep["repeats"] == 10 and sweep["runs"] == 2
    assert sweep["cells"] == [
        {**SAMPLER, "min_s": 1.0, "peak_mb": 1.0},
        {**ATOMS, "min_s": 0.5, "peak_mb": 2.0},
    ]


def test_join_sweeps_matches_cells_on_every_unmeasured_field():
    before = _sweep([{**ATOMS, "min_s": 0.5, "peak_mb": 3.0}, {**SAMPLER, "min_s": 2.0, "peak_mb": 1.0}])
    after = _sweep([{**SAMPLER, "min_s": 1.0, "peak_mb": 1.5}, {**ATOMS, "min_s": 0.7, "peak_mb": 2.0}])
    joined = bench_summary.join_sweeps(before, after)
    assert "package" not in joined and joined["repeats"] == 5
    assert joined["cells"] == [
        {**SAMPLER, "parent_min_s": 2.0, "change_min_s": 1.0, "parent_peak_mb": 1.0, "change_peak_mb": 1.5},
        {**ATOMS, "parent_min_s": 0.5, "change_min_s": 0.7, "parent_peak_mb": 3.0, "change_peak_mb": 2.0},
    ]


def test_one_sided_sweep_is_an_argparse_error(tmp_path, capsys):
    argv = ["--pairs", "pairs.jsonl", "--sweep-before", "a.json", "--out", str(tmp_path / "out.json")]
    with pytest.raises(SystemExit) as exit_info:
        bench_summary.main(argv)
    assert exit_info.value.code == 2
    assert "give both --sweep-before and --sweep-after, or neither" in capsys.readouterr().err


def test_process_cells_join_and_min_like_any_cell():
    runs = [
        _sweep([{**ATOMS, "min_s": 0.5, "peak_mb": 3.0}, {**PROCESS, "min_s": 0.06, "peak_mb": 13.5}]),
        _sweep([{**ATOMS, "min_s": 0.4, "peak_mb": 3.1}, {**PROCESS, "min_s": 0.05, "peak_mb": 13.6}]),
    ]
    after = _sweep([{**PROCESS, "min_s": 0.04, "peak_mb": 13.4}, {**ATOMS, "min_s": 0.3, "peak_mb": 2.9}])
    joined = bench_summary.join_sweeps(bench_summary.min_sweeps(runs), after)
    assert joined["cells"] == [
        {**PROCESS, "parent_min_s": 0.05, "change_min_s": 0.04, "parent_peak_mb": 13.5, "change_peak_mb": 13.4},
        {**ATOMS, "parent_min_s": 0.4, "change_min_s": 0.3, "parent_peak_mb": 3.0, "change_peak_mb": 2.9},
    ]
