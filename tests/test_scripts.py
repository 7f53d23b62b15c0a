"""Smoke tests: the study scripts run to completion and print their tables."""

import hashlib
import importlib.util
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_script(script, *args) -> str:
    """Stdout of one run of a script under scripts/, with this checkout's src first."""
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize(
    "script, args, headers",
    [
        (
            "gdp_rate_study.py",
            ["--n", "100,200,400"],
            ["ks_null", "ks_alt", "fitted slope (null)"],
        ),
        (
            "boundary_regime_study.py",
            ["--n", "100,200,400"],
            ["sqrt(a_n)", "fitted ks slope", "# Lyapunov diagnostics"],
        ),
        (
            "bound_gap_table.py",
            ["--n", "30", "--points", "4"],
            ["chernoff/exact", "# chi-square accounting per message count"],
        ),
        (
            "layer_sweep.py",
            ["--smallest"],
            ['"layer": "lr_atoms"', '"n": 190', '"k": 63', '"min_s"', '"peak_mb"'],
        ),
    ],
)
def test_study_script_prints_its_tables(script, args, headers):
    out = _run_script(script, *args)
    for header in headers:
        assert header in out, (header, out)


@pytest.mark.parametrize(
    "args, digest",
    [
        ([], "aad85be8867e237b5df9f41bc13e4094e876fe7fbf978ed48a687ed7f4d5ee7d"),
        (
            ["--n", "2000", "--eps-max", "3", "--points", "25"],
            "029484dacde28534680d27811aa28d59fa5cc55322da7ecdceb05c7aeade6689",
        ),
    ],
)
def test_bound_gap_table_stdout_is_pinned(args, digest):
    # SHA-256 of the printed tables on x86-64 with numpy 2.4; the second grid
    # runs the Gaussian column into its deep tail
    out = _run_script("bound_gap_table.py", *args)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _layer_sweep():
    spec = importlib.util.spec_from_file_location("layer_sweep", ROOT / "scripts" / "layer_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_process_cell_times_fresh_interpreters_and_reads_their_own_peak(tmp_path):
    timed, traced = _layer_sweep().in_fresh_process(["-c", "print(7)"], str(ROOT / "src"), str(tmp_path))
    seconds, stdout = timed()
    assert 0.0 < seconds < 60.0 and stdout == b"7\n"
    # this test process holds numpy; a child spawned from it would report that peak
    assert 1.0 < traced() < 30.0


def test_process_cell_raises_on_a_failing_command(tmp_path):
    timed, traced = _layer_sweep().in_fresh_process(["-c", "raise SystemExit(3)"], str(ROOT / "src"), str(tmp_path))
    for call in (timed, traced):
        with pytest.raises(RuntimeError, match="failed"):
            call()


def test_process_cells_cli_commands_are_valid_cli_calls(tmp_path, capsys):
    from shuffledp.cli import main

    sweep = _layer_sweep()
    files = sweep.process_files(str(tmp_path))
    commands = [shlex.split(c) for c in sweep.PROCESSES]
    calls = [args[2:] for args in commands if args[:2] == ["-m", "shuffledp.cli"]]
    # every subcommand the benchmark's workloads run has a start-up cell, and
    # curve and simulate one more each for their JSON output; curve also the
    # large-n workload's most frequent job and one with --svg
    assert sorted(args[0] for args in calls) == ["curve"] * 6 + ["report"] * 2 + ["simulate"] * 2
    for args in calls:
        assert main([a.format(**files) for a in args]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") > (64 if args[0] == "curve" else 10), args
    scripts = [args[0].format(scripts=ROOT / "scripts") for args in commands if args[0].startswith("{scripts}")]
    assert scripts and all(os.path.isfile(path) for path in scripts)


def test_layer_sweep_runs_a_copied_parent_beside_the_change(tmp_path):
    parent = tmp_path / "src"
    shutil.copytree(ROOT / "src", parent, ignore=shutil.ignore_patterns("__pycache__"))
    sweep = json.loads(_run_script("layer_sweep.py", "--smallest", "--parent", str(parent)))
    for side, src in (("parent", parent), ("change", ROOT / "src")):
        assert sweep["trees"][side]["src"] == os.path.realpath(src)
        assert sweep["trees"][side]["exact_dist"] == str(src / "shuffledp" / "exact_dist.py")
    [cell] = sweep["cells"]
    for side in ("parent", "change"):
        assert set(cell[side]) == {"digest", "min_s", "peak_mb", "peak_mb_max"}
        assert 0.0 < cell[side]["min_s"] and 0.0 < cell[side]["peak_mb"] <= cell[side]["peak_mb_max"]
    assert cell["same_output"] and cell["parent"]["digest"] == cell["change"]["digest"]
    assert all(math.isfinite(cell["ratio"][q]) and cell["ratio"][q] > 0.0 for q in ("q1", "median", "q3"))
    assert sweep["rounds"] == _layer_sweep().ROUNDS


def test_layer_sweep_refuses_a_parent_that_is_the_change():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "layer_sweep.py"), "--smallest", "--parent", str(ROOT / "src")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert out.returncode == 1 and "the parent and the change are both" in out.stderr
    assert out.stdout == ""


def test_layer_sweep_refuses_a_parent_without_its_scripts_before_any_cell(tmp_path):
    # a copy of `src` alone has no scripts/gdp_rate_study.py for the last
    # `process` cell: the full sweep exits at once, not after every other cell
    parent = tmp_path / "src"
    shutil.copytree(ROOT / "src", parent, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "layer_sweep.py"), "--parent", str(parent)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=30,  # the cells alone take about 15 minutes
    )
    missing = os.path.join(os.path.realpath(tmp_path), "scripts", "gdp_rate_study.py")
    assert out.returncode == 1 and f"the parent tree has no {missing}" in out.stderr, out.stderr
    assert out.stdout == "" and '"layer"' not in out.stderr


def test_layer_sweep_runs_with_one_blas_thread_as_the_jobs_do():
    # importing shuffledp before numpy sets OPENBLAS_NUM_THREADS=1; numpy
    # first would start a BLAS pool of one thread per core
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("needs /proc/self/task")
    script = str(ROOT / "scripts" / "layer_sweep.py")
    code = f"import os, runpy; runpy.run_path({script!r}); print(len(os.listdir('/proc/self/task')))"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**env, "PYTHONPATH": str(ROOT / "src")}
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1"]


def test_layer_sweep_processes_plans_only_the_process_cells(tmp_path):
    sweep = _layer_sweep()
    cells = [cell for cell, _ in sweep.plan({"change": sweep.shuffledp}, False, True, str(tmp_path))]
    assert [cell["command"] for cell in cells] == [f"python {command}" for command in sweep.PROCESSES]
    assert any("shuffledp.multimessage" in command for command in sweep.PROCESSES)
