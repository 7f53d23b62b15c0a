"""Smoke tests: the study scripts run to completion and print their tables."""

import hashlib
import importlib.util
import os
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


def test_process_cell_times_fresh_interpreters_and_reads_their_own_peak():
    cell = _layer_sweep().measure_process(["-c", "pass"])
    assert set(cell) == {"min_s", "peak_mb"}
    assert 0.0 < cell["min_s"] < 60.0
    # this test process holds numpy; a child spawned from it would report that peak
    assert 1.0 < cell["peak_mb"] < 30.0


def test_process_cell_raises_on_a_failing_command():
    with pytest.raises(RuntimeError, match="failed"):
        _layer_sweep().measure_process(["-c", "raise SystemExit(3)"])


def test_process_cells_cli_commands_are_valid_cli_calls(tmp_path, capsys):
    from shuffledp.cli import main

    sweep = _layer_sweep()
    files = sweep.process_files(str(tmp_path))
    calls = [a[2:] for a in sweep.PROCESSES.values() if a[:2] == ["-m", "shuffledp.cli"]]
    # every subcommand the benchmark's workloads run has a start-up cell
    assert sorted(args[0] for args in calls) == ["curve", "curve", "curve", "report", "report", "simulate"]
    for args in calls:
        assert main([a.format(**files) for a in args]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") > (64 if args[0] == "curve" else 10), args
    scripts = [a[0].format(**files) for a in sweep.PROCESSES.values() if a[0].startswith("{scripts}")]
    assert scripts and all(os.path.isfile(path) for path in scripts)
