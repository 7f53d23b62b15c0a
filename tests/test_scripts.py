"""Smoke tests: the study scripts run to completion and print their tables."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


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
    for header in headers:
        assert header in out.stdout, (header, out.stdout)



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


def test_process_cell_curve_command_is_a_valid_cli_call(tmp_path, capsys):
    from shuffledp.cli import main

    sweep = _layer_sweep()
    channel_file = tmp_path / "channel.json"
    channel_file.write_text(sweep.channel_to_json(sweep.channel(3)))
    (args,) = [a for a in sweep.PROCESSES.values() if a[:2] == ["-m", "shuffledp.cli"]]
    assert main([a.format(channel=channel_file) for a in args[2:]]) == 0
    assert capsys.readouterr().out.count("\n") > 64
