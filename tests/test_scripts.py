"""Smoke tests: the study scripts run to completion and print their tables."""

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

