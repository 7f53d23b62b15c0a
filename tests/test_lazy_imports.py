"""The lazy package namespace and the per-subcommand imports, in fresh interpreters.

Other tests share one interpreter, where earlier tests have already imported
every module, so a missing import inside a subcommand would pass them.  Each
test here starts a new Python process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from shuffledp import channel_to_json, rr_channel, validate_channel
from shuffledp.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _python(*args, env=None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter; `env` overrides variables, and a None value unsets one."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    child = {**os.environ, "PYTHONPATH": path, **(env or {})}
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={k: v for k, v in child.items() if v is not None},
        timeout=120,
    )


def _loaded_after(code: str, *argv) -> set:
    """Modules loaded once `code` has run; it must leave stdout to this helper."""
    out = _python("-c", code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))", *argv)
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout.splitlines()[-1]))


def test_import_loads_neither_numpy_nor_an_engine():
    loaded = _loaded_after("import shuffledp")
    assert "numpy" not in loaded
    assert {m for m in loaded if m.startswith("shuffledp")} == {"shuffledp", "shuffledp.errors"}


# This test process imported shuffledp, so its own environment already
# carries the variable; each child below starts from a caller that set none.
NO_BLAS_THREADS = dict.fromkeys(("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
SHOW_BLAS = "import os\nprint(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
needs_threads = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or _CPUS < 2,
    reason="needs /proc/self/task and at least two CPUs",
)


def test_import_caps_blas_at_one_thread_and_loads_no_numpy():
    code = "import os, sys, shuffledp\nprint(os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules)"
    out = _python("-c", code, env=NO_BLAS_THREADS)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1", "False"]


@needs_threads
def test_cli_import_runs_in_one_thread():
    out = _python("-c", "import shuffledp.cli\n" + SHOW_BLAS, env=NO_BLAS_THREADS)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1", "1"]


@needs_threads
def test_a_blas_thread_count_set_by_the_caller_is_kept():
    env = {**NO_BLAS_THREADS, "OPENBLAS_NUM_THREADS": "2"}
    out = _python("-c", "import shuffledp.cli\n" + SHOW_BLAS, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["2", "2"]


def test_numpy_imported_first_keeps_its_blas_pool():
    code = "import os, numpy, shuffledp\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))"
    out = _python("-c", code, env=NO_BLAS_THREADS)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["None"]


def test_every_public_name_resolves_and_star_import_binds_it():
    code = """
import shuffledp
from shuffledp import *
names = shuffledp.__all__
assert len(names) == len(set(names)), "duplicate public name"
missing = [n for n in names if n not in globals()]
assert not missing, missing
for name in names:
    assert getattr(shuffledp, name) is globals()[name], name
assert set(names) <= set(dir(shuffledp))
try:
    shuffledp.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("unknown name resolved")
assert shuffledp.lr_atoms is shuffledp.exact_dist.lr_atoms
assert "lr_atoms" not in vars(shuffledp), "resolved value cached in the package"
"""
    out = _python("-c", code)
    assert out.returncode == 0, out.stderr


@pytest.fixture
def channel_files(tmp_path):
    rr = tmp_path / "rr.json"
    rr.write_text(channel_to_json(rr_channel(1.1)))
    d3 = tmp_path / "d3.json"
    d3.write_text(channel_to_json(validate_channel([0.5, 0.3, 0.2], [0.2, 0.3, 0.5])))
    return {"rr": str(rr), "d3": str(d3)}


def test_exact_curve_loads_no_other_engine(channel_files, tmp_path):
    argv = ["curve", "--channel", channel_files["d3"], "--n", "40", "--out", str(tmp_path / "c.csv")]
    code = "import sys\nfrom shuffledp.cli import main\nassert main(sys.argv[1:]) == 0"
    loaded = _loaded_after(code, *argv)
    for module in ("montecarlo", "multimessage", "bounds", "asymptotics"):
        assert f"shuffledp.{module}" not in loaded
    assert "statistics" not in loaded


JOBS = {
    "curve-exact": ["curve", "--channel", "d3", "--n", "40", "--k", "7", "--sidedness", "two-sided"],
    "curve-binomial": ["curve", "--channel", "rr", "--n", "5000", "--engine", "binomial"],
    "curve-gdp": ["curve", "--channel", "d3", "--n", "1000", "--engine", "gdp"],
    "curve-chernoff": ["curve", "--channel", "rr", "--n", "1000", "--engine", "chernoff"],
    "report-d3": ["report", "--channel", "d3", "--n", "60", "--m", "1"],
    "report-rr-m2": ["report", "--channel", "rr", "--n", "200", "--k", "20", "--m", "2"],
    "simulate-w1": ["simulate", "--channel", "d3", "--n", "30", "--k", "9", "--reps", "2000",
                    "--seed", "5", "--hypothesis", "alt", "--workers", "1"],
    "simulate-w2": ["simulate", "--channel", "d3", "--n", "30", "--k", "9", "--reps", "2000",
                    "--seed", "5", "--hypothesis", "alt", "--workers", "2"],
}


@pytest.mark.parametrize("job", sorted(JOBS))
def test_subcommand_runs_in_a_fresh_interpreter_as_in_process(job, channel_files, tmp_path, capsys):
    argv = [channel_files.get(a, a) for a in JOBS[job]]
    writes_file = argv[0] != "report"

    def run(tag):
        return argv + (["--out", str(tmp_path / f"{tag}.out")] if writes_file else [])

    assert main(run("here")) == 0
    here = capsys.readouterr().out
    fresh = _python("-m", "shuffledp.cli", *run("fresh"))
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout == here
    if writes_file:
        assert (tmp_path / "fresh.out").read_bytes() == (tmp_path / "here.out").read_bytes()
