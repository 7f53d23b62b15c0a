"""The lazy package namespace and the per-subcommand imports, in fresh interpreters.

Other tests share one interpreter, where earlier tests have already imported
every module, so a missing import inside a subcommand would pass them.  Each
test here starts a new Python process.
"""

import gc
import importlib.util
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


@pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha256", "_sha2")),
    reason="no built-in SHA-256 module: the fingerprint takes hashlib's",
)
def test_cli_import_loads_no_openssl():
    # hashlib loads OpenSSL (_hashlib) at import; the channel fingerprint
    # takes the interpreter's lean built-in SHA-256 instead
    assert "_hashlib" not in _loaded_after("import shuffledp.cli")


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


# the CLI module loads no numpy; an engine module loads it, after the package
@needs_threads
def test_cli_import_runs_in_one_thread():
    out = _python("-c", "import shuffledp.cli, shuffledp.exact_dist\n" + SHOW_BLAS, env=NO_BLAS_THREADS)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1", "1"]


@needs_threads
def test_a_blas_thread_count_set_by_the_caller_is_kept():
    env = {**NO_BLAS_THREADS, "OPENBLAS_NUM_THREADS": "2"}
    out = _python("-c", "import shuffledp.cli, shuffledp.exact_dist\n" + SHOW_BLAS, env=env)
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


def _loaded_by_main(*argv) -> set:
    return _loaded_after("import sys\nfrom shuffledp.cli import main\nassert main(sys.argv[1:]) == 0", *argv)


def test_exact_curve_loads_no_other_engine(channel_files, tmp_path):
    loaded = _loaded_by_main("curve", "--channel", channel_files["d3"], "--n", "40", "--out", str(tmp_path / "c.csv"))
    for module in ("montecarlo", "multimessage", "bounds", "asymptotics"):
        assert f"shuffledp.{module}" not in loaded
    assert "statistics" not in loaded


def test_single_message_report_loads_no_engine_it_does_not_run(channel_files):
    # the closed forms and the exact k = 0 JSD at d = 3 (report-d3's shape)
    loaded = _loaded_by_main("report", "--channel", channel_files["d3"], "--n", "188", "--m", "1")
    for module in ("montecarlo", "multimessage", "bounds"):
        assert f"shuffledp.{module}" not in loaded
    assert "numpy.ma" not in loaded


def test_report_loads_neither_the_m_message_engine_nor_the_sampler_module(channel_files):
    # rr_boundary (randomized response) and mm_gdp_compare (m >= 2) are closed forms in asymptotics
    rr = _loaded_by_main("report", "--channel", channel_files["rr"], "--n", "200")
    d3 = _loaded_by_main("report", "--channel", channel_files["d3"], "--n", "60", "--m", "2")
    for loaded in (rr, d3):
        for module in ("montecarlo", "multimessage", "bounds"):
            assert f"shuffledp.{module}" not in loaded


def test_m_message_atoms_load_neither_asymptotics_nor_the_fisher_algebra():
    code = "from shuffledp import unbundled_lr_atoms, rr_channel\nunbundled_lr_atoms(rr_channel(1.1), 30, 2)"
    loaded = _loaded_after(code)
    assert "shuffledp.multimessage" in loaded
    assert "shuffledp.asymptotics" not in loaded and "shuffledp.simplex_linalg" not in loaded


def test_the_m_message_module_answers_to_the_bundled_comparison_by_its_old_names():
    # a lookup by module and name, as a tracer of `multimessage.mm_gdp_compare` makes
    code = """
import shuffledp.multimessage as mm
import shuffledp.asymptotics as asy
assert mm.mm_gdp_compare is asy.mm_gdp_compare and mm.MmComparison is asy.MmComparison
try:
    mm.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("unknown name resolved")
"""
    out = _python("-c", code)
    assert out.returncode == 0, out.stderr


def test_gdp_curve_loads_no_other_engine(channel_files, tmp_path):
    loaded = _loaded_by_main("curve", "--channel", channel_files["d3"], "--n", "1000", "--engine", "gdp",
                             "--out", str(tmp_path / "c.csv"))
    for module in ("montecarlo", "multimessage", "bounds"):
        assert f"shuffledp.{module}" not in loaded


@pytest.mark.parametrize("m", [1, 2])
def test_k0_atoms_at_d3_load_no_numpy_ma(m):
    # np.unique imports numpy.ma (numpy 2.x): the k = 0 chain joins its block cuts without it
    code = (
        "from shuffledp import unbundled_lr_atoms, validate_channel\n"
        f"unbundled_lr_atoms(validate_channel([0.5, 0.3, 0.2], [0.2, 0.3, 0.5]), 30, {m})"
    )
    assert "numpy.ma" not in _loaded_after(code)



# The dense k > 0 fold, the readers no engine path calls and the SVG renderer
# are modules of their own, so a job compiles only the pieces it runs; a name
# of each piece shows that its code is not loaded under another module's name.
PIECES = {"shuffledp.fold", "shuffledp.diagnostics", "shuffledp.svg"}
PIECE_NAMES = {"_fold_block", "conditional_score", "svg_line_chart"}
K0_JOBS = {
    "curve-exact": ["curve", "--channel", "d3", "--n", "40", "--sidedness", "two-sided"],
    "curve-binomial": ["curve", "--channel", "rr", "--n", "5000", "--engine", "binomial"],
    "curve-gdp": ["curve", "--channel", "d3", "--n", "1000", "--engine", "gdp"],
    "curve-chernoff": ["curve", "--channel", "rr", "--n", "1000", "--engine", "chernoff"],
    "report-d3": ["report", "--channel", "d3", "--n", "60"],
    "report-rr-m2": ["report", "--channel", "rr", "--n", "200", "--k", "20", "--m", "2"],
}
CLOSED_FORM_JOBS = {"curve-gdp", "curve-chernoff"}


def _after_main(*argv) -> tuple[set, set]:
    """The modules loaded once `main(argv)` has run, and the names the package's loaded modules define."""
    code = (
        "import json, sys\nfrom shuffledp.cli import main\nassert main(sys.argv[1:]) == 0\n"
        "package = [mod for name, mod in sys.modules.items() if name.startswith('shuffledp')]\n"
        "print(json.dumps([sorted(sys.modules), sorted({name for mod in package for name in vars(mod)})]))"
    )
    out = _python("-c", code, *argv)
    assert out.returncode == 0, out.stderr
    modules, names = json.loads(out.stdout.splitlines()[-1])
    return set(modules), set(names)


@pytest.mark.parametrize("job", sorted(K0_JOBS))
def test_k0_curves_and_report_load_neither_the_fold_nor_the_diagnostics_nor_the_renderer(job, channel_files, tmp_path):
    argv = [channel_files.get(a, a) for a in K0_JOBS[job]]
    loaded, names = _after_main(*argv, *(["--out", str(tmp_path / "c.csv")] if argv[0] == "curve" else []))
    # the closed-form curves read the shared records alone, not the exact engine
    assert "shuffledp.records" in loaded and ("shuffledp.exact_dist" in loaded) == (job not in CLOSED_FORM_JOBS)
    assert not loaded & PIECES and not names & PIECE_NAMES


@pytest.mark.parametrize("argv", [
    ["curve", "--n", "40", "--k", "7"],
    ["simulate", "--n", "30", "--k", "9", "--reps", "200"],
])
def test_k_positive_jobs_load_the_fold_but_not_the_diagnostics(argv, channel_files, tmp_path):
    loaded, names = _after_main(*argv, "--channel", channel_files["d3"], "--out", str(tmp_path / "out.csv"))
    assert "shuffledp.fold" in loaded and "_fold_block" in names
    assert not loaded & {"shuffledp.diagnostics", "shuffledp.svg"} and not names & {"conditional_score", "svg_line_chart"}


def test_k0_simulate_loads_no_fold(channel_files, tmp_path):
    # the k = 0 sampler reads the chain's affine ratio; only k > 0 imports the fold's ratio table
    loaded, names = _after_main("simulate", "--channel", channel_files["d3"], "--n", "30", "--k", "0", "--reps", "200",
                                "--out", str(tmp_path / "out.csv"))
    assert "shuffledp.montecarlo" in loaded and "shuffledp.fold" not in loaded and "_fold_block" not in names


def _imported_by_the_program(*argv) -> set:
    """The modules `python -m shuffledp.cli ...` imports, as `-X importtime` lists them."""
    out = _python("-X", "importtime", "-m", "shuffledp.cli", *argv)
    assert out.returncode == 0, out.stderr
    lines = [line.split("|")[-1] for line in out.stderr.splitlines() if line.startswith("import time:")]
    return {line.strip() for line in lines[1:]}  # the first line is the header


@pytest.mark.parametrize("engine", ["gdp", "chernoff"])
@pytest.mark.parametrize("grid, output", [
    ("log:1e-3:10:64", ["--format", "csv"]),
    ("lin:0:3:40", ["--format", "json"]),
    ("0.1,0.5,2", ["--format", "csv", "--out", "{out}"]),
    ("log:1e-3:3:64", ["--format", "json", "--out", "{out}"]),
])
def test_closed_form_curves_load_no_numpy(engine, grid, output, channel_files, tmp_path):
    # the channel, the grid, the closed form and the table run on Python floats
    out = str(tmp_path / "c.out")
    imported = _imported_by_the_program("curve", "--channel", channel_files["d3"], "--n", "950000", "--engine", engine,
                                        "--eps", grid, *(a.format(out=out) for a in output))
    assert "shuffledp.bounds" in imported or "shuffledp.asymptotics" in imported
    assert not {m for m in imported if m == "numpy" or m.startswith("numpy.")}
    assert "shuffledp.exact_dist" not in imported


def test_closed_form_curve_with_a_chart_loads_numpy_for_the_renderer(channel_files, tmp_path):
    imported = _imported_by_the_program("curve", "--channel", channel_files["rr"], "--n", "1000", "--engine", "chernoff",
                                        "--out", str(tmp_path / "c.csv"), "--svg", str(tmp_path / "c.svg"))
    assert {"shuffledp.svg", "numpy"} <= imported and (tmp_path / "c.svg").read_text().startswith("<svg")


def test_curve_svg_loads_the_renderer(channel_files, tmp_path):
    loaded = _loaded_by_main("curve", "--channel", channel_files["rr"], "--n", "100", "--out", str(tmp_path / "c.csv"),
                             "--svg", str(tmp_path / "c.svg"))
    assert "shuffledp.svg" in loaded and (tmp_path / "c.svg").read_text().startswith("<svg")


def test_the_exact_module_answers_to_the_names_the_tracer_looks_up():
    # perfbench's tracer looks these three up as exact_dist.<name>
    code = """
import shuffledp
import shuffledp.exact_dist as ed
assert ed.histogram_law is shuffledp.fold.histogram_law is shuffledp.histogram_law
for name in ("reverse_atomization", "divergences"):
    assert getattr(ed, name) is getattr(shuffledp.diagnostics, name) is getattr(shuffledp, name), name
assert not {"histogram_law", "reverse_atomization", "divergences"} & set(vars(ed))
try:
    ed.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("unknown name resolved")
"""
    out = _python("-c", code)
    assert out.returncode == 0, out.stderr


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


# The programs (`python -m shuffledp.cli`, the `shuffledp` console script and
# the study scripts) import with the cyclic collector off and freeze the import
# heap before the command runs; the library itself never touches the collector.
GC_PROBE = """
import atexit, gc, json, runpy, sys
early = [0, 0, 0]  # collections per generation once numpy loads, before any freeze

def count(phase, info):
    if phase == "start" and "numpy" in sys.modules and not gc.get_freeze_count():
        early[info["generation"]] += 1

def show():
    gc.callbacks.remove(count)
    print(json.dumps({"early": early, "frozen": gc.get_freeze_count(), "enabled": gc.isenabled()}))

gc.callbacks.append(count)
atexit.register(show)
target, sys.argv = sys.argv[1], sys.argv[1:]
if target == "console":
    from shuffledp.cli import console_entry
    console_entry()
elif target.endswith(".py"):
    runpy.run_path(target, run_name="__main__")
else:
    runpy.run_module(target, run_name="__main__", alter_sys=True)
"""


def _gc_at_exit(*argv) -> dict:
    out = _python("-c", GC_PROBE, *argv)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_program_imports_without_collections_and_runs_frozen(channel_files, tmp_path):
    argv = ["curve", "--channel", channel_files["d3"], "--n", "40", "--k", "7",
            "--out", str(tmp_path / "c.csv")]
    state = _gc_at_exit("shuffledp.cli", *argv)
    assert state["early"] == [0, 0, 0]
    assert state["frozen"] > 1000
    assert state["enabled"]


def test_console_script_entry_runs_frozen(channel_files, tmp_path):
    argv = ["curve", "--channel", channel_files["d3"], "--n", "40", "--out", str(tmp_path / "c.csv")]
    state = _gc_at_exit("console", *argv)
    assert state["frozen"] > 1000
    assert state["enabled"]


def test_study_script_imports_without_collections_and_runs_frozen():
    state = _gc_at_exit(str(ROOT / "scripts" / "gdp_rate_study.py"), "--n", "100,200,400")
    assert state["early"] == [0, 0, 0]
    assert state["frozen"] > 1000
    assert state["enabled"]


@pytest.mark.parametrize("disabled", [False, True])
def test_cli_import_leaves_the_collector_alone(disabled):
    code = (
        "import gc\n"
        + ("gc.disable()\n" if disabled else "")
        + "before = (gc.isenabled(), gc.get_freeze_count())\n"
        "import shuffledp.cli\n"
        f"assert (gc.isenabled(), gc.get_freeze_count()) == before == ({not disabled}, 0), before"
    )
    out = _python("-c", code)
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("disabled", [False, True])
@pytest.mark.parametrize("job", sorted(JOBS))
def test_in_process_main_leaves_the_collector_alone(job, disabled, channel_files, tmp_path, capsys):
    argv = [channel_files.get(a, a) for a in JOBS[job]]
    if argv[0] != "report":
        argv += ["--out", str(tmp_path / "job.out")]
    frozen = gc.get_freeze_count()
    if disabled:
        gc.disable()
    try:
        assert main(argv) == 0
        assert gc.isenabled() is not disabled
        assert gc.get_freeze_count() == frozen
    finally:
        gc.enable()
