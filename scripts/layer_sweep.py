#!/usr/bin/env python3
"""Paired in-process sweep of the exact engines and the sampler: seconds and peak traced memory.

Usage (from the repository root; the change is the package on PYTHONPATH):

    PYTHONPATH=src python3 scripts/layer_sweep.py --parent /path/to/parent/src > sweep.json
    PYTHONPATH=src python3 scripts/layer_sweep.py > sweep.json   # one tree
    PYTHONPATH=src python3 scripts/layer_sweep.py --smallest     # the first cell only
    PYTHONPATH=src python3 scripts/layer_sweep.py --parent /path/to/parent/src --processes   # start-up only

The parent tree is a checkout of the parent commit (`git worktree add` or
`git archive`), whose `shuffledp` is imported as the package PARENT (every
import inside the package is relative); the sweep refuses to run when a
module of one side loads from outside its tree or holds a name of the
other side's package.  Each side builds its inputs (channel, `Composition`,
`SimConfig`, `Hypothesis`) from its own package.

Each cell times one call of its layer: `lr_atoms` at (n, k) (k = 0 in
closed form, k > 0 through the dense pair), `unbundled_lr_atoms` at m
messages per user, `divergences` of the atoms at (n, k), `_jsd` and
`kolmogorov_to_gaussian` (null hypothesis, mu of `gdp_mu`) of the k = 0
atoms, `conditional_score` at the mean histogram rounded down (its last
count what remains), `linearization_residual` at (n, k) with its default
window and pi, `privacy_curve` (two-sided, the CLI's default grid)
and `tradeoff_curve` of the atoms at (n, k) (at d = 2 of randomized
response at eps0 = 1.1), `sample_privacy_loss` of `reps` alt-law draws
with seed 7 on `workers` threads, and `chernoff_curve` on 64 eps from 0 to
log w_max, or `chernoff_delta` at each of them.  Channels are seeded FULL
channels, or the one `FIXED_CHANNELS` names in a cell's eighth field
("d3-ties" has few mathematical ratios, each split by rounding into several
doubles: 168,815 atoms of 485,195 cells at n = 1000).  The `process` cells
(left out by --smallest) time interpreter start-up, imports and exit: fresh
interpreters run each of `PROCESSES` with the side's `src` on PYTHONPATH,
and report wall time, peak RSS (`ru_maxrss`, in MiB as perfbench reports
it) and stdout; --processes measures only these cells, for a change to
start-up that needs no in-process cell.

A cell calls each side once to warm up, keeping its output's `digest`,
then runs the sides in ABBA order (parent, change, change, parent, ...)
for ROUNDS rounds: a round times one call of each side, the two calls
next to each other, then traces one more of each (`tracemalloc`, or a
process's RSS).  Per side it reports the minimum time `min_s` and the minimum
and maximum peak, `peak_mb` and `peak_mb_max` (two sampler workers'
temporaries overlap differently from round to round); with --parent, the
median and quartiles of the per-round change/parent time `ratio`, and
`same_output`.  `scripts/bench_summary.py --sweep` embeds the output in
`BENCH_<pr>.json`.
"""

import argparse
import dataclasses
import enum
import hashlib
import importlib.util
import json
import math
import os
import pkgutil
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import types
from functools import partial

# shuffledp before numpy: importing it first caps numpy's BLAS pool at one
# thread, as in every CLI job
import shuffledp

import numpy as np

ROUNDS = 11
SEED = 7
PARENT = "parent_shuffledp"
# the sampler's k > 0 table is folded only up to these n, so a cell takes seconds
MAX_TABLE_N = {2: 20000, 3: 190, 4: 47}
# channels a cell may name in an eighth field, in place of a seeded FULL channel
FIXED_CHANNELS = {"d3-ties": ([0.5, 0.3, 0.2], [0.2, 0.35, 0.45])}
# (layer, d, n, k, m, reps, workers[, channel]), the smallest first; reps and workers are the sampler's
CELLS = (
    ("lr_atoms", 2, 190, 63, 1, None, None),
    ("lr_atoms", 2, 1900, 633, 1, None, None),
    ("lr_atoms", 3, 60, 20, 1, None, None),
    ("lr_atoms", 3, 190, 63, 1, None, None),
    ("lr_atoms", 3, 400, 133, 1, None, None),
    ("lr_atoms", 4, 20, 6, 1, None, None),
    ("lr_atoms", 4, 59, 19, 1, None, None),
    ("lr_atoms", 4, 90, 30, 1, None, None),
    ("lr_atoms", 2, 20000, 6666, 1, None, None),
    ("lr_atoms", 2, 110000, 0, 1, None, None),
    ("lr_atoms", 2, 300000, 0, 1, None, None),
    ("lr_atoms", 2, 950000, 0, 1, None, None),
    ("lr_atoms", 3, 190, 0, 1, None, None),
    ("lr_atoms", 3, 1000, 0, 1, None, None),
    ("lr_atoms", 3, 1400, 0, 1, None, None),
    ("lr_atoms", 4, 60, 0, 1, None, None),
    ("lr_atoms", 4, 120, 0, 1, None, None),
    ("lr_atoms", 5, 40, 0, 1, None, None),
    ("lr_atoms", 3, 1000, 0, 1, None, None, "d3-ties"),
    ("unbundled_lr_atoms", 2, 150, 0, 4, None, None),
    ("unbundled_lr_atoms", 3, 20, 0, 3, None, None),
    ("unbundled_lr_atoms", 4, 8, 0, 3, None, None),
    ("unbundled_lr_atoms", 2, 2000, 0, 4, None, None),
    ("unbundled_lr_atoms", 3, 100, 0, 4, None, None),
    ("unbundled_lr_atoms", 2, 2, 0, 600, None, None),
    ("unbundled_lr_atoms", 3, 2, 0, 100, None, None),
    ("unbundled_lr_atoms", 3, 4, 0, 200, None, None),
    ("unbundled_lr_atoms", 2, 5000, 0, 3, None, None),
    ("unbundled_lr_atoms", 2, 1000, 0, 90, None, None),
    ("divergences", 2, 950000, 0, 1, None, None),
    ("divergences", 3, 1000, 0, 1, None, None),
    ("divergences", 4, 120, 0, 1, None, None),
    ("_jsd", 2, 950000, 0, 1, None, None),
    ("kolmogorov_to_gaussian", 2, 950000, 0, 1, None, None),
    ("conditional_score", 2, 1900, 0, 1, None, None),
    ("conditional_score", 3, 190, 0, 1, None, None),
    ("conditional_score", 4, 59, 0, 1, None, None),
    ("conditional_score", 3, 190, 63, 1, None, None),
    ("conditional_score", 4, 59, 19, 1, None, None),
    ("conditional_score", 2, 20000, 6666, 1, None, None),
    ("linearization_residual", 3, 190, 0, 1, None, None),
    ("linearization_residual", 4, 59, 0, 1, None, None),
    ("linearization_residual", 3, 190, 63, 1, None, None),
    ("privacy_curve", 3, 190, 63, 1, None, None),
    ("privacy_curve", 2, 950000, 0, 1, None, None),
    ("privacy_curve", 3, 1000, 0, 1, None, None, "d3-ties"),
    ("tradeoff_curve", 3, 190, 63, 1, None, None),
    ("tradeoff_curve", 2, 950000, 0, 1, None, None),
    ("chernoff_curve", 2, 950000, 0, 1, None, None),
    ("chernoff_curve", 3, 2000, 0, 1, None, None),
    ("chernoff_delta", 2, 950000, 0, 1, None, None),
    ("chernoff_delta", 3, 2000, 0, 1, None, None),
) + tuple(
    ("sample_privacy_loss", d, n, k, 1, 10_000 if n <= 1900 else 1_000, workers)
    for d in (2, 3, 4)
    for n in (47, 190, 1900, 20000)
    for k in (0, n // 3)
    for workers in (1, 2)
    if k == 0 or n <= MAX_TABLE_N[d]
) + tuple(("sample_privacy_loss", 4, 30, 0, 1, 100_000, workers) for workers in (1, 2))

# the `process` cells' interpreter arguments: {channel} is the d = 3 channel
# file, {rr} that of randomized response at eps0 = 1.1, {svg} a chart file
# and {scripts} the scripts directory beside the side's package
# (src/shuffledp/../../scripts)
PROCESSES = (
    "-c pass",
    "-c 'import shuffledp.cli'",
    # the CLI and every engine module: the cost of defining the package's records
    "-c 'import shuffledp.cli, shuffledp.asymptotics, shuffledp.bounds, shuffledp.montecarlo, "
    "shuffledp.multimessage, shuffledp.simplex_linalg'",
    "-m shuffledp.cli curve --channel {channel} --n 190 --k 63",
    "-m shuffledp.cli report --channel {channel} --n 190",
    "-m shuffledp.cli curve --channel {channel} --n 950000 --engine gdp",
    "-m shuffledp.cli simulate --channel {channel} --n 190 --k 63 --workers 1",
    "-m shuffledp.cli curve --channel {channel} --n 190 --k 63 --format json",
    "-m shuffledp.cli simulate --channel {channel} --n 190 --k 63 --reps 10000 --workers 1 --format json",
    "-m shuffledp.cli report --channel {rr} --n 950000 --m 2",
    "-m shuffledp.cli curve --channel {rr} --n 500000 --engine chernoff",
    # the large-n workload's binomial job, which every cycle runs
    "-m shuffledp.cli curve --channel {rr} --n 950000 --engine binomial --eps log:1e-3:3:256",
    "-m shuffledp.cli curve --channel {rr} --n 1000 --svg {svg}",
    "{scripts}/gdp_rate_study.py --n 110000,300000,950000",
)


def _curve_atoms(pkg, ch, n, k):
    """The atoms a curve cell reads: at d = 2 of randomized response at eps0 = 1.1."""
    return pkg.lr_atoms(pkg.rr_channel(1.1) if ch.d == 2 else ch, pkg.Composition(n, k))


def _chernoff_grid(pkg, ch) -> np.ndarray:
    return np.linspace(0.0, math.log(pkg.score_stats(ch).w_max), 64)


def _conditional_score(pkg, ch, n, k, m, reps, workers):
    comp = pkg.Composition(n, k)
    histogram = np.floor(pkg.mean_histogram(ch, comp)).astype(int)
    histogram[-1] = n - histogram[:-1].sum()
    return partial(pkg.conditional_score, ch, comp, histogram.tolist())


def _chernoff_delta(pkg, ch, n, k, m, reps, workers):
    eps = _chernoff_grid(pkg, ch).tolist()
    return lambda: [pkg.chernoff_delta(ch, n, e) for e in eps]


# layer -> the cell's timed call, built from one side's package; what the call
# reads is built before the timing
LAYERS = {
    "lr_atoms": lambda pkg, ch, n, k, m, reps, workers: partial(pkg.lr_atoms, ch, pkg.Composition(n, k)),
    "unbundled_lr_atoms": lambda pkg, ch, n, k, m, reps, workers: partial(pkg.unbundled_lr_atoms, ch, n, m),
    "divergences": lambda pkg, ch, n, k, m, reps, workers: partial(
        pkg.divergences, pkg.lr_atoms(ch, pkg.Composition(n, k))
    ),
    "_jsd": lambda pkg, ch, n, k, m, reps, workers: partial(
        pkg.exact_dist._jsd, pkg.lr_atoms(ch, pkg.Composition(n, 0))
    ),
    "kolmogorov_to_gaussian": lambda pkg, ch, n, k, m, reps, workers: partial(
        pkg.kolmogorov_to_gaussian, pkg.lr_atoms(ch, pkg.Composition(n, 0)), pkg.gdp_mu(ch, n).mu, pkg.Hypothesis.NULL
    ),
    "conditional_score": _conditional_score,
    "linearization_residual": lambda pkg, ch, n, k, m, reps, workers: partial(
        pkg.linearization_residual, ch, pkg.Composition(n, k)
    ),
    "privacy_curve": lambda pkg, ch, n, k, m, reps, workers: partial(
        pkg.privacy_curve,
        _curve_atoms(pkg, ch, n, k),
        pkg.cli.parse_eps_grid(pkg.cli.DEFAULT_EPS_SPEC),
        pkg.Sidedness.TWO_SIDED,
    ),
    "tradeoff_curve": lambda pkg, ch, n, k, m, reps, workers: partial(pkg.tradeoff_curve, _curve_atoms(pkg, ch, n, k)),
    "sample_privacy_loss": lambda pkg, ch, n, k, m, reps, workers: partial(
        pkg.sample_privacy_loss,
        ch,
        pkg.Composition(n, k),
        pkg.Hypothesis.ALT,
        pkg.SimConfig(seed=SEED, reps=reps, workers=workers),
    ),
    "chernoff_curve": lambda pkg, ch, n, k, m, reps, workers: partial(
        pkg.chernoff_curve, ch, n, _chernoff_grid(pkg, ch)
    ),
    "chernoff_delta": _chernoff_delta,
}


def channel(pkg, d: int, name=None):
    """The cell's channel, built by `pkg`: FIXED_CHANNELS[name], or a FULL channel from a seeded Dirichlet law."""
    rng = np.random.default_rng(1000 + d)
    w0, w1 = FIXED_CHANNELS[name] if name else (0.8 * rng.dirichlet([2.0] * d) + 0.2 / d for _ in range(2))
    return pkg.validate_channel(w0, w1)


def load_parent(src: str):
    """The package `src`/shuffledp, imported as PARENT beside the change's `shuffledp`."""
    init = os.path.join(src, "shuffledp", "__init__.py")
    spec = importlib.util.spec_from_file_location(PARENT, init, submodule_search_locations=[os.path.dirname(init)])
    sys.modules[PARENT] = pkg = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pkg)
    return pkg


def _src(pkg) -> str:
    return os.path.dirname(os.path.dirname(os.path.realpath(pkg.__file__)))


def _scripts(pkg) -> str:
    """The scripts directory beside the package's tree, which `PROCESSES` names {scripts}."""
    return os.path.join(_src(pkg), os.pardir, "scripts")


def check_scripts(sides: dict) -> None:
    """Exits naming the first {scripts} file of `PROCESSES` that a side's tree lacks,
    before any cell is measured (the `process` cells run last)."""
    for side, pkg in sides.items():
        for arg in (a for command in PROCESSES for a in shlex.split(command) if "{scripts}" in a):
            path = os.path.normpath(arg.format(scripts=_scripts(pkg)))
            if not os.path.isfile(path):
                raise SystemExit(f"the {side} tree has no {path}, which a process cell runs")


def check_trees(sides: dict) -> dict:
    """Each side's `src` and `exact_dist` file, with every module of each side loaded (so `pkg.cli` names it).

    Exits when both sides are one tree, or a side's module loads from
    outside its tree or holds a module or name of the other side's package.
    """
    modules = {}
    for side, pkg in sides.items():
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"{pkg.__name__}.{info.name}")
        modules[side] = {n: m for n, m in sys.modules.items() if n.partition(".")[0] == pkg.__name__}
    if len({_src(pkg) for pkg in sides.values()}) < len(sides):
        raise SystemExit(f"the parent and the change are both {_src(shuffledp)}")
    for side, pkg in sides.items():
        others = {n for other in modules if other != side for n in modules[other]}
        for name, module in modules[side].items():
            if not os.path.realpath(module.__file__).startswith(_src(pkg) + os.sep):
                raise SystemExit(f"{side} module {name} loads from {module.__file__}, outside {_src(pkg)}")
            for value in vars(module).values():
                owner = value.__name__ if isinstance(value, types.ModuleType) else getattr(value, "__module__", None)
                if owner in others:
                    raise SystemExit(f"{side} module {name} holds a name of {owner}")
    return {side: {"src": _src(pkg), "exact_dist": pkg.exact_dist.__file__} for side, pkg in sides.items()}


def digest(out) -> str:
    """SHA-256 of an output's bits: of bytes, arrays, containers' and dataclasses' items, enums' values, reprs."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, (bytes, np.ndarray)):
            h.update(np.ascontiguousarray(x) if isinstance(x, np.ndarray) else x)
        elif isinstance(x, (list, tuple, dict)) or dataclasses.is_dataclass(x):
            for item in x.items() if isinstance(x, dict) else x if isinstance(x, (list, tuple)) else vars(x).values():
                feed(item)
        else:
            h.update(repr(x.value if isinstance(x, enum.Enum) else x).encode())

    feed(out)
    return h.hexdigest()


def in_process(call):
    """An in-process cell's side: a timed call, giving its seconds and output, and a traced one, giving its peak MB."""

    def timed():
        start = time.perf_counter()
        out = call()
        return time.perf_counter() - start, out

    def traced():
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    return timed, traced


# Runs one `process` cell command, its stdout into the file argv[1], and prints
# wall seconds, peak RSS in KiB and the exit code.  A child's ru_maxrss counts the
# memory of the process that spawned it, so it is spawned from this bare
# interpreter (-S: about 9 MB; `python -c pass` peaks at about 13 MB).
_LAUNCHER = """
import os, sys, time
out = [(os.POSIX_SPAWN_OPEN, 1, sys.argv[1], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)]
start = time.perf_counter()
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ, file_actions=out)
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - start, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""


def in_fresh_process(args, src: str, tmp: str):
    """A `process` cell's side as `in_process` gives it, each call one `python *args` in `tmp` with `src` on
    PYTHONPATH: the timed one gives its wall seconds and stdout, the traced one its peak RSS in MiB."""
    stdout, env = os.path.join(tmp, "stdout"), {**os.environ, "PYTHONPATH": src}

    def spawn():
        cmd = [sys.executable, "-S", "-c", _LAUNCHER, stdout, sys.executable, *args]
        done = subprocess.run(cmd, capture_output=True, text=True, check=True, env=env, cwd=tmp)
        seconds, kb, rc = done.stdout.split()
        if rc != "0":
            raise RuntimeError(f"python {shlex.join(args)} failed: {done.stderr}")
        with open(stdout, "rb") as f:
            return float(seconds), int(kb) / 1024.0, f.read()

    return (lambda: spawn()[::2]), (lambda: spawn()[1])


def measure(runs: dict) -> dict:
    """Each side's (timed, traced) calls `runs[side]`: once to warm up, then ROUNDS rounds in ABBA order,
    the sides' timed calls next to each other and then their traced ones."""
    sides, cell = list(runs), {}
    for side, (timed, traced) in runs.items():
        traced()
        cell[side] = {"digest": digest(timed()[1])}
    seconds, peaks = ({side: [] for side in sides} for _ in range(2))
    for r in range(ROUNDS):
        order = sides[:: -1 if r % 2 else 1]
        for side in order:
            seconds[side].append(runs[side][0]()[0])
        for side in order:
            peaks[side].append(runs[side][1]())
    for side in sides:
        cell[side].update(min_s=min(seconds[side]), peak_mb=min(peaks[side]), peak_mb_max=max(peaks[side]))
    if len(sides) == 2:
        ratios = [c / p for p, c in zip(seconds["parent"], seconds["change"])]
        q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
        cell["ratio"] = {"median": median, "q1": q1, "q3": q3}
        cell["same_output"] = cell["parent"]["digest"] == cell["change"]["digest"]
    return cell


def process_files(tmp: str) -> dict:
    """The `PROCESSES` file placeholders, with the channel files written into `tmp`."""
    files = {"channel": channel(shuffledp, 3), "rr": shuffledp.rr_channel(1.1)}
    for name, ch in files.items():
        files[name] = os.path.join(tmp, f"{name}.json")
        with open(files[name], "w") as f:
            f.write(shuffledp.channel_to_json(ch))
    files["svg"] = os.path.join(tmp, "curve.svg")
    return files


def plan(sides: dict, smallest: bool, processes: bool, tmp: str):
    """Each cell's fields and each side's round, built one cell at a time."""
    for layer, d, n, k, m, reps, workers, *fixed in () if processes else CELLS[:1] if smallest else CELLS:
        cell = {"layer": layer, "d": d, "n": n, "k": k, "m": m, "reps": reps, "workers": workers}
        if fixed:
            cell["channel"] = fixed[0]
        runs = {}
        for side, pkg in sides.items():
            runs[side] = in_process(LAYERS[layer](pkg, channel(pkg, d, *fixed), n, k, m, reps, workers))
        yield cell, runs
    if smallest:
        return
    files = process_files(tmp)
    for command in PROCESSES:
        runs = {}
        for side, pkg in sides.items():
            fill = dict(files, scripts=_scripts(pkg))
            runs[side] = in_fresh_process([a.format(**fill) for a in shlex.split(command)], _src(pkg), tmp)
        yield {"layer": "process", "command": f"python {command}"}, runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", metavar="SRC", help="the parent tree's src directory, measured beside the change")
    only = ap.add_mutually_exclusive_group()
    only.add_argument("--smallest", action="store_true", help="measure only the first (smallest) cell")
    only.add_argument("--processes", action="store_true", help="measure only the `process` cells")
    args = ap.parse_args(argv)
    started = time.perf_counter()
    sides = {"parent": load_parent(args.parent)} if args.parent else {}
    sides["change"] = shuffledp
    out = {"python": platform.python_version(), "numpy": np.__version__, "machine": platform.machine()}
    out.update(rounds=ROUNDS, trees=check_trees(sides), cells=[])
    if not args.smallest:
        check_scripts(sides)
    with tempfile.TemporaryDirectory() as tmp:
        for cell, runs in plan(sides, args.smallest, args.processes, tmp):
            cell.update(measure(runs))
            out["cells"].append(cell)
            print(json.dumps(cell), file=sys.stderr, flush=True)
    out["run_s"] = time.perf_counter() - started
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
