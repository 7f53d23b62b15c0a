#!/usr/bin/env python3
"""In-process sweep of the exact engines and the sampler: seconds and peak traced memory.

Usage (from the repository root, against the checkout on PYTHONPATH):

    PYTHONPATH=src python3 scripts/layer_sweep.py > sweep.json
    PYTHONPATH=src python3 scripts/layer_sweep.py --smallest   # one cell only
    PYTHONPATH=/path/to/parent/src python3 scripts/layer_sweep.py > parent.json

Each cell times one call of its layer: `lr_atoms` at (n, k) (k = 0 in
closed form, k > 0 through the dense pair), `unbundled_lr_atoms` at m
messages per user, `divergences` of the `lr_atoms` atoms at (n, k) (built
before the timing), `_jsd` and `kolmogorov_to_gaussian` (null hypothesis,
mu of `gdp_mu`) of the k = 0 atoms, `conditional_score` at one histogram (the mean
histogram rounded down, its last count what remains), which builds the
pair's ratio table, `privacy_curve` (two-sided, on the CLI's default grid
`log:1e-3:10:64`) and `tradeoff_curve` of the `lr_atoms` atoms at (n, k)
(built before the timing; at d = 2 of randomized response at eps0 = 1.1,
the large-n workload's channel), `sample_privacy_loss` of `reps` draws under the alt
law with seed 7 on `workers` threads, `chernoff_curve` on a grid of 64 eps
from 0 to log w_max, or `chernoff_delta` at each eps of that grid, one call
each (64 calls).  For each it reports the minimum of
five wall times of one call and the minimum `tracemalloc` peak of five
further calls, all after a warm-up call, so lazily imported modules and
first-call allocations are not counted.  At two workers the peak still
depends on how the threads' per-block temporaries overlap: repeats of the
minimum spread by a few percent (2.56-2.65 MB at d=2 n=47 k=15), so only a
one-worker peak can show a small change.  Channels are fixed: FULL channels
drawn from seeded Dirichlet laws, the same for every run of the script.  A
cell with an eighth field runs instead on the channel `FIXED_CHANNELS`
gives that name, and reports it as `channel`: "d3-ties" is W0 = [0.5, 0.3,
0.2], W1 = [0.2, 0.35, 0.45], whose k = 0 cells share few mathematical
ratios, each split by rounding into several doubles (168,815 atoms of
485,195 cells at n = 1000).

The `process` cells (left out by --smallest) time what in-process cells
cannot: interpreter start-up, imports and exit.  Each runs one command in
fresh interpreters, which inherit this process's environment (so the
package on PYTHONPATH is the one they load): the bare interpreter
(`-c pass`), `-c "import shuffledp.cli"`, six `python -m
shuffledp.cli` jobs on the d = 3 channel: the exact `curve` at n = 190,
k = 63, `report` at n = 190, `curve --engine gdp` at n = 950000,
`simulate` at n = 190, k = 63 on one worker, and the same `curve` and
`simulate` (10,000 draws) with `--format json`; two on randomized response
at eps0 = 1.1: `report` at n = 950000, m = 2 and `curve --engine
chernoff` at n = 500000; and `scripts/gdp_rate_study.py` at n = 110000,
300000, 950000 (the script beside the package on PYTHONPATH, so each side
runs its own).  A cell reports the minimum wall time of five processes
after a warm-up one, and the minimum of their peak RSS (`ru_maxrss`, in
MiB as perfbench reports it) as `peak_mb`.  `scripts/bench_summary.py` joins the sweeps of
two checkouts cell by cell.
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np

import shuffledp
from shuffledp import (
    Composition,
    Hypothesis,
    Sidedness,
    SimConfig,
    channel_to_json,
    chernoff_curve,
    chernoff_delta,
    conditional_score,
    divergences,
    gdp_mu,
    kolmogorov_to_gaussian,
    lr_atoms,
    mean_histogram,
    privacy_curve,
    rr_channel,
    sample_privacy_loss,
    score_stats,
    tradeoff_curve,
    unbundled_lr_atoms,
    validate_channel,
)
from shuffledp.cli import DEFAULT_EPS_SPEC, parse_eps_grid
from shuffledp.exact_dist import _jsd

REPEATS = 5
SEED = 7
# the sampler's k > 0 table is folded only up to these n, so a cell takes seconds
MAX_TABLE_N = {2: 20000, 3: 190, 4: 47}
# channels a cell may name in an eighth field, in place of `channel(d)`
FIXED_CHANNELS = {"d3-ties": validate_channel([0.5, 0.3, 0.2], [0.2, 0.35, 0.45])}
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
    ("conditional_score", 3, 190, 63, 1, None, None),
    ("conditional_score", 4, 59, 19, 1, None, None),
    ("conditional_score", 2, 20000, 6666, 1, None, None),
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
)

# command -> interpreter arguments of the `process` cells; {channel} is the d = 3
# channel file, {rr} that of randomized response at eps0 = 1.1 and {scripts} the
# scripts directory beside the package on PYTHONPATH (src/shuffledp/../../scripts)
PROCESSES = {
    "python -c pass": ["-c", "pass"],
    "python -c 'import shuffledp.cli'": ["-c", "import shuffledp.cli"],
    "python -m shuffledp.cli curve d=3 n=190 k=63": [
        "-m", "shuffledp.cli", "curve", "--channel", "{channel}", "--n", "190", "--k", "63"
    ],
    "python -m shuffledp.cli report d=3 n=190": [
        "-m", "shuffledp.cli", "report", "--channel", "{channel}", "--n", "190"
    ],
    "python -m shuffledp.cli curve --engine gdp d=3 n=950000": [
        "-m", "shuffledp.cli", "curve", "--channel", "{channel}", "--n", "950000", "--engine", "gdp"
    ],
    "python -m shuffledp.cli simulate d=3 n=190 k=63 --workers 1": [
        "-m", "shuffledp.cli", "simulate", "--channel", "{channel}", "--n", "190", "--k", "63", "--workers", "1"
    ],
    "python -m shuffledp.cli curve --format json d=3 n=190 k=63": [
        "-m", "shuffledp.cli", "curve", "--channel", "{channel}", "--n", "190", "--k", "63", "--format", "json"
    ],
    "python -m shuffledp.cli simulate --format json d=3 n=190 k=63 --reps 10000 --workers 1": [
        "-m", "shuffledp.cli", "simulate", "--channel", "{channel}", "--n", "190", "--k", "63", "--reps", "10000",
        "--workers", "1", "--format", "json"
    ],
    "python -m shuffledp.cli report rr d=2 n=950000 m=2": [
        "-m", "shuffledp.cli", "report", "--channel", "{rr}", "--n", "950000", "--m", "2"
    ],
    "python -m shuffledp.cli curve --engine chernoff rr d=2 n=500000": [
        "-m", "shuffledp.cli", "curve", "--channel", "{rr}", "--n", "500000", "--engine", "chernoff"
    ],
    "python scripts/gdp_rate_study.py --n 110000,300000,950000": [
        "{scripts}/gdp_rate_study.py", "--n", "110000,300000,950000"
    ],
}


def _divergences(ch, n, k, m, reps, workers):
    atoms = lr_atoms(ch, Composition(n, k))
    return lambda: divergences(atoms)


def _jsd_cell(ch, n, k, m, reps, workers):
    atoms = lr_atoms(ch, Composition(n, 0))
    return lambda: _jsd(atoms)


def _kolmogorov(ch, n, k, m, reps, workers):
    atoms, mu = lr_atoms(ch, Composition(n, 0)), gdp_mu(ch, n).mu
    return lambda: kolmogorov_to_gaussian(atoms, mu, Hypothesis.NULL)


def _conditional_score(ch, n, k, m, reps, workers):
    comp = Composition(n, k)
    histogram = np.floor(mean_histogram(ch, comp)).astype(int)
    histogram[-1] = n - histogram[:-1].sum()
    return lambda: conditional_score(ch, comp, histogram.tolist())


def _curve_atoms(ch, n, k):
    """The atoms a curve cell reads: at d = 2 of randomized response at eps0 = 1.1."""
    return lr_atoms(rr_channel(1.1) if ch.d == 2 else ch, Composition(n, k))


def _privacy_curve(ch, n, k, m, reps, workers):
    atoms, eps = _curve_atoms(ch, n, k), parse_eps_grid(DEFAULT_EPS_SPEC)
    return lambda: privacy_curve(atoms, eps, Sidedness.TWO_SIDED)


def _tradeoff_curve(ch, n, k, m, reps, workers):
    atoms = _curve_atoms(ch, n, k)
    return lambda: tradeoff_curve(atoms)


def _chernoff_grid(ch) -> np.ndarray:
    return np.linspace(0.0, math.log(score_stats(ch).w_max), 64)


def _chernoff_curve(ch, n, k, m, reps, workers):
    eps = _chernoff_grid(ch)
    return lambda: chernoff_curve(ch, n, eps)


def _chernoff_delta(ch, n, k, m, reps, workers):
    eps = _chernoff_grid(ch).tolist()
    return lambda: [chernoff_delta(ch, n, e) for e in eps]


# layer -> the cell's timed call; what the call reads is built before the timing
LAYERS = {
    "lr_atoms": lambda ch, n, k, m, reps, workers: lambda: lr_atoms(ch, Composition(n, k)),
    "unbundled_lr_atoms": lambda ch, n, k, m, reps, workers: lambda: unbundled_lr_atoms(ch, n, m),
    "divergences": _divergences,
    "_jsd": _jsd_cell,
    "kolmogorov_to_gaussian": _kolmogorov,
    "conditional_score": _conditional_score,
    "privacy_curve": _privacy_curve,
    "tradeoff_curve": _tradeoff_curve,
    "sample_privacy_loss": lambda ch, n, k, m, reps, workers: lambda: sample_privacy_loss(
        ch, Composition(n, k), Hypothesis.ALT, SimConfig(seed=SEED, reps=reps, workers=workers)
    ),
    "chernoff_curve": _chernoff_curve,
    "chernoff_delta": _chernoff_delta,
}


def channel(d: int):
    rng = np.random.default_rng(1000 + d)
    return validate_channel(
        0.8 * rng.dirichlet([2.0] * d) + 0.2 / d, 0.8 * rng.dirichlet([2.0] * d) + 0.2 / d
    )


def measure(call) -> dict:
    call()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    peaks = []
    for _ in range(REPEATS):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return {"min_s": min(times), "peak_mb": min(peaks) / 1e6}


# Runs the `process` cells' commands.  A child's ru_maxrss counts the memory of
# the process that spawned it, so they are spawned from this bare interpreter
# (-S: no site, about 9 MB; a bare `python -c pass` peaks at about 13 MB), not
# from the sweep.  Prints wall seconds, peak RSS in KiB and exit code per run.
_LAUNCHER = """
import os, sys, time
runs, argv = int(sys.argv[1]), sys.argv[2:]
quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
for _ in range(runs):
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    print(time.perf_counter() - start, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""


def measure_process(args) -> dict:
    """Minimum wall seconds and peak RSS of fresh `python *args` processes, after a warm-up."""
    cmd = [sys.executable, "-S", "-c", _LAUNCHER, str(1 + REPEATS), sys.executable, *args]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    runs = [line.split() for line in out.stdout.splitlines()[1:]]
    if any(rc != "0" for _, _, rc in runs):
        raise RuntimeError(f"python {' '.join(args)} failed: {out.stderr}")
    return {"min_s": min(float(t) for t, _, _ in runs), "peak_mb": min(int(kb) for _, kb, _ in runs) / 1024.0}


def process_files(tmp: str) -> dict:
    """The `PROCESSES` placeholders, with the channel files written into `tmp`."""
    files = {"scripts": os.path.join(os.path.dirname(shuffledp.__file__), os.pardir, os.pardir, "scripts")}
    for name, ch in (("channel", channel(3)), ("rr", rr_channel(1.1))):
        files[name] = os.path.join(tmp, f"{name}.json")
        with open(files[name], "w") as f:
            f.write(channel_to_json(ch))
    return files


def process_cells() -> list:
    cells = []
    with tempfile.TemporaryDirectory() as tmp:
        files = process_files(tmp)
        for command, args in PROCESSES.items():
            cell = {"layer": "process", "command": command}
            cell.update(measure_process([a.format(**files) for a in args]))
            cells.append(cell)
            print(json.dumps(cell), file=sys.stderr, flush=True)
    return cells


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smallest", action="store_true", help="measure only the first (smallest) cell")
    args = ap.parse_args(argv)
    cells = []
    for layer, d, n, k, m, reps, workers, *fixed in CELLS[:1] if args.smallest else CELLS:
        cell = {"layer": layer, "d": d, "n": n, "k": k, "m": m, "reps": reps, "workers": workers}
        if fixed:
            cell["channel"] = fixed[0]
        ch = FIXED_CHANNELS[fixed[0]] if fixed else channel(d)
        cell.update(measure(LAYERS[layer](ch, n, k, m, reps, workers)))
        cells.append(cell)
        print(json.dumps(cell), file=sys.stderr, flush=True)
    if not args.smallest:
        cells += process_cells()
    print(
        json.dumps(
            {
                "package": shuffledp.__file__,
                "python": platform.python_version(),
                "numpy": np.__version__,
                "machine": platform.machine(),
                "repeats": REPEATS,
                "cells": cells,
            },
            indent=1,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
