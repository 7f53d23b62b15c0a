#!/usr/bin/env python3
"""In-process sweep of the exact engines and the sampler: seconds and peak traced memory.

Usage (from the repository root, against the checkout on PYTHONPATH):

    PYTHONPATH=src python3 scripts/layer_sweep.py > sweep.json
    PYTHONPATH=src python3 scripts/layer_sweep.py --smallest   # one cell only
    PYTHONPATH=/path/to/parent/src python3 scripts/layer_sweep.py > parent.json

Each cell times one call of its layer: `lr_atoms` at (n, k) (k = 0 in
closed form, k > 0 through the dense pair), `unbundled_lr_atoms` at m
messages per user, `divergences` of the `lr_atoms` atoms at (n, k) (built
before the timing), or `sample_privacy_loss` of `reps` draws under the alt
law with seed 7 on `workers` threads.  For each it reports the minimum of
five wall times of one call and the minimum `tracemalloc` peak of five
further calls, all after a warm-up call, so lazily imported modules and
first-call allocations are not counted.  At two workers the peak still
depends on how the threads' per-block temporaries overlap: repeats of the
minimum spread by a few percent (2.56-2.65 MB at d=2 n=47 k=15), so only a
one-worker peak can show a small change.  Channels are fixed: FULL channels
drawn from seeded Dirichlet laws, the same for every run of the script.
`scripts/bench_summary.py` joins the sweeps of two checkouts cell by cell.
"""

import argparse
import json
import platform
import sys
import time
import tracemalloc

import numpy as np

import shuffledp
from shuffledp import (
    Composition,
    Hypothesis,
    SimConfig,
    divergences,
    lr_atoms,
    sample_privacy_loss,
    unbundled_lr_atoms,
    validate_channel,
)

REPEATS = 5
SEED = 7
# the sampler's k > 0 table is folded only up to these n, so a cell takes seconds
MAX_TABLE_N = {2: 20000, 3: 190, 4: 47}
# (layer, d, n, k, m, reps, workers), the smallest first; reps and workers are the sampler's
CELLS = (
    ("lr_atoms", 2, 190, 63, 1, None, None),
    ("lr_atoms", 2, 1900, 633, 1, None, None),
    ("lr_atoms", 3, 60, 20, 1, None, None),
    ("lr_atoms", 3, 190, 63, 1, None, None),
    ("lr_atoms", 3, 400, 133, 1, None, None),
    ("lr_atoms", 4, 20, 6, 1, None, None),
    ("lr_atoms", 4, 59, 19, 1, None, None),
    ("lr_atoms", 4, 90, 30, 1, None, None),
    ("lr_atoms", 2, 950000, 0, 1, None, None),
    ("lr_atoms", 3, 1000, 0, 1, None, None),
    ("lr_atoms", 4, 120, 0, 1, None, None),
    ("lr_atoms", 5, 40, 0, 1, None, None),
    ("unbundled_lr_atoms", 2, 150, 0, 4, None, None),
    ("unbundled_lr_atoms", 3, 20, 0, 3, None, None),
    ("divergences", 2, 950000, 0, 1, None, None),
    ("divergences", 3, 1000, 0, 1, None, None),
) + tuple(
    ("sample_privacy_loss", d, n, k, 1, 10_000 if n <= 1900 else 1_000, workers)
    for d in (2, 3, 4)
    for n in (47, 190, 1900, 20000)
    for k in (0, n // 3)
    for workers in (1, 2)
    if k == 0 or n <= MAX_TABLE_N[d]
)


def _divergences(ch, n, k, m, reps, workers):
    atoms = lr_atoms(ch, Composition(n, k))
    return lambda: divergences(atoms)


# layer -> the cell's timed call; what the call reads is built before the timing
LAYERS = {
    "lr_atoms": lambda ch, n, k, m, reps, workers: lambda: lr_atoms(ch, Composition(n, k)),
    "unbundled_lr_atoms": lambda ch, n, k, m, reps, workers: lambda: unbundled_lr_atoms(ch, n, m),
    "divergences": _divergences,
    "sample_privacy_loss": lambda ch, n, k, m, reps, workers: lambda: sample_privacy_loss(
        ch, Composition(n, k), Hypothesis.ALT, SimConfig(seed=SEED, reps=reps, workers=workers)
    ),
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smallest", action="store_true", help="measure only the first (smallest) cell")
    args = ap.parse_args(argv)
    cells = []
    for layer, d, n, k, m, reps, workers in CELLS[:1] if args.smallest else CELLS:
        cell = {"layer": layer, "d": d, "n": n, "k": k, "m": m, "reps": reps, "workers": workers}
        cell.update(measure(LAYERS[layer](channel(d), n, k, m, reps, workers)))
        cells.append(cell)
        print(json.dumps(cell), file=sys.stderr, flush=True)
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
