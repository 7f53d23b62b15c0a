#!/usr/bin/env python3
"""In-process sweep of the k > 0 and m-message pair: seconds and peak traced memory.

Usage (from the repository root, against the checkout on PYTHONPATH):

    PYTHONPATH=src python3 scripts/pair_sweep.py > pair_sweep.json
    PYTHONPATH=src python3 scripts/pair_sweep.py --smallest   # one cell only

Every cell is `lr_atoms` at k = n // 3 (m = 1) or `unbundled_lr_atoms` at
m messages per user (k = 0), both of which fold the pair's dense laws.  For
each it reports the minimum of five wall times of one call and the minimum
`tracemalloc` peak of five further calls, all after a warm-up call, so
lazily imported modules and first-call allocations are not counted.
Channels are fixed: FULL channels drawn from seeded Dirichlet laws, the same
for every run of the script.  `scripts/bench_summary.py` joins the sweeps
of two checkouts cell by cell.
"""

import argparse
import json
import platform
import sys
import time
import tracemalloc

import numpy as np

import shuffledp
from shuffledp import Composition, lr_atoms, unbundled_lr_atoms, validate_channel

REPEATS = 5
# (layer, d, n, m), smallest first
CELLS = (
    ("lr_atoms", 2, 190, 1),
    ("lr_atoms", 2, 1900, 1),
    ("lr_atoms", 3, 60, 1),
    ("lr_atoms", 3, 190, 1),
    ("lr_atoms", 3, 400, 1),
    ("lr_atoms", 4, 20, 1),
    ("lr_atoms", 4, 59, 1),
    ("lr_atoms", 4, 90, 1),
    ("unbundled_lr_atoms", 2, 150, 4),
    ("unbundled_lr_atoms", 3, 20, 3),
)


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
    for layer, d, n, m in CELLS[:1] if args.smallest else CELLS:
        ch = channel(d)
        if layer == "lr_atoms":
            k = n // 3
            call = lambda: lr_atoms(ch, Composition(n, k))  # noqa: E731
        else:
            k = 0
            call = lambda: unbundled_lr_atoms(ch, n, m)  # noqa: E731
        cell = {"layer": layer, "d": d, "n": n, "k": k, "m": m, **measure(call)}
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
