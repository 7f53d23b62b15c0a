#!/usr/bin/env python3
"""In-process sweep of `sample_privacy_loss`: seconds and peak traced memory.

Usage (from the repository root, against the checkout on PYTHONPATH):

    PYTHONPATH=src python3 scripts/sampler_sweep.py > sweep.json

For every (d, n, k, workers) cell it reports the minimum of five wall times
of one call and the minimum `tracemalloc` peak of five further calls, all
after a warm-up call, so lazily imported modules are not counted.  (At two
workers the peak of one call depends on how the threads interleave.)  k > 0
cells build the exact pair table inside the call; cells whose table is over
the default cap or takes more than a few seconds to fold (d = 3 beyond
n = 190, d = 4 beyond n = 47) are listed as skipped.  Channels are fixed: FULL channels drawn from
seeded Dirichlet laws, the same for every run of the script.
"""

import json
import platform
import sys
import time
import tracemalloc

import numpy as np

import shuffledp
from shuffledp import Composition, Hypothesis, SimConfig, sample_privacy_loss, validate_channel

DS = (2, 3, 4)
NS = (47, 190, 1900, 20000)
WORKERS = (1, 2)
REPEATS = 5
MAX_TABLE_N = {2: 20000, 3: 190, 4: 47}


def channel(d: int):
    rng = np.random.default_rng(1000 + d)
    return validate_channel(
        0.8 * rng.dirichlet([2.0] * d) + 0.2 / d, 0.8 * rng.dirichlet([2.0] * d) + 0.2 / d
    )


def measure(ch, comp: Composition, config: SimConfig) -> dict:
    def call():
        return sample_privacy_loss(ch, comp, Hypothesis.ALT, config)

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


def main() -> int:
    cells = []
    for d in DS:
        ch = channel(d)
        for n in NS:
            reps = 10_000 if n <= 1900 else 1_000
            for k in (0, n // 3):
                for workers in WORKERS:
                    cell = {"d": d, "n": n, "k": k, "workers": workers, "reps": reps}
                    if k > 0 and n > MAX_TABLE_N[d]:
                        cell["skipped"] = "pair table too large to fold in seconds"
                    else:
                        cell.update(measure(ch, Composition(n, k), SimConfig(seed=7, reps=reps, workers=workers)))
                    cells.append(cell)
                    print(json.dumps(cell), file=sys.stderr, flush=True)
    print(
        json.dumps(
            {
                "package": shuffledp.__file__,
                "python": platform.python_version(),
                "numpy": np.__version__,
                "machine": platform.machine(),
                "hypothesis": "alt",
                "seed": 7,
                "repeats": REPEATS,
                "cells": cells,
            },
            indent=1,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
