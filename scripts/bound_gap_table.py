#!/usr/bin/env python3
"""How loose are the closed-form bounds against the exact curve?

For a randomized-response channel this prints, on an epsilon grid, the
exact hockey-stick delta of the canonical shuffled pair next to the
optimized Chernoff bound and the Gaussian (GDP) approximation, then the
bundled-vs-unbundled chi-square ratio over message counts m.

    python3 scripts/bound_gap_table.py --eps0 1.0986 --n 60
"""

import argparse
import math
import sys

# shuffledp first: importing it before numpy caps numpy's BLAS pool at one thread
from shuffledp import (
    binomial_curve,
    chernoff_curve,
    gdp_delta,
    gdp_mu,
    mm_gdp_compare,
    rr_channel,
)

import numpy as np


def delta_table(channel, n: int, eps_grid) -> None:
    mu = gdp_mu(channel, n).mu
    exact = binomial_curve(channel, n, eps_grid).delta
    chernoff = chernoff_curve(channel, n, eps_grid).delta
    print(f"# n={n}, mu={mu:.6f}")
    print(f"{'eps':>8} {'exact':>12} {'chernoff':>12} {'gdp':>12} {'chernoff/exact':>15}")
    for eps, dx, ch in zip(eps_grid, exact, chernoff):
        gauss = gdp_delta(eps, mu)
        ratio = ch / dx if dx > 0 else math.inf
        print(f"{eps:>8.4f} {dx:>12.4e} {ch:>12.4e} {gauss:>12.4e} {ratio:>15.3f}")


def message_table(channel) -> None:
    print("\n# chi-square accounting per message count")
    print(f"{'m':>3} {'m*chi2':>10} {'(1+chi2)^m-1':>13} {'ratio':>8} {'lower bnd':>10}")
    for m in (1, 2, 3, 4, 6, 8):
        cmp = mm_gdp_compare(channel, m)
        print(
            f"{m:>3d} {cmp.unbundled_mu2n:>10.4f} {cmp.bundled_mu2n:>13.4f} "
            f"{cmp.ratio:>8.4f} {cmp.ratio_lower_bound:>10.4f}"
        )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--eps0", type=float, default=math.log(3.0))
    ap.add_argument("--n", type=int, default=60)
    ap.add_argument("--eps-max", type=float, default=None,
                    help="top of the epsilon grid (default: 0.95 * eps0)")
    ap.add_argument("--points", type=int, default=10)
    args = ap.parse_args(argv)

    channel = rr_channel(args.eps0)
    top = args.eps_max if args.eps_max is not None else 0.95 * args.eps0
    eps_grid = np.linspace(0.0, top, args.points)
    delta_table(channel, args.n, eps_grid)
    message_table(channel)
    return 0


if __name__ == "__main__":
    sys.exit(main())
