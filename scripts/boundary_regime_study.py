#!/usr/bin/env python3
"""Where does the Gaussian picture break for shuffled randomized response?

The boundary parameter a_n = e^{eps0}/n separates three regimes: for
a_n -> 0 the privacy-loss law is asymptotically Gaussian, for a_n -> inf
it degenerates, and near a_n = 1 neither limit applies.  This script pins
a_n = n^{-alpha} (so eps0 = (1-alpha) log n) and shows
the exact Kolmogorov distance tracking the sqrt(a_n) envelope, then prints
the moment diagnostics on an (eps0, n) grid.

    python3 scripts/boundary_regime_study.py --alpha 0.5
"""

import gc

if __name__ == "__main__":
    gc.disable()  # import with no collections; the heap is frozen before main runs

import argparse
import math
import sys

from shuffledp import (
    Hypothesis,
    binomial_lr_atoms,
    gdp_mu,
    kolmogorov_to_gaussian,
    rate_exponent,
    rr_boundary,
    rr_channel,
)


def scaling_table(alpha: float, ns) -> None:
    print(f"# a_n = n^-{alpha:g}  (eps0 = {1 - alpha:g} * log n)")
    print(f"{'n':>8} {'eps0':>8} {'a_n':>10} {'sqrt(a_n)':>10} {'ks_null':>12} {'regime':>14}")
    points = []
    for n in ns:
        eps0 = (1.0 - alpha) * math.log(n)
        channel = rr_channel(eps0)
        b = rr_boundary(channel, n)
        ks = kolmogorov_to_gaussian(
            binomial_lr_atoms(channel, n), gdp_mu(channel, n).mu, Hypothesis.NULL
        )
        points.append((n, ks))
        print(
            f"{n:>8d} {eps0:>8.4f} {b.a_n:>10.3e} {math.sqrt(b.a_n):>10.3e} "
            f"{ks:>12.3e} {b.regime.value:>14}"
        )
    print(f"fitted ks slope: {rate_exponent(points):+.4f}  "
          f"(sqrt(a_n) envelope predicts {-alpha / 2:+.2f})")


def moment_grid(ns) -> None:
    print("\n# Lyapunov diagnostics: ratio = rho3 / (sigma^3 sqrt(n))")
    print(f"{'eps0':>6} {'n':>6} {'a_n':>10} {'ratio':>10} {'2*sqrt(a_n)':>12} {'regime':>14}")
    for eps0 in (0.5, math.log(3.0), 2.0, 4.0, 6.0):
        channel = rr_channel(eps0)
        for n in ns:
            b = rr_boundary(channel, n)
            print(
                f"{eps0:>6.3f} {n:>6d} {b.a_n:>10.3e} {b.lyapunov_ratio:>10.3e} "
                f"{b.lyapunov_bound:>12.3e} {b.regime.value:>14}"
            )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, default=0.5,
                    help="boundary exponent, a_n = n^-alpha (0 < alpha <= 1)")
    ap.add_argument("--n", default="400,1600,6400", help="comma-separated user counts")
    args = ap.parse_args(argv)
    if not 0.0 < args.alpha <= 1.0:
        ap.error("alpha must be in (0, 1]")
    ns = sorted({int(x) for x in args.n.split(",")})
    scaling_table(args.alpha, ns)
    moment_grid(ns)
    return 0


if __name__ == "__main__":
    gc.freeze()
    gc.enable()
    sys.exit(main())
