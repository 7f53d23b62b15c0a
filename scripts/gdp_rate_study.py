#!/usr/bin/env python3
"""How fast does the shuffled pair become Gaussian?

Sweeps n for a randomized-response channel at the canonical pair (k=0 vs
k=1), computes the exact Kolmogorov distance between the standardized
privacy-loss law and its Gaussian limit under both hypotheses, and fits
the decay exponent.  Berry-Esseen predicts a slope of about -1/2.

    python3 scripts/gdp_rate_study.py --eps0 1.0 --n 100,400,1600,6400
"""

import gc

if __name__ == "__main__":
    gc.disable()  # import with no collections; the heap is frozen before main runs

import argparse
import sys

from shuffledp import (
    Hypothesis,
    binomial_lr_atoms,
    gdp_mu,
    kolmogorov_to_gaussian,
    rate_exponent,
    rr_channel,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--eps0", type=float, default=1.0, help="RR flip parameter")
    ap.add_argument(
        "--n", default="100,400,1600,6400", help="comma-separated user counts"
    )
    ap.add_argument("--csv", help="also write the table to this CSV file")
    args = ap.parse_args(argv)

    ns = sorted({int(x) for x in args.n.split(",")})
    if len(ns) < 3:
        ap.error("need at least three n values for a rate fit")
    channel = rr_channel(args.eps0)

    rows = []
    print(f"# rr(eps0={args.eps0}), canonical pair, exact atom enumeration")
    print(f"{'n':>8} {'mu':>12} {'ks_null':>12} {'ks_alt':>12}")
    for n in ns:
        atoms = binomial_lr_atoms(channel, n)
        mu = gdp_mu(channel, n).mu
        ks = {
            hyp: kolmogorov_to_gaussian(atoms, mu, hyp) for hyp in Hypothesis
        }
        rows.append((n, mu, ks[Hypothesis.NULL], ks[Hypothesis.ALT]))
        print(f"{n:>8d} {mu:>12.6f} {ks[Hypothesis.NULL]:>12.3e} {ks[Hypothesis.ALT]:>12.3e}")
        del atoms, ks  # so the next n's atoms are not built while these are held

    slope_null = rate_exponent([(n, v) for n, _, v, _ in rows])
    slope_alt = rate_exponent([(n, v) for n, _, _, v in rows])
    print(f"fitted slope (null): {slope_null:+.4f}")
    print(f"fitted slope (alt):  {slope_alt:+.4f}")
    print("prediction: -0.5 (Berry-Esseen)")

    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("n,mu,ks_null,ks_alt\n")
            for row in rows:
                fh.write(",".join("%.17g" % x for x in row) + "\n")
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    gc.freeze()
    gc.enable()
    sys.exit(main())
