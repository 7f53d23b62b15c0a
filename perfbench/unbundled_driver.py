#!/usr/bin/env python3
"""Library driver: the exact m-message curve, which no CLI subcommand reaches.

Does what `shuffledp.unbundled_exact_curve` does (atomize with
`unbundled_lr_atoms`, then `privacy_curve` forward) but keeps the atoms so
their masses can be written out and checked.

    PYTHONPATH=src python3 perfbench/unbundled_driver.py \
        --channel ch.json --n 150 --m 3 --eps log:1e-3:10:64 --out curve.json
"""

import argparse
import json
import sys

from shuffledp import Sidedness, channel_from_json, privacy_curve, unbundled_lr_atoms
from shuffledp.cli import parse_eps_grid


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--channel", required=True)
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--m", type=int, required=True)
    ap.add_argument("--eps", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open(args.channel, encoding="utf-8") as fh:
        channel = channel_from_json(fh.read())
    atoms = unbundled_lr_atoms(channel, args.n, args.m)
    curve = privacy_curve(atoms, parse_eps_grid(args.eps), Sidedness.FORWARD)
    result = {
        "atoms": int(atoms.lr.size),
        "p_null_sum": float(atoms.p_null.sum()),
        "p_alt_sum": float(atoms.p_alt.sum()) + atoms.alt_singular_mass,
        "epsilon": curve.eps.tolist(),
        "delta": curve.delta.tolist(),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
