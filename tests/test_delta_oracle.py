"""delta against a 50-digit oracle: `privacy_curve` of `lr_atoms` on the exact pair.

`conftest.mp_pair_masses` builds the null and alt masses of the pair
(T_{n,k}, T_{n,k+1}) to 50 digits from the doubles W0 and W1, and
`conftest.mp_hockey_stick` sums delta(eps) from them with no cancellation,
so the reference holds its digits however deep delta is (down to 1e-197
here).  FORWARD is checked at every point of a 64-point grid over
[0, log w_max] and REVERSE over [0, log(1/w_min)], the top ratios of the
pair and of the reversed pair, at k = 0 (the closed-form chain) and
k = n/3 (the dense fold).  Two channels share W0 = [1/3, 1/3, 1/3]: on
"tiny-ratio" the cells' ratios 9e-20, 4.5e-14 and 9e-14 differ by orders
of magnitude, which a merge of ratios within an absolute 1e-12 joined into
one atom (its reverse delta read 0.0437 for 0.1330 at eps = 30.63, n = 2);
on "symmetric" the ratio depends on one count only, so many cells share
each mathematical ratio, split by rounding into doubles a few ulps apart.

Tolerance.  The engine rounds each ratio L within a few ulps, so delta is
off by at most some ulps of the alt mass S above e^eps, which is also the
scale of `tests/test_data_processing.py`; relative to delta itself the error
grows as S / delta where an atom sits just above e^eps.  On 120 pairs of
random FULL channels at d = 2 (n <= 120) and d = 3 (n <= 30), 15,360
points, the engine was within 5.4 ulps of S, and within 3.3e-12 of delta
relative; on the cases below, within 3.6e-13 relative at every delta from
0.5 down to 1e-171.  The test allows TOL_ULPS ulps of S.

Ties.  An atom whose ratio is within TIE_REL_TOL of e^eps is a tie, which
the engine leaves out of delta.  The oracle returns the part of delta from
such cells, and there the engine must lie between delta less that part and
delta.  The one tie is at the grid's end, eps = log w_max: the histogram
of n copies of the symbol of largest W1/W0 has ratio w_max exactly (and
that of the smallest has 1/w_min in the reversed pair), and e^eps rounds
to either side of it (below it for rr 1.1 at n = 300, where
the oracle's delta is 1.3e-197 at k = 0 and 7.6e-150 at k = 100, and the
engine's 0).
"""

import math

import numpy as np
import pytest

from shuffledp import Composition, Sidedness, lr_atoms, privacy_curve, rr_channel, score_stats, validate_channel
from conftest import full_channel, mp_hockey_stick, mp_pair_masses

TOL_ULPS = 64
ULP = np.finfo(np.float64).eps

CHANNELS = {
    "rr1.1": rr_channel(1.1),
    "full-d2": full_channel(np.random.default_rng(3), 2),
    "full-d3": full_channel(np.random.default_rng(5), 3),
    "tiny-ratio": validate_channel([1 / 3] * 3, [3e-14, 3e-20, 1 - 3e-14 - 3e-20]),
    "symmetric": validate_channel([1 / 3] * 3, [0.5, 0.25, 0.25]),
}


@pytest.mark.parametrize(
    "name, n, k",
    [("rr1.1", 300, 0), ("rr1.1", 300, 100), ("full-d2", 57, 0), ("full-d2", 57, 19), ("full-d3", 40, 0),
     ("full-d3", 40, 13), ("tiny-ratio", 2, 0), ("tiny-ratio", 6, 2), ("symmetric", 40, 0), ("symmetric", 40, 13)],
)
def test_delta_matches_the_50_digit_oracle(name, n, k):
    channel = CHANNELS[name]
    null, alt = mp_pair_masses(channel, Composition(n, k))
    atoms = lr_atoms(channel, Composition(n, k))
    w = score_stats(channel).w
    for sidedness, p, q, top in ((Sidedness.FORWARD, null, alt, w.max()), (Sidedness.REVERSE, alt, null, 1 / w.min())):
        eps = np.linspace(0.0, math.log(top), 64)
        got = privacy_curve(atoms, eps, sidedness).delta
        for e, value, (delta, tie, scale) in zip(eps, got, mp_hockey_stick(p, q, eps)):
            slack = TOL_ULPS * ULP * float(scale)
            assert float(delta - tie) - slack <= value <= float(delta) + slack, (sidedness.value, e, value, delta, tie)
            # the only tie: every cell's ratio is at most the top one, and
            # the cell of n copies of its symbol has exactly that ratio
            assert tie == 0 or e == eps[-1], (sidedness.value, e, tie)
