"""Data-processing invariants: one more user never makes the pair easier to tell apart.

A user added to both datasets maps the histogram N to N + e_Y, with Y drawn
from W0 (input 0) or W1 (input 1): one Markov kernel applied to both laws of
the pair.  So the pairs (n+1, k) and (n+1, k+1) are post-processings of
(n, k), and the m-message pair at n+1 users is one of the pair at n (m more
W0-messages on both sides).  Data processing then bounds every hockey-stick
delta(eps), FORWARD and REVERSE, every f-divergence (JSD, TV, chi^2, KL)
and the Renyi divergences of orders 2 and 3 of the larger pair by those of
the smaller, and its trade-off curve f_{n+1} lies on or above f_n.  At
k = 0 the pair (n+1, 1) comes from the dense fold and (n, 0) from the
closed-form chain, so the inequality ties the two engines together at
every size.

Tolerance.  Each quantity is a sum of p_null g(L) over the atoms, and its
rounding comes from the ratios L, each within a few ulps: so it is at most
some ulps of its scale S = sum p_null L |g'(L)| (for delta(eps), the alt
mass above e^eps).  The k = 0 pair at the sizes drawn here, once from the
chain and once from the fold, differed by at most 9.9 ulps of S over 24,000
random FULL channels (delta REVERSE; 3.2 FORWARD, 3.1 TV, 2.3 JSD, 1.9 KL,
1.8 chi^2); the m-message ratios are within 2e-15 (9 ulps) of their
coefficient oracle (`tests/test_multimessage.py`).  An excess is allowed up
to TOL_ULPS ulps of the larger of the two pairs' S, and nothing absolute.

The Renyi divergence D = log(M) / (a - 1) of order a takes the log of the
moment M = sum p_null L^a, whose S is a M; so D rounds within some ulps of
a / (a - 1) + D, its scale here.  The trade-off curve's vertices are
cumulative sums of the atoms' masses, beta taken as 1 minus one, so its
scale is 1: an alpha off by some ulps of itself moves the polyline's beta
by that times the slope L, and alpha L is at most the alt mass swept.  The
k = 0 pair from the chain and the fold differed by at most 2.0 ulps of the
Renyi scale (orders 2 and 3) and 4.5 ulps of 1 between the trade-off
curves at the vertices of both, over 6,000 random FULL channels at the
sizes drawn here.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shuffledp import (
    Composition,
    Sidedness,
    divergences,
    lr_atoms,
    privacy_curve,
    reverse_atomization,
    rr_channel,
    score_stats,
    tradeoff_curve,
    unbundled_lr_atoms,
)
from shuffledp.cli import DEFAULT_EPS_SPEC, parse_eps_grid
from conftest import full_channel

TOL_ULPS = 64
ULP = np.finfo(np.float64).eps

# largest n drawn at each d: the fold of (n+1, k+1) stays a few ms
MAX_N = {2: 60, 3: 25, 4: 10, 5: 7}
MAX_MM_N = {2: 60, 3: 20, 4: 8, 5: 5}

RENYI_ORDERS = (2.0, 3.0)

# g'(L) of each divergence's term p_null g(L)
SLOPES = {
    "jsd": lambda lr: 0.5 * np.log(2.0 * lr / (1.0 + lr)),
    "tv": lambda lr: (lr > 1.0).astype(np.float64),
    "chi2": lambda lr: 2.0 * (lr - 1.0),
    "kl": lambda lr: np.log(lr) + 1.0,
}


def _delta_scale(atoms, eps, sidedness):
    """S of delta(eps): the alt mass of the atoms above e^eps (of the reversed pair for REVERSE)."""
    if sidedness is Sidedness.REVERSE:
        atoms = reverse_atomization(atoms)
    tail = np.append(np.cumsum(atoms.p_alt[::-1])[::-1], 0.0)
    return tail[np.searchsorted(atoms.lr, np.exp(eps), side="right")] + atoms.alt_singular_mass


def _assert_no_larger(smaller, larger, eps, what):
    """Every delta and divergence of the pair `larger` (one more user) is at most that of `smaller`."""
    for sidedness in (Sidedness.FORWARD, Sidedness.REVERSE):
        before = privacy_curve(smaller, eps, sidedness).delta
        after = privacy_curve(larger, eps, sidedness).delta
        scale = np.maximum(_delta_scale(smaller, eps, sidedness), _delta_scale(larger, eps, sidedness))
        bad = np.flatnonzero(after - before > TOL_ULPS * ULP * scale)
        assert bad.size == 0, (what, sidedness.value, eps[bad], before[bad], after[bad])
    before, after = divergences(smaller, RENYI_ORDERS), divergences(larger, RENYI_ORDERS)
    for name, slope in SLOPES.items():
        scale = max(float(np.sum(a.p_null * a.lr * np.abs(slope(a.lr)))) for a in (smaller, larger))
        b, a = getattr(before, name), getattr(after, name)
        assert a - b <= TOL_ULPS * ULP * scale, (what, name, b, a)
    for order in RENYI_ORDERS:
        b, a = before.renyi[order], after.renyi[order]
        assert a - b <= TOL_ULPS * ULP * (order / (order - 1.0) + max(a, b)), (what, order, b, a)
    # f_{n+1} >= f_n at every vertex of both trade-off curves
    f_before, f_after = tradeoff_curve(smaller), tradeoff_curve(larger)
    alpha = np.concatenate((f_before.alpha, f_after.alpha))
    bad = np.flatnonzero(f_before.beta_at(alpha) - f_after.beta_at(alpha) > TOL_ULPS * ULP)
    assert bad.size == 0, (what, "trade-off", alpha[bad], f_before.beta_at(alpha[bad]), f_after.beta_at(alpha[bad]))


def _grid(channel):
    """64 eps from 0 to log w_max, beyond which every delta is 0."""
    return np.linspace(0.0, math.log(score_stats(channel).w_max), 64)


@st.composite
def _cases(draw, sizes):
    """A FULL channel at d = 2..5, a user count n and a count of ones k < n, often 0."""
    d = draw(st.integers(2, 5))
    channel = full_channel(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), d)
    n = draw(st.integers(1, sizes[d]))
    return channel, n, draw(st.one_of(st.just(0), st.integers(0, n - 1)))


@settings(max_examples=80)
@given(_cases(MAX_N))
@example((full_channel(np.random.default_rng(5), 3), 25, 0))
@example((full_channel(np.random.default_rng(5), 4), 10, 3))
def test_one_more_user_never_raises_delta_or_a_divergence(case):
    # at k = 0, (n+1, 1) is the fold and (n, 0) the chain
    channel, n, k = case
    eps = _grid(channel)
    base = lr_atoms(channel, Composition(n, k))
    for more in (Composition(n + 1, k), Composition(n + 1, k + 1)):
        _assert_no_larger(base, lr_atoms(channel, more), eps, (channel.d, n, k, more))


@settings(max_examples=30)
@given(_cases(MAX_MM_N), st.integers(2, 4))
def test_one_more_user_never_raises_the_m_message_delta(case, m):
    channel, n, _ = case
    smaller, larger = unbundled_lr_atoms(channel, n, m), unbundled_lr_atoms(channel, n + 1, m)
    _assert_no_larger(smaller, larger, _grid(channel), (channel.d, n, m))


def test_one_more_user_at_large_n():
    # randomized response at eps0 = 1.1 on the CLI's default grid, where the
    # k = 0 window keeps about 31,600 cells and delta reaches 1e-307
    rr = rr_channel(1.1)
    eps = parse_eps_grid(DEFAULT_EPS_SPEC)
    smaller, larger = lr_atoms(rr, Composition(950_000, 0)), lr_atoms(rr, Composition(950_001, 0))
    _assert_no_larger(smaller, larger, eps, "rr n=950000")
    assert privacy_curve(larger, eps).delta[0] < privacy_curve(smaller, eps).delta[0]
