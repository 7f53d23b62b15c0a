"""Closed-form upper bounds on the exact privacy curve.

The forward curve of the canonical pair is E[(U_n - tau)_+] with
tau = e^eps - 1 and U_n the mean of n iid centered scores, so a Chernoff
argument bounds it by exp(-lambda n tau) M(lambda)^(n-1) (M + M')(lambda)
for every lambda > 0.  The log of that bound is convex in lambda, so the
evaluator below minimizes it by a fixed-count bisection on its slope.
A cruder Hoeffding-style bound covers the m-message (unbundled) curve.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channels import Channel, score_stats
from .exact_dist import PrivacyCurve, Sidedness, _check_count, _check_eps, _check_eps_grid

# The search brackets the minimizer by [0, lam_cap], where lam_cap * max|r| is
# this: exp() of lam * r stays far from overflow anywhere in the bracket.
_EXP_ARG_CAP = 700.0

# The bisection halves the bracket down to this width.
_LAM_WIDTH = 1e-10


@dataclass(frozen=True)
class ChernoffEvaluation:
    """One optimized Chernoff bound evaluation.

    `log_bound` is the raw minimized exponent (kept even when the reported
    `bound` was clamped at 1); `lam` is the minimizing parameter, NaN when
    the bound is exactly zero because tau >= max r.
    """

    eps: float
    n: int
    tau: float
    lam: float
    log_bound: float
    bound: float


def _chernoff_search(channel: Channel, n: int, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimizer lam and minimized exponent of g at every tau, in lockstep.

    g(lam) = -lam n tau + (n-1) log M(lam) + log (M + M')(lam) is convex, a
    sum of log moment generating functions, so its slope
    g'(lam) = -n tau + (n-1) E_0,lam[r] + E_1,lam[r] (means of r under W0
    and W1 tilted by e^{lam r}) increases: bisecting [0, lam_cap] on the
    sign of g' finds the minimizer, or lam_cap when g' < 0 up to there.
    Every tau takes the same ceil(log2(lam_cap / 1e-10)) halvings, so an
    entry's bits do not depend on the grid around it, and g is evaluated
    once, at the last midpoint.  Entries with tau >= max_y r(y) get
    lam = NaN and exponent -inf.
    """
    r = score_stats(channel).r
    r_max = float(r.max())
    lam = np.full(tau.size, math.nan)
    log_bound = np.full(tau.size, -math.inf)
    live = np.flatnonzero(tau < r_max - 1e-12 * max(1.0, r_max))
    if live.size == 0:
        return lam, log_bound

    # Per-channel pieces of the two log moment generating functions; the
    # sum M + M' collapses to the alt-law moment sum_y W1(y) e^{lam r(y)}.
    pos = channel.W1 > 0.0
    laws = ((np.log(channel.W0), r), (np.log(channel.W1[pos]), r[pos]))
    n_f, n1_f = float(n), float(n - 1)

    def tilt(x: np.ndarray, log_w: np.ndarray, rr: np.ndarray):
        """Per entry of x: max of log_w + x r, the sum of exp of the rest, and E[r] tilted."""
        a = log_w + x[:, None] * rr
        top = a.max(axis=1)
        e = np.exp(a - top[:, None])
        s = e.sum(axis=1)
        return top, s, (e * rr).sum(axis=1) / s  # not a matmul: one row would round differently

    t = tau[live]
    lam_cap = _EXP_ARG_CAP / max(float(np.max(np.abs(r))), 1e-300)
    lo, hi = np.zeros(t.size), np.full(t.size, lam_cap)
    for _ in range(math.ceil(math.log2(lam_cap / _LAM_WIDTH))):
        mid = 0.5 * (lo + hi)
        (_, _, mean0), (_, _, mean1) = (tilt(mid, *law) for law in laws)
        rising = -n_f * t + n1_f * mean0 + mean1 > 0.0
        lo, hi = np.where(rising, lo, mid), np.where(rising, mid, hi)
    lam_star = 0.5 * (lo + hi)
    log_m, log_m_plus = (
        top + np.fromiter(map(math.log, s.tolist()), np.float64, s.size)
        for top, s, _ in (tilt(lam_star, *law) for law in laws)
    )
    g_star = -lam_star * n_f * t + n1_f * log_m + log_m_plus
    lam[live] = lam_star
    log_bound[live] = np.where(g_star > 0.0, 0.0, g_star)  # lam -> 0+ gives the trivial bound 1
    return lam, log_bound


def _tau(eps: float) -> float:
    """e^eps - 1, or inf above eps = log(DBL_MAX) ~ 709.78, where every bound here is 0."""
    try:
        return math.expm1(eps)
    except OverflowError:
        return math.inf


def _bounds(log_bound: np.ndarray) -> list:
    """exp of each exponent, clamped at 1."""
    return [min(1.0, math.exp(v)) for v in log_bound.tolist()]


def chernoff_curve(channel: Channel, n: int, eps) -> PrivacyCurve:
    """Optimized Chernoff bound on the forward curve of the canonical pair.

    At each eps of the grid this is `chernoff_delta(channel, n, eps).bound`,
    bit for bit: both come from one lockstep search over the grid.  When
    tau = e^eps - 1 >= max_y r(y) the exact curve is zero (the averaged score
    cannot exceed max r) and zero is returned directly; that comparison
    carries a 1e-12 relative slack so the equality case eps = log w_max is
    detected despite the two sides being computed through different
    floating-point paths (the bound stays valid to within 1e-12 absolute).
    Values are clamped into [0, 1].
    """
    n = _check_count("n", n)
    grid = _check_eps_grid(eps)
    tau = np.array([_tau(e) for e in grid.tolist()])
    _, log_bound = _chernoff_search(channel, n, tau)
    return PrivacyCurve(eps=grid, delta=np.array(_bounds(log_bound)), sidedness=Sidedness.FORWARD)


def chernoff_delta(channel: Channel, n: int, eps: float) -> ChernoffEvaluation:
    """`chernoff_curve` at one eps, with the minimizer and the raw exponent."""
    n = _check_count("n", n)
    _check_eps(eps)
    tau = _tau(eps)
    lam, log_bound = _chernoff_search(channel, n, np.array([tau]))
    return ChernoffEvaluation(
        eps=eps,
        n=n,
        tau=tau,
        lam=float(lam[0]),
        log_bound=float(log_bound[0]),
        bound=_bounds(log_bound)[0],
    )


def unbundled_hoeffding_delta(channel: Channel, n: int, m: int, eps: float) -> float:
    """Hoeffding-style bound w_max^m exp(-2 n (e^eps - 1)^2 / w_max^{2m}).

    Covers the forward curve when each user sends m unbundled messages.
    The value is clamped into [0, 1]; at eps = 0 the formula degenerates to
    w_max^m >= 1 and a RuntimeWarning flags the vacuous clamp.
    """
    n = _check_count("n", n)
    m = _check_count("m", m)
    _check_eps(eps)
    w_max = score_stats(channel).w_max
    if eps == 0.0:
        warnings.warn(
            "unbundled Hoeffding bound is vacuous at eps = 0 (clamped to 1)",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1.0
    # tau^2 / w_max^(2m) in logs: 0 gives the exact vacuous 1; past e^700 the bound is 0
    decay = math.exp(min(2.0 * math.log(_tau(eps)) - 2.0 * m * math.log(w_max), 700.0))
    log_bound = m * math.log(w_max) - 2.0 * n * decay
    return min(1.0, math.exp(min(log_bound, 0.0)))
