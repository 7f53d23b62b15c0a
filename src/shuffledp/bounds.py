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

from .channels import _MAX_EPS, Channel, _check_eps, _Record, _score
from .records import PrivacyCurve, Sidedness, _check_count, _check_eps_grid

# The search brackets the minimizer by [0, lam_cap], where lam_cap * max|r| is
# this: exp() of lam * r stays far from overflow anywhere in the bracket.
_EXP_ARG_CAP = 700.0

# The bisection halves the bracket down to this width.
_LAM_WIDTH = 1e-10


class ChernoffEvaluation(_Record, frozen=True):
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


def _chernoff_search(channel: Channel, n: int):
    """The search of the channel at n users: a function of tau giving the minimizer lam and the
    minimized exponent of g, in Python floats.

    g(lam) = -lam n tau + (n-1) log M(lam) + log (M + M')(lam) is convex, a
    sum of log moment generating functions, so its slope
    g'(lam) = -n tau + (n-1) E_0,lam[r] + E_1,lam[r] (means of r under W0
    and W1 tilted by e^{lam r}) increases: bisecting [0, lam_cap] on the
    sign of g' finds the minimizer, or lam_cap when g' < 0 up to there.
    Every tau takes the same ceil(log2(lam_cap / 1e-10)) halvings, so a
    value does not depend on the grid around it, and g is evaluated once,
    at the last midpoint.  A tau >= max_y r(y) gets lam = NaN and
    exponent -inf.  Each tilt sums its d terms in symbol order, with libm's
    `exp` and `log`, so no value depends on a SIMD kernel.
    """
    r = _score(channel)[1]
    r_max = max(r)
    top_tau = r_max - 1e-12 * max(1.0, r_max)
    lam_cap = _EXP_ARG_CAP / max(max(map(abs, r)), 1e-300)
    # no tau >= 0 is below top_tau when r_max ~ 0, where lam_cap / 1e-10 may overflow
    steps = math.ceil(math.log2(lam_cap / _LAM_WIDTH)) if top_tau > 0.0 else 0
    # Per-channel pieces of the two log moment generating functions; the
    # sum M + M' collapses to the alt-law moment sum_y W1(y) e^{lam r(y)}.
    W0, W1 = channel._laws
    null = [(math.log(p), ry) for p, ry in zip(W0, r)]
    alt = [(math.log(p), ry) for p, ry in zip(W1, r) if p > 0.0]
    n_f, n1_f = float(n), float(n - 1)

    def tilt(x: float, law: list) -> tuple:
        """Max of log_w + x r, the sum of exp of the rest, and E[r] tilted."""
        a = [log_w + x * ry for log_w, ry in law]
        top = max(a)
        s = m = 0.0
        for ay, (_, ry) in zip(a, law):
            e = math.exp(ay - top)
            s += e
            m += e * ry
        return top, s, m / s

    def search(tau: float) -> tuple:
        if not tau < top_tau:
            return math.nan, -math.inf
        lo, hi = 0.0, lam_cap
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            if -n_f * tau + n1_f * tilt(mid, null)[2] + tilt(mid, alt)[2] > 0.0:
                hi = mid
            else:
                lo = mid
        lam = 0.5 * (lo + hi)
        (top0, s0, _), (top1, s1, _) = tilt(lam, null), tilt(lam, alt)
        g = -lam * n_f * tau + n1_f * (top0 + math.log(s0)) + (top1 + math.log(s1))
        return lam, 0.0 if g > 0.0 else g  # lam -> 0+ gives the trivial bound 1

    return search


def _tau(eps: float) -> float:
    """e^eps - 1, or inf above eps = _MAX_EPS = log(DBL_MAX) ~ 709.78, where every bound here is 0."""
    return math.expm1(eps) if eps <= _MAX_EPS else math.inf


def _bound(log_bound: float) -> float:
    """exp of an exponent, clamped at 1."""
    return min(1.0, math.exp(log_bound))


def _chernoff_curve(channel: Channel, n: int, eps) -> tuple[list, list]:
    """The float kernel of `chernoff_curve`: the checked grid of `eps` and the bound at each of its entries."""
    n = _check_count("n", n)
    grid = _check_eps_grid(eps)
    search = _chernoff_search(channel, n)
    return grid, [_bound(search(_tau(e))[1]) for e in grid]


def chernoff_curve(channel: Channel, n: int, eps) -> PrivacyCurve:
    """Optimized Chernoff bound on the forward curve of the canonical pair.

    At each eps of the grid this is `chernoff_delta(channel, n, eps).bound`,
    bit for bit: both are `_chernoff_search` at that eps alone.  When
    tau = e^eps - 1 >= max_y r(y) the exact curve is zero (the averaged score
    cannot exceed max r) and zero is returned directly; that comparison
    carries a 1e-12 relative slack so the equality case eps = log w_max is
    detected despite the two sides being computed through different
    floating-point paths (the bound stays valid to within 1e-12 absolute).
    Values are clamped into [0, 1].
    """
    import numpy as np

    grid, delta = _chernoff_curve(channel, n, eps)
    return PrivacyCurve(eps=np.array(grid), delta=np.array(delta), sidedness=Sidedness.FORWARD)


def chernoff_delta(channel: Channel, n: int, eps: float) -> ChernoffEvaluation:
    """`chernoff_curve` at one eps, with the minimizer and the raw exponent."""
    n = _check_count("n", n)
    _check_eps(eps)
    tau = _tau(eps)
    lam, log_bound = _chernoff_search(channel, n)(tau)
    return ChernoffEvaluation(eps=eps, n=n, tau=tau, lam=lam, log_bound=log_bound, bound=_bound(log_bound))


def unbundled_hoeffding_delta(channel: Channel, n: int, m: int, eps: float) -> float:
    """Hoeffding-style bound w_max^m exp(-2 n (e^eps - 1)^2 / w_max^{2m}).

    Covers the forward curve when each user sends m unbundled messages.
    The value is clamped into [0, 1]; at eps = 0 the formula degenerates to
    w_max^m >= 1 and a RuntimeWarning flags the vacuous clamp.
    """
    n = _check_count("n", n)
    m = _check_count("m", m)
    _check_eps(eps)
    w_max = max(_score(channel)[0])
    if eps == 0.0:
        warnings.warn(
            "unbundled Hoeffding bound is vacuous at eps = 0 (clamped to 1)",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1.0
    # tau^2 / w_max^(2m) in logs: 0 gives the exact vacuous 1; past e^_MAX_EPS the bound is 0
    decay = math.exp(min(2.0 * math.log(_tau(eps)) - 2.0 * m * math.log(w_max), _MAX_EPS))
    log_bound = m * math.log(w_max) - 2.0 * n * decay
    return min(1.0, math.exp(min(log_bound, 0.0)))
