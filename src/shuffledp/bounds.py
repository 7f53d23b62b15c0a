"""Closed-form upper bounds on the exact privacy curve.

The forward curve of the canonical pair is E[(U_n - tau)_+] with
tau = e^eps - 1 and U_n the mean of n iid centered scores, so a Chernoff
argument bounds it by exp(-lambda n tau) M(lambda)^(n-1) (M + M')(lambda)
for every lambda > 0; the evaluator below minimizes the log of that bound.
A cruder Hoeffding-style bound covers the m-message (unbundled) curve.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channels import Channel, score_stats
from .exact_dist import _check_count, _check_eps

# Stop expanding the bracket once lambda * max|r| would overflow exp().
_EXP_ARG_CAP = 700.0

# Golden-section refinement runs down to this interval width.
_GOLDEN_WIDTH = 1e-10

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


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


def _lse(a: np.ndarray) -> float:
    """Stable log-sum-exp of a small vector of finite entries."""
    m = a.max()
    return float(m) + math.log(float(np.exp(a - m).sum()))


def chernoff_delta(channel: Channel, n: int, eps: float) -> ChernoffEvaluation:
    """Optimized Chernoff bound on the forward curve of the canonical pair.

    Minimizes g(lam) = -lam n tau + (n-1) log M(lam) + log (M + M')(lam)
    over lam > 0: the bracket doubles lam from 1 until g has increased on
    three consecutive doublings (or the overflow guard trips), then a
    golden-section search refines to width 1e-10.  When tau >= max_y r(y)
    the exact curve is zero (the averaged score cannot exceed max r) and
    zero is returned directly; that comparison carries a 1e-12 relative
    slack so the equality case eps = log w_max is detected despite the two
    sides being computed through different floating-point paths (the bound
    stays valid to within 1e-12 absolute).

    The result is clamped into [0, 1].
    """
    n = _check_count("n", n)
    _check_eps(eps)
    stats = score_stats(channel)
    tau = math.expm1(eps)
    r_max = float(stats.r.max())
    if tau >= r_max - 1e-12 * max(1.0, r_max):
        return ChernoffEvaluation(
            eps=eps, n=n, tau=tau, lam=math.nan, log_bound=-math.inf, bound=0.0
        )

    # Per-channel pieces of the two log moment generating functions; the
    # sum M + M' collapses to the alt-law moment sum_y W1(y) e^{lam r(y)}.
    r = stats.r
    log_w0 = np.log(channel.W0)
    pos = channel.W1 > 0.0
    log_w1_pos = np.log(channel.W1[pos])
    r_pos = r[pos]

    def g(lam: float) -> float:
        log_m = _lse(log_w0 + lam * r)
        log_m_plus = _lse(log_w1_pos + lam * r_pos)
        return -lam * n * tau + (n - 1) * log_m + log_m_plus

    r_scale = float(np.max(np.abs(stats.r)))
    lam_cap = _EXP_ARG_CAP / max(r_scale, 1e-300)
    hi = 1.0
    prev = g(hi)
    increases = 0
    while increases < 3 and hi < lam_cap:
        hi = min(2.0 * hi, lam_cap)
        cur = g(hi)
        increases = increases + 1 if cur > prev else 0
        prev = cur

    a, b = 0.0, hi
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = g(x1), g(x2)
    while b - a > _GOLDEN_WIDTH:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = g(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = g(x2)
    lam_star = 0.5 * (a + b)
    log_bound = min(g(lam_star), 0.0)  # lam -> 0+ gives the trivial bound 1
    return ChernoffEvaluation(
        eps=eps,
        n=n,
        tau=tau,
        lam=lam_star,
        log_bound=log_bound,
        bound=min(1.0, math.exp(log_bound)),
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
    tau = math.expm1(eps)
    log_bound = m * math.log(w_max) - 2.0 * n * tau * tau / w_max ** (2 * m)
    return min(1.0, math.exp(min(log_bound, 0.0)))
