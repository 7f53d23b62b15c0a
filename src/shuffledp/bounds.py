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
from .exact_dist import PrivacyCurve, Sidedness, _check_count, _check_eps, _check_eps_grid

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


def _lse_rows(a: np.ndarray) -> np.ndarray:
    """Stable log-sum-exp of each row of a 2-d array of finite entries."""
    m = a.max(axis=1)
    s = np.exp(a - m[:, None]).sum(axis=1)
    return m + np.fromiter(map(math.log, s.tolist()), np.float64, s.size)


def _chernoff_search(channel: Channel, n: int, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimizer lam and minimized exponent of g at every tau, in lockstep.

    g(lam) = -lam n tau + (n-1) log M(lam) + log (M + M')(lam) is minimized
    over lam > 0: the bracket doubles lam from 1 until g has increased on
    three consecutive doublings (or the overflow guard trips), then a
    golden-section search refines to width 1e-10.  Each tau keeps its own
    bracket and search state and leaves the loop when its search is done,
    so every entry takes exactly the steps a search of its own would take.
    Entries with tau >= max_y r(y) get lam = NaN and exponent -inf.
    """
    stats = score_stats(channel)
    r = stats.r
    r_max = float(r.max())
    lam = np.full(tau.size, math.nan)
    log_bound = np.full(tau.size, -math.inf)
    live = np.flatnonzero(tau < r_max - 1e-12 * max(1.0, r_max))
    if live.size == 0:
        return lam, log_bound

    # Per-channel pieces of the two log moment generating functions; the
    # sum M + M' collapses to the alt-law moment sum_y W1(y) e^{lam r(y)}.
    log_w0 = np.log(channel.W0)
    pos = channel.W1 > 0.0
    log_w1_pos = np.log(channel.W1[pos])
    r_pos = r[pos]
    n_f, n1_f = float(n), float(n - 1)

    def g(x: np.ndarray, t: np.ndarray) -> np.ndarray:
        log_m = _lse_rows(log_w0 + x[:, None] * r)
        log_m_plus = _lse_rows(log_w1_pos + x[:, None] * r_pos)
        return -x * n_f * t + n1_f * log_m + log_m_plus

    t = tau[live]
    lam_cap = _EXP_ARG_CAP / max(float(np.max(np.abs(r))), 1e-300)
    # Every bracket doubles the same lam from 1, so one value serves them all.
    step = 1.0
    hi = np.full(t.size, step)
    going = np.arange(t.size)
    prev = g(hi, t)
    increases = np.zeros(t.size, dtype=np.int64)
    while going.size and step < lam_cap:
        step = min(2.0 * step, lam_cap)
        cur = g(np.full(going.size, step), t[going])
        increases = np.where(cur > prev, increases + 1, 0)
        hi[going] = step
        keep = increases < 3
        going, prev, increases = going[keep], cur[keep], increases[keep]

    # Golden section on [0, hi]; the state holds the entries still refining.
    lam_star = np.empty(t.size)
    idx, tt, a, b = np.arange(t.size), t, np.zeros(t.size), hi
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = g(x1, tt), g(x2, tt)
    while True:
        done = ~(b - a > _GOLDEN_WIDTH)
        if done.any():
            lam_star[idx[done]] = 0.5 * (a[done] + b[done])
            keep = ~done
            idx, tt, a, b, x1, x2, f1, f2 = (v[keep] for v in (idx, tt, a, b, x1, x2, f1, f2))
            if idx.size == 0:
                break
        # f1 <= f2: the minimum lies in [a, x2] and x1 becomes the new x2;
        # otherwise it lies in [x1, b] and x2 becomes the new x1
        left = f1 <= f2
        a, b = np.where(left, a, x1), np.where(left, x2, b)
        probe = np.where(left, b - _INV_PHI * (b - a), a + _INV_PHI * (b - a))
        fp = g(probe, tt)
        x1, x2 = np.where(left, probe, x2), np.where(left, x1, probe)
        f1, f2 = np.where(left, fp, f2), np.where(left, f1, fp)
    g_star = g(lam_star, t)
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
