"""Gaussian and small-divergence asymptotics of the shuffled pair.

As n grows, testing T_{n,k} against T_{n,k+1} looks like testing N(0,1)
against N(mu, 1) with mu^2 = I_pi / n (times the message count m when each
user contributes m independent messages).  This module evaluates that
Gaussian limit — curve, trade-off, effective mu — and the matching
divergence expansions whose leading constants are I_pi / n times a
functional-specific factor.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channels import Channel, _check_eps, score_stats
from .errors import EnumerationCapError, ValidationError
from .exact_dist import Composition, _check_count, _check_eps_grid, _jsd, lr_atoms
from .simplex_linalg import fisher_constant


_SQRT_HALF = math.sqrt(0.5)


def _ndtr(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF over a 1-d array, as 0.5 erfc(-x / sqrt 2).

    The complementary error function keeps full relative accuracy in the
    lower tail, where 0.5 (1 + erf(x / sqrt 2)) cancels to 0 (below
    x ~ -8.3) and the Gaussian curve's second term needs values down to
    ~1e-300.
    """
    return 0.5 * np.fromiter(map(math.erfc, (-x * _SQRT_HALF).tolist()), np.float64, x.size)


class GdpSource(Enum):
    """Which recipe produced the Gaussian parameter mu."""

    CANONICAL = "canonical"        # k = 0 pair: mu^2 = chi2 / n
    PROPORTIONAL = "proportional"  # k = pi n pair: mu^2 = I_pi / n
    UNBUNDLED = "unbundled"        # m messages per user: mu^2 = m I_pi / n


@dataclass(frozen=True)
class GdpParams:
    mu: float
    n: int
    pi: float
    m: int
    source: GdpSource


@dataclass(frozen=True)
class ExpansionReport:
    """Truncated divergence expansion next to its exact value (if computed).

    `terms` are the successive expansion orders; `asymptotic` is their sum,
    and `residual` = exact - asymptotic when an exact value is available.
    """

    n: int
    terms: tuple[float, ...]
    asymptotic: float
    exact: float | None = None
    residual: float | None = None


def gdp_mu(channel: Channel, n: int, pi: float = 0.0, m: int = 1) -> GdpParams:
    """Effective Gaussian shift mu = sqrt(m I_pi / n) for the shuffled pair.

    pi = 0 gives the canonical pair (I_0 is the chi-square of the channel);
    m > 1 accounts for users sending m unbundled messages each.
    """
    n = _check_count("n", n)
    m = _check_count("m", m)
    fisher = fisher_constant(channel, pi).fisher
    mu = math.sqrt(m * fisher / n)
    if m > 1:
        source = GdpSource.UNBUNDLED
    elif pi == 0.0:
        source = GdpSource.CANONICAL
    else:
        source = GdpSource.PROPORTIONAL
    return GdpParams(mu=mu, n=n, pi=float(pi), m=m, source=source)


def gdp_delta(eps, mu: float):
    """Privacy curve of the unit-variance Gaussian pair at shift mu.

    delta(eps) = Phi(-eps/mu + mu/2) - e^eps Phi(-eps/mu - mu/2); the
    degenerate mu = 0 pair is perfectly private (delta = 0).  Takes one eps
    (float out) or an eps grid (array out).  For mu > 0 an eps above
    log(DBL_MAX) ~ 709.78, where e^eps overflows, raises ValidationError.
    """
    if not (mu >= 0.0):
        raise ValidationError(f"mu must be >= 0, got {mu!r}")
    scalar = np.isscalar(eps)
    if scalar:
        _check_eps(eps)  # the scalar error message
    e = _check_eps_grid(eps).ravel()
    if mu == 0.0:
        delta = np.zeros(e.size)
    else:
        _check_eps(float(e.max()), caller="gdp_delta")
        # libm's exp per eps, as a scalar call gets: numpy's SIMD exp can differ in the last bit
        growth = np.fromiter(map(math.exp, e.tolist()), np.float64, e.size)
        with np.errstate(over="ignore"):  # e / mu = inf at a subnormal mu, where Phi(-inf) = 0 is the limit
            delta = np.clip(_ndtr(-e / mu + mu / 2.0) - growth * _ndtr(-e / mu - mu / 2.0), 0.0, 1.0)
    return float(delta[0]) if scalar else delta.reshape(np.shape(eps))


def gaussian_tradeoff(mu: float, alpha):
    """Optimal type-II error of the Gaussian pair: Phi(Phi^{-1}(1-alpha) - mu).

    Vectorized over alpha; endpoints map to beta(0) = 1 and beta(1) = 0.
    """
    from statistics import NormalDist  # also loads fractions, decimal and random

    if not (mu >= 0.0):
        raise ValidationError(f"mu must be >= 0, got {mu!r}")
    a = np.asarray(alpha, dtype=np.float64)
    if not np.all((a >= 0.0) & (a <= 1.0)):
        raise ValidationError("alpha must lie in [0, 1]")
    p = np.atleast_1d(1.0 - a).ravel()
    # Phi^{-1} is +-inf at 1 and 0, where NormalDist.inv_cdf raises
    z = np.where(p >= 1.0, np.inf, np.where(p <= 0.0, -np.inf, np.nan))
    inner = (p > 0.0) & (p < 1.0)
    inv_cdf = NormalDist().inv_cdf
    z[inner] = [inv_cdf(v) for v in p[inner].tolist()]
    out = _ndtr(z - mu).reshape(a.shape)
    out = np.where(a == 0.0, 1.0, np.where(a == 1.0, 0.0, out))
    return float(out) if np.isscalar(alpha) else out


def jsd_canonical_asymptotic(
    channel: Channel, n: int, exact: float | None = None
) -> ExpansionReport:
    """Three-term expansion of JSD(T_{n,0} || T_{n,1}).

    terms = (chi2/(8n), -mu3/(16 n^2), (7/64) chi2^2 / n^2); the remainder
    is third order in 1/n.  The exact value is filled in automatically when
    the k = 0 atoms take at most `_AUTO_EXACT_CAP` built cells (about
    40 sqrt(n) at d = 2, so up to n ~ 6e8; for channels with masses near
    1/d, d = 3 up to n ~ 1400 and d = 4 up to n ~ 180), or can be supplied
    by the caller.
    """
    n = _check_count("n", n)
    stats = score_stats(channel)
    terms = (
        stats.chi2 / (8.0 * n),
        -stats.mu3 / (16.0 * n * n),
        (7.0 / 64.0) * (stats.chi2 * stats.chi2) / (n * n),
    )
    asymptotic = sum(terms)
    if math.isnan(asymptotic):
        # mu3 and chi2^2 are both beyond the double range (-inf + inf): the
        # sum taken with r scaled by s = 2^-k <= 1 / w_max, then divided by
        # s^2, is the true sum, or its signed infinity if that is beyond too
        s = 2.0 ** -math.frexp(stats.w_max)[1]
        rs = stats.r * s
        chi2_s = float(np.dot(stats.v, rs))
        mu3_s2 = float(np.dot(stats.v * rs, rs))
        scaled = chi2_s * s / (8.0 * n) - mu3_s2 / (16.0 * n * n) + (7.0 / 64.0) * (chi2_s * chi2_s) / (n * n)
        asymptotic = scaled / s / s
    if exact is None:
        exact = _exact_canonical_jsd(channel, n)
    residual = None if exact is None else exact - asymptotic
    return ExpansionReport(n=n, terms=terms, asymptotic=asymptotic, exact=exact, residual=residual)


# Cells the automatic exact JSD may build (`lr_atoms`'s cap at k = 0).
_AUTO_EXACT_CAP = 1_000_000


def _exact_canonical_jsd(channel: Channel, n: int) -> float | None:
    try:
        return _jsd(lr_atoms(channel, Composition(n, 0), cap=_AUTO_EXACT_CAP))
    except EnumerationCapError:
        return None


def leading_divergence(
    channel: Channel,
    n: int,
    pi: float,
    kind: str = "jsd",
    *,
    curvature: float | None = None,
    order: float | None = None,
) -> float:
    """Leading small-divergence constant of the pair (T_{n,k}, T_{n,k+1}).

    kind "jsd" gives I_pi/(8n); kind "f" gives curvature/2 * I_pi/n for a
    smooth f-divergence with f''(1) = curvature; kind "renyi" gives
    order * I_pi / (2n).
    """
    n = _check_count("n", n)
    fisher = fisher_constant(channel, pi).fisher
    if kind == "jsd":
        return fisher / (8.0 * n)
    if kind == "f":
        if curvature is None or not (0.0 <= curvature < math.inf):
            raise ValidationError("kind='f' needs a finite curvature = f''(1) >= 0")
        return 0.5 * curvature * fisher / n
    if kind == "renyi":
        if order is None or not (1.0 <= order < math.inf):
            raise ValidationError("kind='renyi' needs a finite order >= 1")
        return order * fisher / (2.0 * n)
    raise ValidationError(f"unknown divergence kind {kind!r}")
