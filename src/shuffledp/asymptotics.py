"""Gaussian and small-divergence asymptotics of the shuffled pair.

As n grows, testing T_{n,k} against T_{n,k+1} looks like testing N(0,1)
against N(mu, 1) with mu^2 = I_pi / n (times the message count m when each
user contributes m independent messages).  This module evaluates that
Gaussian limit — curve, trade-off, effective mu — and the matching
divergence expansions whose leading constants are I_pi / n times a
functional-specific factor, next to the other closed forms `report` prints:
the bundled-versus-unbundled comparison of m messages per user and the
normal-approximation diagnostics of randomized response.

The closed forms run on Python floats, so `gdp_mu` and the Gaussian curve
load no numpy; numpy is imported only where an array is returned.
"""

import math
import numbers
import operator
from enum import Enum

from .channels import _MAX_EPS, Channel, _check_eps, _fdot, _Record, _score
from .errors import EnumerationCapError, ValidationError
from .records import Composition, _check_count, _check_eps_grid
from .simplex_linalg import _fisher, _require_full


_SQRT_HALF = math.sqrt(0.5)

# `rr_boundary`'s regimes: a_n below the first value is sub-critical, above the second super-critical
_REGIME_THRESHOLDS = (0.1, 10.0)


def _phi(x: float) -> float:
    """Standard normal CDF, as 0.5 erfc(-x / sqrt 2).

    The complementary error function keeps full relative accuracy in the
    lower tail, where 0.5 (1 + erf(x / sqrt 2)) cancels to 0 (below
    x ~ -8.3) and the Gaussian curve's second term needs values down to
    ~1e-300.
    """
    return 0.5 * math.erfc(-x * _SQRT_HALF)


def _ndtr(x: "np.ndarray") -> "np.ndarray":
    """`_phi` at each entry of a 1-d array, bit for bit: numpy scales the
    entries as `_phi` scales one, and erfc is mapped in C, not per call."""
    import numpy as np

    return 0.5 * np.fromiter(map(math.erfc, (-x * _SQRT_HALF).tolist()), np.float64, x.size)


class GdpSource(Enum):
    """Which recipe produced the Gaussian parameter mu."""

    CANONICAL = "canonical"        # k = 0 pair: mu^2 = chi2 / n (I_0 is chi2, bit for bit)
    PROPORTIONAL = "proportional"  # k = pi n pair: mu^2 = I_pi / n
    UNBUNDLED = "unbundled"        # m messages per user: mu^2 = m I_pi / n


class GdpParams(_Record, frozen=True):
    """Gaussian shift mu of the pair at n users, composition pi and m messages per user, and its recipe."""

    mu: float
    n: int
    pi: float
    m: int
    source: GdpSource


class ExpansionReport(_Record, frozen=True):
    """Truncated divergence expansion next to its exact value (if computed).

    `terms` are the successive expansion orders; `asymptotic` is their sum,
    and `residual` = exact - asymptotic when an exact value is available.
    """

    n: int
    terms: tuple[float, ...]
    asymptotic: float
    exact: float | None = None
    residual: float | None = None


class RrBoundary(_Record, frozen=True):
    """Normal-approximation diagnostics of randomized response at (eps0, n).

    a_n = e^{eps0}/n separates the regimes; x_plus and x_minus are the two
    values of the centered score r = v/W0, sigma2 (chi2) and rho3 its variance
    and absolute third moment under W0, `lyapunov_ratio` rho3/(sigma^3 sqrt n),
    and the *_bound fields its closed-form envelopes 2 e^{eps0/2} and 2 sqrt(a_n).
    """

    eps0: float
    n: int
    q: float
    a_n: float
    x_plus: float
    x_minus: float
    sigma2: float
    rho3: float
    lyapunov_ratio: float
    skew_bound: float
    lyapunov_bound: float
    regime: "Regime"


class Regime(Enum):
    SUB_CRITICAL = "sub-critical"
    CRITICAL = "critical"
    SUPER_CRITICAL = "super-critical"


class MmComparison(_Record, frozen=True):
    """Bundled versus unbundled Gaussian accounting at message count m.

    Scaled so n drops out: `unbundled_mu2n` is m chi2 and `bundled_mu2n`
    is (1 + chi2)^m - 1 (the chi-square of the m-fold product channel).
    `ratio` = bundled/unbundled > 1 strictly for m >= 2 unless the channel
    is degenerate (chi2 = 0), in which case `degenerate` is set and the
    ratios take their limiting value 1.  At m = 2 `ratio` equals
    `ratio_lower_bound` in exact arithmetic only: the two are rounded apart.
    """

    m: int
    chi2: float
    unbundled_mu2n: float
    bundled_mu2n: float
    ratio: float
    ratio_lower_bound: float
    degenerate: bool


def gdp_mu(channel: Channel, n: int, pi: float = 0.0, m: int = 1) -> GdpParams:
    """Effective Gaussian shift mu = sqrt(m I_pi / n) for the shuffled pair.

    pi = 0 gives the canonical pair (I_0 is the chi-square of the channel);
    m > 1 accounts for users sending m unbundled messages each.
    """
    n = _check_count("n", n)
    m = _check_count("m", m)
    fisher = _fisher(channel, pi)[-1]
    mu = math.sqrt(m * fisher / n)
    if m > 1:
        source = GdpSource.UNBUNDLED
    elif pi == 0.0:
        source = GdpSource.CANONICAL
    else:
        source = GdpSource.PROPORTIONAL
    return GdpParams(mu=mu, n=n, pi=float(pi), m=m, source=source)


def _gdp_curve(eps, mu: float) -> tuple[list, list]:
    """The float kernel of `gdp_delta`: the checked grid of `eps` and delta at each of its entries."""
    if not (mu >= 0.0):
        raise ValidationError(f"mu must be >= 0, got {mu!r}")
    grid = _check_eps_grid(eps)
    if mu == 0.0:
        return grid, [0.0] * len(grid)
    _check_eps(max(grid), caller="gdp_delta")
    # e / mu = inf at a subnormal mu, where Phi(-inf) = 0 is the limit
    return grid, [min(1.0, max(0.0, _phi(-e / mu + mu / 2.0) - math.exp(e) * _phi(-e / mu - mu / 2.0))) for e in grid]


def gdp_delta(eps, mu: float):
    """Privacy curve of the unit-variance Gaussian pair at shift mu.

    delta(eps) = Phi(-eps/mu + mu/2) - e^eps Phi(-eps/mu - mu/2); the
    degenerate mu = 0 pair is perfectly private (delta = 0).  Takes one eps
    (float out) or an eps grid (array out).  For mu > 0 an eps above
    log(DBL_MAX) ~ 709.78, where e^eps overflows, raises ValidationError.
    Each entry is `_gdp_curve`'s float, so a grid's entries are the values
    at each of its eps, bit for bit.
    """
    if isinstance(eps, numbers.Real):
        _check_eps(eps)  # the scalar error message
        return _gdp_curve(eps, mu)[1][0]
    import numpy as np

    eps = np.asarray(eps, dtype=np.float64)
    return np.array(_gdp_curve(eps, mu)[1]).reshape(eps.shape)


def gaussian_tradeoff(mu: float, alpha):
    """Optimal type-II error of the Gaussian pair: Phi(Phi^{-1}(1-alpha) - mu).

    Vectorized over alpha; endpoints map to beta(0) = 1 and beta(1) = 0.
    """
    from statistics import NormalDist  # also loads fractions, decimal and random

    import numpy as np

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
    w, r, v, chi2, mu3 = _score(channel)
    terms = (
        chi2 / (8.0 * n),
        -mu3 / (16.0 * n * n),
        (7.0 / 64.0) * (chi2 * chi2) / (n * n),
    )
    asymptotic = terms[0] + terms[1] + terms[2]  # left to right: the built-in sum compensates from 3.12
    if math.isnan(asymptotic):
        # mu3 and chi2^2 are both beyond the double range (-inf + inf): the
        # sum taken with r scaled by s = 2^-k <= 1 / w_max, then divided by
        # s^2, is the true sum, or its signed infinity if that is beyond too
        s = 2.0 ** -math.frexp(max(w))[1]
        rs = [x * s for x in r]
        chi2_s = _fdot(v, rs)
        mu3_s2 = _fdot(list(map(operator.mul, v, rs)), rs)
        scaled = chi2_s * s / (8.0 * n) - mu3_s2 / (16.0 * n * n) + (7.0 / 64.0) * (chi2_s * chi2_s) / (n * n)
        asymptotic = scaled / s / s
    if exact is None:
        exact = _exact_canonical_jsd(channel, n)
    residual = None if exact is None else exact - asymptotic
    return ExpansionReport(n=n, terms=terms, asymptotic=asymptotic, exact=exact, residual=residual)


# Cells the automatic exact JSD may build (`lr_atoms`'s cap at k = 0).
_AUTO_EXACT_CAP = 1_000_000


def _exact_canonical_jsd(channel: Channel, n: int) -> float | None:
    from .exact_dist import _jsd, lr_atoms

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
    fisher = _fisher(channel, pi)[-1]
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


def _is_rr(channel: Channel) -> bool:
    """Whether the channel is (numerically) randomized response: d = 2 and W1 is W0 swapped, each
    mass within 1e-12 relative of its partner, so a tiny mass is not matched by a tinier one."""
    pairs = zip(channel._laws[0], channel._laws[1][::-1])
    return channel.d == 2 and all(abs(x - y) <= 1e-12 * max(x, y) for x, y in pairs)


def rr_boundary(channel: Channel, n: int) -> RrBoundary:
    """Score moments and regime classification for a randomized-response channel.

    Every field is read from the channel's score (`_score`): eps0 = log w_max,
    q = delta_star, a_n = w_max / n, x_plus and x_minus the two values of r,
    sigma2 = E_0 r^2 its chi2 and rho3 = E_0 |r|^3 = |v| r . r.  The Lyapunov
    ratio rho3 / (sigma^3 sqrt n) takes r / sigma^3 into the sum, so it is
    finite wherever its true value is.  The regime is a_n's place against
    _REGIME_THRESHOLDS.  Any other channel raises ValidationError.
    """
    if not _is_rr(channel):
        raise ValidationError("rr_boundary needs a randomized-response channel (d = 2, W1 = W0 swapped)")
    n = _check_count("n", n)
    w, r, v, chi2, _ = _score(channel)
    w_max = max(w)
    a_n = w_max / n
    abs_vr = [abs(x) * y for x, y in zip(v, r)]
    sigma = math.sqrt(chi2)
    lyapunov = _fdot(abs_vr, [x / chi2 / sigma for x in r]) / math.sqrt(n) if chi2 > 0.0 else 0.0
    sub, sup = _REGIME_THRESHOLDS
    regime = Regime.SUB_CRITICAL if a_n < sub else Regime.SUPER_CRITICAL if a_n > sup else Regime.CRITICAL
    return RrBoundary(
        eps0=math.log(w_max),
        n=n,
        q=channel.delta_star,
        a_n=a_n,
        x_plus=max(r),
        x_minus=min(r),
        sigma2=chi2,
        rho3=_fdot(abs_vr, r),
        lyapunov_ratio=lyapunov,
        skew_bound=2.0 * math.sqrt(w_max),
        lyapunov_bound=2.0 * math.sqrt(a_n),
        regime=regime,
    )


def mm_gdp_compare(channel: Channel, m: int) -> MmComparison:
    """Bundled vs unbundled Gaussian parameters at message count m.

    Unbundled: n mu^2 = m chi2.  Bundled (one super-symbol of m messages):
    n mu^2 = (1 + chi2)^m - 1, by multiplicativity of 1 + chi2 under
    products (ValidationError, naming the largest m, beyond the double
    range), taken as expm1(m log1p(chi2)) below chi2 = 1.  For m >= 2 and
    chi2 > 0 the ratio strictly exceeds its algebraic lower bound floor
    1 + (m-1) chi2 / 2 >= ... >= 1, with equality of bound and ratio at
    m = 2 in exact arithmetic only.
    """
    m = _check_count("m", m)
    _require_full(channel, "bundled comparison")
    chi2 = _score(channel)[3]
    unbundled = m * chi2
    try:  # below 1, 1 + chi2 would round away chi2's low bits; from 1 up, the power is closer
        bundled = math.expm1(m * math.log1p(chi2)) if chi2 < 1.0 else (1.0 + chi2) ** m - 1.0
    except OverflowError:
        largest = int(_MAX_EPS / math.log1p(chi2))
        raise ValidationError(f"bundled comparison: (1 + chi2)^m overflows above m = {largest}, got m={m}") from None
    # a degenerate channel (chi2 = 0) takes the limiting ratio 1
    return MmComparison(
        m=m,
        chi2=chi2,
        unbundled_mu2n=unbundled,
        bundled_mu2n=bundled,
        ratio=bundled / unbundled if chi2 > 0.0 else 1.0,
        ratio_lower_bound=1.0 + 0.5 * (m - 1) * chi2,
        degenerate=chi2 == 0.0,
    )
