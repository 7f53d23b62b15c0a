"""Multi-message accounting: m messages per user, shuffled individually.

When each user sends m iid messages into the shuffle ("unbundled"), the
adversary sees one histogram of nm messages.  The exact likelihood ratio of
one-changed-user against all-zeros at a histogram N is a normalized
elementary symmetric function of the ratios w(y):

    L(N) = [t^m] prod_y (1 + w(y) t)^{N_y}  /  C(nm, m),

computed below exactly for the double ratios w, in integers, with one
rounding at the end; the atoms divide the two exact histogram laws instead.
Bundling the m messages into one super-symbol instead multiplies
chi-squares, so the bundled Gaussian parameter dominates the unbundled one;
`mm_gdp_compare` quantifies the gap.
"""

import math
from dataclasses import dataclass

from .channels import Channel, score_stats
from .errors import ValidationError
from .exact_dist import (
    DEFAULT_ATOM_CAP,
    Composition,
    LrAtomization,
    PrivacyCurve,
    Sidedness,
    _check_count,
    _check_histogram,
    _check_pair,
    _fold_atoms,
    privacy_curve,
)

@dataclass(frozen=True)
class MmComparison:
    """Bundled versus unbundled Gaussian accounting at message count m.

    Scaled so n drops out: `unbundled_mu2n` is m chi2 and `bundled_mu2n`
    is (1 + chi2)^m - 1 (the chi-square of the m-fold product channel).
    `ratio` = bundled/unbundled > 1 strictly for m >= 2 unless the channel
    is degenerate (chi2 = 0), in which case `degenerate` is set and the
    ratios take their limiting value 1.
    """

    m: int
    chi2: float
    unbundled_mu2n: float
    bundled_mu2n: float
    ratio: float
    ratio_lower_bound: float
    degenerate: bool


def unbundled_lr(channel: Channel, n: int, m: int, histogram) -> float:
    """Exact m-message likelihood ratio at a histogram of nm messages.

    Args:
        channel: validated channel with min(W0) > 0.
        n: number of users; m: messages per user.
        histogram: counts per symbol, summing to n*m.

    Exact for the double ratios w: each w(y) is a dyadic rational
    A_y / 2^E over one common E, so the coefficient is 2^(-Em) times the
    integer [t^m] prod_y (1 + A_y t)^{N_y}, a truncated product of the rows
    C(N_y, j) A_y^j.  One correctly rounded integer division gives the
    ratio: 0.0 for a symbol W1 never sends, the rounded subnormal or 0.0 on
    underflow, and a ValidationError when it exceeds the double range.
    """
    _check_pair(channel, Composition(n, 0), "unbundled ratio")
    m = _check_count("m", m)
    counts = _check_histogram(channel, histogram, n * m)
    w = score_stats(channel).w
    ratios = [x.as_integer_ratio() for x in w.tolist()]
    scale = max(den for _, den in ratios)  # 2^E
    coef = [1] + [0] * m
    for (num, den), c in zip(ratios, counts):
        a = num * (scale // den)
        row = [math.comb(c, j) * a**j for j in range(min(m, c) + 1)]
        coef = [
            sum(coef[k - j] * row[j] for j in range(min(k, len(row) - 1) + 1))
            for k in range(m + 1)
        ]
    try:
        value = coef[m] / (math.comb(n * m, m) * scale**m)
    except OverflowError:
        raise ValidationError(
            f"m-message ratio at histogram {counts} exceeds the double range"
        ) from None
    return value


def unbundled_lr_atoms(
    channel: Channel, n: int, m: int, cap: int = DEFAULT_ATOM_CAP
) -> LrAtomization:
    """Atomize the m-message pair over the exact nm-message histogram laws.

    Both laws share (n-1)m W0-messages; the null law adds m more W0-messages,
    the alt law the changed user's m W1-messages.  Their quotient is the
    ratio `unbundled_lr` computes one histogram at a time.
    """
    _check_pair(channel, Composition(n, 0), "unbundled atoms")
    m = _check_count("m", m)
    return _fold_atoms(channel, Composition(n, 0), m, cap)


def unbundled_exact_curve(
    channel: Channel, n: int, m: int, eps, cap: int = DEFAULT_ATOM_CAP
) -> PrivacyCurve:
    """Exact forward privacy curve of the m-message pair on an eps grid."""
    atoms = unbundled_lr_atoms(channel, n, m, cap=cap)
    return privacy_curve(atoms, eps, Sidedness.FORWARD)


def mm_gdp_compare(channel: Channel, m: int) -> MmComparison:
    """Bundled vs unbundled Gaussian parameters at message count m.

    Unbundled: n mu^2 = m chi2.  Bundled (one super-symbol of m messages):
    n mu^2 = (1 + chi2)^m - 1, by multiplicativity of 1 + chi2 under
    products.  For m >= 2 and chi2 > 0 the ratio strictly exceeds its
    algebraic lower bound floor 1 + (m-1) chi2 / 2 >= ... >= 1, with
    equality of bound and ratio at m = 2.
    """
    from .simplex_linalg import _require_full  # here, so the m-message atoms do not load it

    m = _check_count("m", m)
    _require_full(channel, "bundled comparison")
    chi2 = score_stats(channel).chi2
    unbundled = m * chi2
    bundled = (1.0 + chi2) ** m - 1.0
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
