"""Multi-message accounting: m messages per user, shuffled individually.

When each user sends m iid messages into the shuffle ("unbundled"), the
adversary sees one histogram of nm messages.  The exact likelihood ratio of
one-changed-user against all-zeros at a histogram N is a normalized
elementary symmetric function of the ratios w(y):

    L(N) = [t^m] prod_y (1 + w(y) t)^{N_y}  /  C(nm, m),

computed below exactly for the double ratios w, in integers, with one
rounding at the end.  The atoms take it in floating point on the cells of
the closed-form k = 0 chain of Mult(nm, W0) (`_mm_cells`).
Bundling the m messages into one super-symbol instead multiplies
chi-squares, so the bundled Gaussian parameter dominates the unbundled one;
`mm_gdp_compare` quantifies the gap.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channels import Channel, score_stats
from .errors import ValidationError
from .exact_dist import (
    _LOG2,
    DEFAULT_ATOM_CAP,
    MIN_NULL_MASS,
    Composition,
    LrAtomization,
    _atomize,
    _canonical_cells,
    _check_cap,
    _check_count,
    _check_histogram,
    _check_pair,
    _null_levels,
    _relabelling,
)

# Coefficients held at once by one array of a d = 2 block (512 KB).
_BLOCK_COEFFICIENTS = 1 << 16

# Rows of a block of the shared two-symbol product, and factors of a running
# product between renormalizations: a row at most doubles a coefficient, and
# 64 mantissas in [1/2, 1) multiply to a normal double.
_BLOCK_ROWS = 64


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
    underflow, and a ValidationError when it exceeds the double range.  At m = 1 it is the
    correctly rounded reference of `exact_dist._affine_lr`, the package's k = 0 ratio (the
    atoms, the sampler and the table), whose rounded sum it differs from by < d + 2 ulps.
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


def _renormalized(mant: np.ndarray, expo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns of coefficients mant 2^expo rescaled by powers of two so that each column's largest is below 1."""
    top = np.frexp(mant.max(axis=0))[1]
    return np.ldexp(mant, -top), expo + top


def _coefficients(count: np.ndarray, w: float, tau: float, m: int, e: int) -> tuple[np.ndarray, np.ndarray]:
    """Degrees 0..m of (1 + (w / tau) 2^-e t)^count at each count, as columns mant 2^expo.

    Running products of the factors ((count - u) / (u + 1)) w / tau 2^-e,
    with mantissas and binary exponents kept apart (w and tau enter as their
    frexp parts, 2^-e as an exponent step), so no power of a large or small
    ratio leaves the double range; mantissas below 2^-1074 of their column's
    largest vanish.
    """
    (num, a), (den, b) = (math.frexp(w), math.frexp(tau)) if w != tau else ((1.0, 0), (1.0, 0))
    u = np.arange(float(m))[:, None]
    factor, step = np.frexp((((count - u) / (u + 1)) * num) / den)
    mant = np.vstack((np.ones(count.size), factor))
    expo = np.zeros(mant.shape, dtype=np.intc)
    np.cumsum(step + (a - b - e), axis=0, out=expo[1:])
    shift = np.zeros(count.size, dtype=np.intc)
    for i in range(0, m, _BLOCK_ROWS):
        mant[i], carry = np.frexp(mant[i])
        expo[i] += carry
        shift += carry
        np.cumprod(mant[i : i + _BLOCK_ROWS + 1], axis=0, out=mant[i : i + _BLOCK_ROWS + 1])
        expo[i + 1 : i + _BLOCK_ROWS + 1] += shift
    top = np.where(mant != 0.0, expo, 0).max(axis=0)
    return np.ldexp(mant, expo - top), top


def _times(a: np.ndarray, ea: np.ndarray, b: np.ndarray, eb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Degrees 0..m of the column-wise products of two coefficient columns, renormalized."""
    out, m = np.zeros_like(b), b.shape[0] - 1
    # degree k takes its terms a[k - i] b[i] in the order i = 0..k
    for i in range(m + 1):
        out[i:] += a[: m + 1 - i] * b[i]
    return _renormalized(out, ea + eb)


def _last_two_symbols(A, eA, rest, row, K, w1: float, w0: float, tau: float, e: int) -> tuple[np.ndarray, np.ndarray]:
    """Degree m of A[:, p] 2^eA[p] (1 + (w1 / tau) 2^-e t)^K1 (1 + (w0 / tau) 2^-e t)^r at the last level's
    cells (p, K1) = (row, K), r = rest[p] - K1, with w0 / tau = 1 (or w0 = 0); returned as mant 2^expo per cell.

    The last two factors E(r, K1) depend on the cell only through (r, K1),
    so they are built once on that grid, degree by degree: with
    (1 + c t)^(r+1) = (1 + c t)^r (1 + c t), c = 2^-e,
    E_s(r) = B_s + c sum_{r' < r} E_{s-1}(r'), B the first factor.  Each
    prefix sum is taken error-free as a pair hi + lo (the rounding error of
    each partial sum, exact by TwoSum, is summed apart), in blocks of
    _BLOCK_ROWS values of r, between which each column is rescaled by a
    power of two.  Each cell then costs one (m + 1)-term sum.
    """
    F, expo = np.zeros(K.size), np.empty(K.size, dtype=np.int64)
    if K.size == 0:
        return F, expo
    m, lo, c = A.shape[0] - 1, int(K[0]), 2.0**-e if w0 else 0.0
    hi_start, eE = _coefficients(np.arange(lo, K.max() + 1.0), w1, tau, m, e)
    lo_start = np.zeros_like(hi_start)
    col, r = (K - lo).astype(np.intp), (rest[row] - K).astype(np.intp)
    by_block = np.argsort(r // _BLOCK_ROWS, kind="stable")
    bounds = np.searchsorted(r[by_block] // _BLOCK_ROWS, np.arange(r.max() // _BLOCK_ROWS + 2))
    for r0, cells in zip(range(0, int(r.max()) + 1, _BLOCK_ROWS), np.split(by_block, bounds[1:-1])):
        # a column K1 is done once r0 > max_p rest[p] - K1
        shape = (min(_BLOCK_ROWS, int(r.max()) + 1 - r0), min(hi_start.shape[1], int(rest.max()) - lo - r0 + 1))
        hi_start, lo_start, eE = hi_start[:, : shape[1]], lo_start[:, : shape[1]], eE[: shape[1]]
        at, prefix, total = (r[cells] - r0) * shape[1] + col[cells], row[cells], np.zeros(cells.size)
        # E_{s-1} and E_s as hi + lo, and scratch
        prev_hi, prev_lo, hi_part, lo_part, x, y, err, tmp = np.zeros((8, *shape))
        for s in range(m + 1):
            # E_{s-1} is zero at s = 0
            x[0], y[0] = hi_start[s], lo_start[s]
            np.multiply(prev_hi[:-1], c, out=x[1:])
            np.multiply(prev_lo[:-1], c, out=y[1:])
            np.cumsum(x, axis=0, out=hi_part)
            # TwoSum of each partial sum hi[i - 1] + x[i] = hi[i]: the addend as rounded, z, then the error
            z, e = err[1:], tmp[1:]
            np.subtract(hi_part[1:], hi_part[:-1], out=z)
            np.subtract(hi_part[:-1], np.subtract(hi_part[1:], z, out=e), out=e)
            y[1:] += e
            y[1:] += np.subtract(x[1:], z, out=z)
            np.cumsum(y, axis=0, out=lo_part)
            total += A[m - s, prefix] * np.add(hi_part, lo_part, out=tmp).ravel()[at]
            prev_hi, hi_part, prev_lo, lo_part = hi_part, prev_hi, lo_part, prev_lo
            hi_start[s], lo_start[s] = prev_hi[-1], prev_lo[-1]
        F[cells], expo[cells] = total, eA[prefix] + eE[col[cells]]
        # the next block starts at E(r0 + rows) = E(r0 + rows - 1) (1 + c t), by TwoSum, rescaled
        up_hi, up_lo = (np.vstack((np.zeros(shape[1]), part[:-1])) * c for part in (hi_start, lo_start))
        carry = hi_start + up_hi
        z = carry - hi_start
        hi_start, lo_start = carry, lo_start + up_lo + ((hi_start - (carry - z)) + (up_hi - z))
        top = np.frexp(hi_start.max(axis=0))[1]
        hi_start, lo_start, eE = np.ldexp(hi_start, -top), np.ldexp(lo_start, -top), eE + top
    return F, expo


def _two_symbols(levels, w: np.ndarray, tau: float, e: int, m: int):
    """Log null masses and degree-m coefficients mant 2^expo of each block of `levels` at d = 2.

    The coefficient of (1 + (w1 / tau) 2^-e t)^K (1 + (w0 / tau) 2^-e t)^rest
    is summed per cell, O(m) a cell, in sub-blocks of
    _BLOCK_COEFFICIENTS // (m + 1) cells.
    """
    size, w1, w0 = max(1, _BLOCK_COEFFICIENTS // (m + 1)), float(w[1]), float(w[0])
    for _, _, K, rest, log_null in levels:
        F, expo = np.empty(K.size), np.empty(K.size, dtype=np.int64)
        for at in (slice(i, i + size) for i in range(0, K.size, size)):
            (a, ea), (b, eb) = _coefficients(K[at], w1, tau, m, e), _coefficients(rest[at], w0, tau, m, e)
            F[at], expo[at] = np.einsum("ij,ij->j", a, b[::-1]), ea + eb
        yield log_null, F, expo


def _many_symbols(levels, d: int, w: np.ndarray, tau: float, e: int, m: int, cap: int, what: str) -> tuple:
    """Log null masses and degree-m coefficients mant 2^expo of the cells of `levels` at d >= 3, as one block.

    The prefix symbols y_{d-1}..y_2 carry each cell's coefficients of
    degree <= m with one binary exponent per cell (`_coefficients`,
    `_times`, O(m^2) per prefix cell); the last level's blocks are joined
    once, since `_last_two_symbols` shares its (r, K1) grid across the
    level, O(m) a cell.  The (m + 1) coefficients a count are counted
    against `cap` too.
    """
    _, _, K, rest, log_null = next(levels)
    _check_cap((m + 1) * K.size, what + " coefficients", cap)
    A, eA = _coefficients(K, float(w[d - 1]), tau, m, e)
    for j, row, K, level_rest, mass in itertools.islice(levels, d - 3):
        log_null = log_null[row] + mass
        _check_cap((m + 1) * K.size, what + " coefficients", cap)
        A, eA = _times(A[:, row], eA[row], *_coefficients(K, float(w[j]), tau, m, e))
        rest = level_rest
    row, K, log_last = (np.concatenate(column) for column in zip(*((row, K, mass) for _, row, K, _, mass in levels)))
    log_last += log_null[row]
    _check_cap((m + 1) * (int(K.max() - K[0]) + 1 if K.size else 0), what + " coefficients", cap)
    return log_last, *_last_two_symbols(A, eA, rest, row, K, float(w[1]), float(w[0]), tau, e)


def _mm_cells(channel: Channel, n: int, m: int, cap: int):
    """The m-message k=0 pair (m >= 2) on the cells of `_null_levels`, in their order, as `_atomize` blocks.

    Each block is [p_null, p_alt, lr]: one for each block of the level at
    d = 2 (`_two_symbols`), one for the whole chain at d >= 3
    (`_many_symbols`).  With t scaled by tau 2^e, where tau = w(y_0) (the
    symbol of largest W0; 1 if W1 never sends it) and 2^e >= 1 is the power
    of two nearest n / tau (at d >= 3, where 2^-e must be a normal double, a
    pair that needs 2^e above 2^1022 is refused), L(N) = (tau 2^e)^m F(N) / C(nm, m)
    with F the degree-m coefficient of prod_y (1 + (w(y) / tau) 2^-e t)^{N_y}.
    The scaled t is near the saddle point 1/n of a typical cell, where
    sum_y N_y w(y) t / (1 + w(y) t) = m, so the terms that carry F sit near
    their columns' largest coefficients; scaled by tau alone they would
    fall below 2^-1074 of them once m log10(n / tau) reaches about 300.  A
    power of two is exact, so the scale changes no bit where no term was
    subnormal.  Null masses are carried as logs, so a dropped cell's alt
    mass is exp(log P + log L) even where P or L leaves the double range.
    """
    (order, w), d, N = _relabelling(channel), channel.d, n * m
    tau = float(w[0]) or 1.0
    e = max(0, round(math.log2(n) - math.log2(tau)))
    if d > 2 and e > 1022:  # `_last_two_symbols` steps by 2^-e, which must stay a normal double
        raise ValidationError(f"the m-message ratio at d >= 3 needs w(y_0) = 0 or at least about n 2^-1022, got {tau!r}")
    what = f"k=0 law for n={n}, m={m}, d={d}"
    levels = _null_levels(channel.W0[order], N, cap, what, log=True)
    blocks = _two_symbols(levels, w, tau, e, m) if d == 2 else [_many_symbols(levels, d, w, tau, e, m, cap, what)]
    # tau^m / C(nm, m) = num / den, taken as a mantissa in (1/2, 2) and a power of two, to which 2^(e m) adds
    num, den = tau.as_integer_ratio()
    num, den = num**m, den**m * math.comb(N, m)
    shift = num.bit_length() - den.bit_length()
    scale = (num << max(-shift, 0)) / (den << max(shift, 0))
    for log_null, F, expo in blocks:
        F *= scale
        expo += shift + e * m
        p_null = np.exp(log_null)
        kept = p_null >= MIN_NULL_MASS
        lr = np.zeros_like(F)
        lr[kept] = np.ldexp(F[kept], expo[kept].astype(np.intc))
        log_alt = np.log(F, out=np.full_like(F, -np.inf), where=F > 0.0) + expo * _LOG2 + log_null
        yield [p_null, np.where(kept, lr * p_null, np.exp(log_alt)), lr]
        del log_null, F, expo, kept, log_alt  # before the next block is built


def unbundled_lr_atoms(
    channel: Channel, n: int, m: int, cap: int = DEFAULT_ATOM_CAP
) -> LrAtomization:
    """Atomize the m-message pair: nm W0-messages against (n-1)m W0- and m W1-messages.

    The cells are those of the conditional-binomial chain of Mult(nm, W0),
    as for `lr_atoms` at k = 0 (its bits at m = 1), with the ratio
    `unbundled_lr` from `_mm_cells` at m >= 2; either streams its blocks
    into `_atomize`.  `cap` bounds the windowed cells of each level and, at
    d >= 3, the m + 1 coefficients held for each prefix cell and each count
    of the last window.
    """
    _check_pair(channel, Composition(n, 0), "unbundled atoms")
    m = _check_count("m", m)
    cells = _canonical_cells(channel, n, cap) if m == 1 else _mm_cells(channel, n, m, cap)
    return _atomize(n, 0, cells)


def mm_gdp_compare(channel: Channel, m: int) -> MmComparison:
    """Bundled vs unbundled Gaussian parameters at message count m.

    Unbundled: n mu^2 = m chi2.  Bundled (one super-symbol of m messages):
    n mu^2 = (1 + chi2)^m - 1, by multiplicativity of 1 + chi2 under
    products (ValidationError, naming the largest m, beyond the double
    range).  For m >= 2 and chi2 > 0 the ratio strictly exceeds its
    algebraic lower bound floor 1 + (m-1) chi2 / 2 >= ... >= 1, with
    equality of bound and ratio at m = 2.
    """
    from .simplex_linalg import _require_full  # here, so the m-message atoms do not load it

    m = _check_count("m", m)
    _require_full(channel, "bundled comparison")
    chi2 = score_stats(channel).chi2
    unbundled = m * chi2
    try:
        bundled = (1.0 + chi2) ** m - 1.0
    except OverflowError:  # log(2^1024) rounds to log(DBL_MAX)
        largest = int(1024 * math.log(2.0) / math.log(1.0 + chi2))
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
