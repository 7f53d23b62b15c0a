"""Exact finite-n distributions of the shuffled histogram and their curves.

The observable after shuffling n binary-input users is the histogram N of
messages.  With k ones among the inputs, the histogram law T_{n,k} is an
n-fold convolution of single-user laws; the adjacent pair (T_{n,k},
T_{n,k+1}) is the binary hypothesis-testing experiment whose likelihood
ratio, privacy curve, trade-off curve and divergences are computed here,
exactly, atom by atom.

Conventions: the "null" hypothesis is T_{n,k} (k ones), the "alt" hypothesis
is T_{n,k+1} (one more one).  For k = 0 the null law is the multinomial
Mult(n, W0), built in closed form from conditional binomial masses, and the
likelihood ratio is affine in the histogram: L(N) = (1/n) sum_y N_y w(y)
with w = W1/W0.  Every other pair is folded one message at a time, in
place in one array per law (`_fold`), and every atomization ends in
`_atomize`.
"""

import enum
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .channels import Channel, Support, score_stats
from .errors import EnumerationCapError, InternalInvariantError, ValidationError

# Refuse exact enumeration beyond this many dense histogram-law cells.
DEFAULT_ATOM_CAP = 30_000_000

# Atoms whose likelihood ratios agree within this relative tolerance are
# merged into one.
MERGE_REL_TOL = 1e-12

# A ratio within this relative distance above a threshold e^eps counts as a
# tie and adds nothing to delta(eps).  Computed ratios carry a few ulps of
# rounding (a quotient of two folded sums, or W1/W0 of the channel), so the
# excess of such an atom is rounding noise: at the largest ratio of shuffled
# randomized response, e^eps0, delta(eps0) is exactly 0, not ~1e-17.
TIE_REL_TOL = 16 * np.finfo(np.float64).eps

# Cells whose null mass is below the smallest normal double are dropped: their
# ratio p_alt / p_null, or a merged atom's null-weighted mean ratio, is a
# quotient of subnormals (or 0/0) and off by O(1).
MIN_NULL_MASS = np.finfo(np.float64).tiny

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class Composition:
    """Number of users n and number of ones k in the (fixed) input dataset."""

    n: int
    k: int

    def __post_init__(self):
        for name in ("n", "k"):
            object.__setattr__(self, name, _check_count(name, getattr(self, name), 0))
        if self.k > self.n:
            raise ValidationError(f"need 0 <= k <= n, got k={self.k}, n={self.n}")


@dataclass
class HistogramLaw:
    """Exact law of the message histogram, as a dense array.

    `mass[h_0, ..., h_{d-2}]` is the mass of the histogram whose last count
    is n minus the others.  `renormalized_by` is the factor applied to make
    the masses sum to one after the convolution (within ~1e-12 of 1).
    """

    n: int
    d: int
    mass: np.ndarray
    renormalized_by: float = 1.0

    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Count vectors (rows) and masses of the positive cells, in descending lexicographic order."""
        pos, counts = _descending_cells(self.mass > 0.0)
        return counts, self.mass.ravel()[pos]


class Sidedness(enum.Enum):
    """Direction of a privacy curve between the null and alt histogram laws.

    FORWARD measures how much the alt law (one more one) can exceed the
    null law; REVERSE the opposite; TWO_SIDED takes the pointwise maximum.
    """

    FORWARD = "forward"
    REVERSE = "reverse"
    TWO_SIDED = "two-sided"


@dataclass
class LrAtomization:
    """The likelihood-ratio atoms of the pair (T_{n,k}, T_{n,k+1}).

    Parallel arrays: `lr` holds the distinct ratio values (sorted
    increasing), `p_null` and `p_alt` the masses each value carries under
    the two laws.  `alt_singular_mass` is alt mass on null-null sets.  It is
    zero for the atoms `lr_atoms` builds (construction refuses SINGULAR
    channels), but `reverse_atomization` moves the null mass of zero-ratio
    atoms there: on a NULL_SUPPORT channel such as W0 = [.5, .5],
    W1 = [0, 1] at n = 6 the reversed pair has 1/64 of it, which the
    reverse curve adds to every delta.
    `dropped_null_mass` and `dropped_alt_mass` record the masses (summed
    with `math.fsum`) of the cells left out because their null mass was
    below MIN_NULL_MASS; they enter no curve or divergence.
    """

    n: int
    k: int
    lr: np.ndarray
    p_null: np.ndarray
    p_alt: np.ndarray
    alt_singular_mass: float = 0.0
    dropped_null_mass: float = 0.0
    dropped_alt_mass: float = 0.0


@dataclass
class PrivacyCurve:
    """A hockey-stick curve delta(eps) evaluated on a grid."""

    eps: np.ndarray
    delta: np.ndarray
    sidedness: Sidedness

    def to_csv(self, header_lines: tuple[str, ...] = ()) -> str:
        return _table_to_csv(("epsilon", "delta"), np.column_stack((self.eps, self.delta)), header_lines)


@dataclass
class TradeoffCurve:
    """Vertices (alpha_i, beta_i) of the optimal-test trade-off polyline.

    alpha is the probability of rejecting under the null law, beta the
    probability of accepting under the alt law; vertices are in increasing
    alpha order and the curve is their linear interpolation.
    """

    alpha: np.ndarray
    beta: np.ndarray

    def beta_at(self, alpha) -> np.ndarray | float:
        """Smallest achievable type-II error at the given type-I level(s)."""
        a = np.clip(np.asarray(alpha, dtype=np.float64), 0.0, 1.0)
        out = np.interp(a, self.alpha, self.beta)
        return float(out) if np.isscalar(alpha) else out

    def to_csv(self, header_lines: tuple[str, ...] = ()) -> str:
        return _table_to_csv(("alpha", "beta"), np.column_stack((self.alpha, self.beta)), header_lines)


@dataclass
class DivergenceReport:
    """Divergences of the alt law from the null law, computed from atoms."""

    jsd: float
    tv: float
    chi2: float
    kl: float
    renyi: dict[float, float] = field(default_factory=dict)


@dataclass
class ResidualSummary:
    """How far the conditional score sits from its linear prediction.

    Collected over histograms within the window
    ||N - E[N]||_inf <= window_mult * sqrt(n log n); `outside_mass` is the
    null mass that fell outside and was not examined.
    """

    max_abs: float
    rms: float
    outside_mass: float
    window_halfwidth: float
    n_inside: int
    pi: float


# ---------------------------------------------------------------------------
# histogram laws


def _check_count(name: str, value, minimum: int = 1) -> int:
    """A count must be an integer (not a bool) >= minimum; NaN and 2.5 fail.

    Returns it as a Python int, so numpy integers cannot overflow later.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _check_cap(cells: int, what: str, cap: int) -> None:
    """Refuse to enumerate `what`, which has `cells` cells, beyond `cap` cells."""
    if cells > cap:
        raise EnumerationCapError(
            f"{what} has {cells} cells > cap {cap}; use montecarlo.sample_privacy_loss instead"
        )


def _check_histogram(channel: Channel, histogram, total: int) -> tuple[int, ...]:
    """A histogram must hold d nonnegative integer counts summing to `total`."""
    h = tuple(_check_count("histogram count", x, 0) for x in histogram)
    if len(h) != channel.d:
        raise ValidationError(f"histogram has {len(h)} cells, channel has d={channel.d}")
    if sum(h) != total:
        raise ValidationError(f"histogram {h} is not a size-{total} count vector")
    return h


# Cells per block of the in-place fold (`_blocks`): each message is added
# one block of axis-0 slabs at a time, so its scratch is of this size.
_FOLD_BLOCK = 1 << 14


def _fold_block(law: np.ndarray, W: np.ndarray, box: tuple, out: np.ndarray, product: np.ndarray) -> np.ndarray:
    """The cells `box` of `law` with one message drawn from W added.

    A law of N messages is held in an array of its final shape (S,)*(d-1),
    indexed by the counts of symbols 0..d-2 (the count of symbol d-1 is
    implied), and is zero at counts summing beyond N.  `box` (from `_blocks`)
    is a run of axis-0 slabs lo..hi-1 trimmed, on the other axes, to the
    counts below N+2-lo, which hold every cell of those slabs after the
    message.  The block reads slabs lo-1..hi-1 of `law` in that trim; its
    new cells are written to the front of the flat buffer `out` and returned
    as a view of it, and the flat buffer `product` holds the products
    W[y] * law.  Terms are added with y = d-1 first and then downwards,
    which makes every cell the same floating-point sum as a fold over
    histograms taken in descending lexicographic order; a term from off the
    support adds an exact +0.0.
    """
    src = law[box]
    res = out[: src.size].reshape(src.shape)
    prod = product[: src.size].reshape(src.shape)
    np.multiply(src, W[-1], out=res)
    for y in range(W.size - 2, 0, -1):
        lower = (slice(None),) * y + (slice(None, -1),)
        upper = res[(slice(None),) * y + (slice(1, None),)]
        np.add(upper, np.multiply(src[lower], W[y], out=prod[lower]), out=upper)
    # symbol 0 raises count 0: slab a takes the old slab a-1
    lo, hi = box[0].start, box[0].stop
    first = 1 if lo == 0 else 0
    below = law[(slice(lo + first - 1, hi - 1),) + box[1:]]
    upper = res[first:]
    np.add(upper, np.multiply(below, W[0], out=prod[first:]), out=upper)
    return res


def _blocks(law: np.ndarray, N: int):
    """The boxes that fold one message into `law`, a law of N messages, top slab first.

    Each is a run of axis-0 slabs holding about _FOLD_BLOCK cells (at least
    one slab), trimmed on the other axes as `_fold_block` describes.  Walked
    in this order, a block in place reads only slabs not yet overwritten.
    """
    rows = max(1, _FOLD_BLOCK // (N + 2) ** (law.ndim - 1))
    for hi in range(N + 2, 0, -rows):
        lo = max(0, hi - rows)
        yield (slice(lo, hi),) + (slice(0, N + 2 - lo),) * (law.ndim - 1)


def _block_buffers(law: np.ndarray, count: int) -> list:
    """`count` flat buffers with room for any block of a fold into `law`."""
    size = min(law.size, max(_FOLD_BLOCK, law.shape[0] ** (law.ndim - 1)))
    return [np.empty(size) for _ in range(count)]


def _fold(law: np.ndarray, N: int, messages) -> None:
    """Add one message drawn from each of `messages`, in order, to `law` (a
    law of N messages in an array of its final shape), in place."""
    out, product = _block_buffers(law, 2)
    for N, W in enumerate(messages, N):
        for box in _blocks(law, N):
            law[box] = _fold_block(law, W, box, out, product)


def _law_sum(law: np.ndarray) -> float:
    """Exactly rounded sum of the cells of `law`, read _FOLD_BLOCK cells at a time.

    Each block's positive cells go to one `math.fsum` in decreasing order,
    which keeps its partials short (see `_fsum`); the sum does not depend on
    the order, and no temporary is larger than a block.
    """
    flat = law.ravel()
    blocks = (flat[i : i + _FOLD_BLOCK] for i in range(0, flat.size, _FOLD_BLOCK))
    return math.fsum(itertools.chain.from_iterable(np.sort(b[b > 0.0])[::-1] for b in blocks))


def _base_law(channel: Channel, zeros: int, ones: int, room: int, cap: int) -> tuple[np.ndarray, float]:
    """Renormalized dense law of `zeros` W0- then `ones` W1-messages and its factor.

    The law is held in an array with room for `room` more messages, so that
    they can be folded in place.  Raises EnumerationCapError when that array
    has more than `cap` cells.
    """
    n, d = zeros + ones + room, channel.d
    _check_cap((n + 1) ** (d - 1), f"dense histogram law for {n} messages, d={d}", cap)
    law = np.zeros((n + 1,) * (d - 1))
    law[(0,) * (d - 1)] = 1.0
    _fold(law, 0, [channel.W0] * zeros + [channel.W1] * ones)
    factor = 1.0 / _law_sum(law)
    law *= factor
    return law, factor


def _descending_cells(keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices and full count vectors of the cells where `keep` holds,
    in descending lexicographic order (the reverse of C order)."""
    pos = keep.size - 1 - np.flatnonzero(keep.ravel()[::-1])
    head = np.unravel_index(pos, keep.shape)
    counts = np.column_stack(head + (keep.shape[0] - 1 - sum(head),))
    return pos, counts


def histogram_law(channel: Channel, comp: Composition, cap: int = DEFAULT_ATOM_CAP) -> HistogramLaw:
    """Exact law of the histogram for n users of which k have input one.

    Users are folded in one at a time, all input-0 users first (the law only
    depends on (n, k) by exchangeability), in place in the one array of the
    law.  `HistogramLaw.cells` lists the histograms of positive mass.

    Raises:
        EnumerationCapError: the dense law would exceed `cap` cells.
    """
    law, factor = _base_law(channel, comp.n - comp.k, comp.k, 0, cap)
    return HistogramLaw(n=comp.n, d=channel.d, mass=law, renormalized_by=factor)


def mean_histogram(channel: Channel, comp: Composition) -> np.ndarray:
    """E[N] = (n-k) W0 + k W1, exactly."""
    return (comp.n - comp.k) * channel.W0 + comp.k * channel.W1


# ---------------------------------------------------------------------------
# likelihood-ratio atomizations


def _merge_atoms(lr, p_null, p_alt, rel_tol: float = MERGE_REL_TOL):
    """Sort by ratio value and coalesce values equal up to rel_tol.

    The permutation and the temporaries are freed as soon as they are used.
    When no two neighbouring sorted ratios are within rel_tol, every group
    has one atom, and the sorted arrays are the result as they are.
    """
    lr = np.asarray(lr, dtype=np.float64)
    order = np.argsort(lr, kind="stable")
    lr = lr[order]
    tol = np.abs(lr[1:])
    np.maximum(tol, 1.0, out=tol)
    tol *= rel_tol
    gaps = np.diff(lr) > tol
    del tol
    p_null = np.asarray(p_null, dtype=np.float64)[order]
    p_alt = np.asarray(p_alt, dtype=np.float64)[order]
    del order
    if gaps.all():
        return lr, p_null, p_alt
    starts = np.concatenate(([0], np.flatnonzero(gaps) + 1))
    del gaps
    mn = np.add.reduceat(p_null, starts)
    ma = np.add.reduceat(p_alt, starts)
    weighted = np.add.reduceat(lr * p_null, starts)
    # null-mass-weighted representative; a group of one keeps its ratio
    # (the quotient (lr p) / p is off by an ulp for about 1 in 8), and so
    # does an (unreachable) group without null mass
    own = (np.diff(np.append(starts, lr.size)) == 1) | (mn <= 0.0)
    rep = np.where(own, lr[starts], weighted / np.where(own, 1.0, mn))
    return rep, mn, ma


def _check_pair(channel: Channel, comp: Composition, what: str) -> None:
    """Preconditions of the adjacent pair (T_{n,k}, T_{n,k+1})."""
    if channel.support is Support.SINGULAR:
        raise ValidationError(f"{what} needs min(W0) > 0; channel is SINGULAR")
    if comp.k > comp.n - 1:
        raise ValidationError(
            f"the pair (k, k+1) needs k <= n-1; got k={comp.k}, n={comp.n}"
        )


def _dropped_cells(mass: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The positive masses of the cells where `keep` fails."""
    return mass[~keep & (mass > 0.0)]


def _dropped_masses(null: np.ndarray, alt: np.ndarray) -> dict[str, float]:
    """The `LrAtomization` fields of the dropped cells, from `_dropped_cells`."""
    return {"dropped_null_mass": _fsum(null), "dropped_alt_mass": _fsum(alt)}


def _ratio_table(channel: Channel, comp: Composition, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense null law of the pair at (n, k) and its ratio L = alt / null, the
    one table read at single histograms; L is NaN where the null mass is
    below MIN_NULL_MASS (the cells the atoms drop).

    The null law is folded in place in the array of the base law T_{n-1,k}
    and the alt law in one copy of it, which then holds the ratio, so the
    table holds two dense arrays.
    """
    _check_pair(channel, comp, "pair ratio")
    null = _base_law(channel, comp.n - 1 - comp.k, comp.k, 1, cap)[0]
    ratio = null.copy()
    _fold(ratio, comp.n - 1, [channel.W1])
    _fold(null, comp.n - 1, [channel.W0])
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(ratio, null, out=ratio)
    ratio[null < MIN_NULL_MASS] = np.nan
    return null, ratio


def _atomize(n: int, k: int, lr, p_null, p_alt, dropped: dict[str, float]) -> LrAtomization:
    """The merged, checked atomization of the kept cells; `dropped` is `_dropped_masses`."""
    lr, p_null, p_alt = _merge_atoms(lr, p_null, p_alt)
    atoms = LrAtomization(n=n, k=k, lr=lr, p_null=p_null, p_alt=p_alt, **dropped)
    _check_atomization(atoms)
    return atoms


def _pair_cells(channel: Channel, zeros: int, ones: int, m: int, cap: int):
    """The kept and dropped cells of the pair base + m W0- against base + m W1-messages.

    The first m-1 messages of each law are folded in place, into the base
    law's array (null) and one copy of it (alt; for m = 1 both read the
    base law).  The last message is folded block by block (`_blocks`) from
    those arrays and never written back, so no dense law of the pair itself
    exists.  Each block's cells with null mass below MIN_NULL_MASS are
    dropped, and its kept cells are collected in descending lexicographic
    order (reversed C order).  Returns one tuple per block: the null and alt
    masses of its kept cells and the null and alt `_dropped_cells`; the
    dense arrays are freed on return.
    """
    W0, W1 = channel.W0, channel.W1
    null = _base_law(channel, zeros, ones, m, cap)[0]
    alt = null
    if m > 1:
        alt = null.copy()
        _fold(alt, zeros + ones, [W1] * (m - 1))
        _fold(null, zeros + ones, [W0] * (m - 1))
    out, product = _block_buffers(null, 2)
    parts = []
    for box in _blocks(null, zeros + ones + m - 1):
        # one buffer serves both laws: the null block's cells are taken out
        # before the alt block overwrites them
        p_null = _fold_block(null, W0, box, out, product).ravel()[::-1]
        keep = p_null >= MIN_NULL_MASS
        kept_null, dropped_null = p_null[keep], _dropped_cells(p_null, keep)
        p_alt = _fold_block(alt, W1, box, out, product).ravel()[::-1]
        parts.append((kept_null, p_alt[keep], dropped_null, _dropped_cells(p_alt, keep)))
    return parts


def _fold_atoms(channel: Channel, comp: Composition, m: int, cap: int) -> LrAtomization:
    """Atoms of the m-message pair at (n, k): base (n-1-k) m W0- and k m W1-messages.

    Cells with null mass below MIN_NULL_MASS are dropped; the kept cells
    enter the merge in descending lexicographic order (reversed C order).
    The dense laws are freed before the kept cells are joined and merged,
    to bound the peak.
    """
    n, k = comp.n, comp.k
    parts = _pair_cells(channel, (n - 1 - k) * m, k * m, m, cap)
    p_null, p_alt, dropped_null, dropped_alt = (np.concatenate(cells) for cells in zip(*parts))
    del parts
    dropped = _dropped_masses(dropped_null, dropped_alt)
    return _atomize(n, k, p_alt / p_null, p_null, p_alt, dropped)


def lr_atoms(channel: Channel, comp: Composition, cap: int = DEFAULT_ATOM_CAP) -> LrAtomization:
    """Exact likelihood-ratio atoms of T_{n,k+1} against T_{n,k}.

    For k = 0 they come in closed form (`_canonical_cells`).  Otherwise
    both laws are derived from the single intermediate T_{n-1,k}: appending
    one input-0 user gives the null law, one input-1 user the alt law, and
    their ratio at a histogram N is the posterior mean of w(Y) for the
    appended message.

    Raises:
        ValidationError: SINGULAR channel or k > n-1.
        EnumerationCapError: more than `cap` built cells (for k = 0 the
            windowed cells of any level of `_canonical_cells`, otherwise the
            dense law's (n+1)^(d-1)).
    """
    _check_pair(channel, comp, "likelihood-ratio atoms")
    if comp.k > 0:
        return _fold_atoms(channel, comp, 1, cap)
    p_null, lr = _canonical_cells(channel, comp.n, cap)
    p_alt = lr * p_null
    keep = p_null >= MIN_NULL_MASS
    dropped = _dropped_masses(_dropped_cells(p_null, keep), _dropped_cells(p_alt, keep))
    lr, p_null, p_alt = lr[keep], p_null[keep], p_alt[keep]  # frees the full arrays before the merge
    return _atomize(comp.n, 0, lr, p_null, p_alt, dropped)


# stirlerr(x) = ln x! - (x + 1/2) ln x + x - ln sqrt(2 pi), the error of
# Stirling's formula, at x = 0..15 (from 50-digit mpmath; 0 at x = 0 by
# convention, where it is never used), and the coefficients of its
# asymptotic series 1/12, 1/360, 1/1260, 1/1680, 1/1188 above 15.
_STIRLERR_SMALL = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])
_S0, _S1, _S2, _S3, _S4 = 1.0 / 12, 1.0 / 360, 1.0 / 1260, 1.0 / 1680, 1.0 / 1188
_LOG_2PI = math.log(2.0 * math.pi)


def _stirlerr(x: np.ndarray) -> np.ndarray:
    """Stirling-formula error at the nonnegative integer-valued floats x."""
    out = np.empty_like(x)
    small = x <= 15.0
    out[small] = _STIRLERR_SMALL[x[small].astype(np.intp)]
    big = x[~small]
    nn = big * big
    out[~small] = (_S0 - (_S1 - (_S2 - (_S3 - _S4 / nn) / nn) / nn) / nn) / big
    return out


def _bd0(x: np.ndarray, mean) -> np.ndarray:
    """Deviance term x ln(x / mean) + mean - x for x > 0, with mean > 0 a float or an array like x.

    Within 10% of the mean the direct form cancels, so there it is the
    series (x - mean) v + 2 x sum_{j>=1} v^(2j+1) / (2j+1) with
    v = (x - mean) / (x + mean), |v| < 0.1, summed until it stops changing.
    """
    out = x * np.log(x / mean) + mean - x
    near = np.abs(x - mean) < 0.1 * (x + mean)
    xs = x[near]
    if np.ndim(mean):
        mean = mean[near]
    v = (xs - mean) / (xs + mean)
    s = (xs - mean) * v
    ej = 2.0 * xs * v
    v *= v
    for j in range(1, 1000):  # |v| < 0.1: at most ~8 terms change a double
        ej *= v
        nxt = s + ej / (2 * j + 1)
        if np.array_equal(nxt, s):
            break
        s = nxt
    out[near] = s
    return out


def _binom_pmf(K: np.ndarray, n, p: float, stirlerr_table=None) -> np.ndarray:
    """Binomial(n, p) masses at the integer-valued floats K in [0, n], 0 < p < 1.

    `n` is an int, or an array of integer-valued floats shaped like K (one
    binomial per entry).  Loader's saddle-point form (C. Loader, "Fast and
    accurate computation of binomial probabilities", 2000; the algorithm of
    R's dbinom): P(K) = exp(stirlerr(n) - stirlerr(K) - stirlerr(n - K)
    - bd0(K, n p) - bd0(n - K, n q)) / sqrt(2 pi K (n - K) / n), whose terms
    are small and do not cancel, so the relative accuracy holds far into the
    tails.  The end counts are q^n and p^n.  `stirlerr_table`, if given,
    holds `_stirlerr` at 0, 1, ..., max(n) and is indexed instead.
    """
    q = 1.0 - p
    out = np.empty_like(K)
    first, last = K == 0.0, K == n
    inner = ~(first | last)
    if np.ndim(n):
        out[first] = np.exp(n[first] * math.log1p(-p))
        out[last] = np.exp(n[last] * math.log(p))
        n = n[inner]
    else:
        out[first] = math.exp(n * math.log1p(-p))
        out[last] = math.exp(n * math.log(p))
    x = K[inner]
    if stirlerr_table is None:
        stirlerr = _stirlerr
    else:
        stirlerr = lambda v: stirlerr_table[v.astype(np.intp)]  # noqa: E731
    lc = (
        stirlerr(np.atleast_1d(np.asarray(n, dtype=np.float64)))
        - stirlerr(x)
        - stirlerr(n - x)
        - _bd0(x, n * p)
        - _bd0(n - x, n * q)
    )
    lf = _LOG_2PI + np.log(x) + np.log1p(-x / n)
    out[inner] = np.exp(lc - 0.5 * lf)
    return out


def _binomial_window(n: int, p0: float) -> np.ndarray:
    """The counts K in [n p0 - sqrt(400 n), n p0 + sqrt(400 n)] and [0, n], as floats."""
    half = math.sqrt(400.0 * n)
    lo = max(0, math.floor(n * p0 - half))
    hi = min(n, math.ceil(n * p0 + half))
    return np.arange(lo, hi + 1, dtype=np.float64)


def _canonical_cells(channel: Channel, n: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Null masses and ratios L(N) = (1/n) sum_y N_y w(y) of the k=0 pair.

    With the symbols relabelled by decreasing W0, the null law Mult(n, W0)
    is a product of conditional binomials,
    P(N) = prod_{j=d-1..1} Bin(N_j; n - sum_{i>j} N_i, W0_j / sum_{i<=j} W0_i),
    with N_0 what remains; every share is at most 1/2, so 1 - p does not
    cancel.  Each factor is `_binom_pmf`, vectorized over the cells built so
    far.  N_j runs only over the window of its marginal Bin(n, W0_j)
    (`_binomial_window`), outside of which Hoeffding's inequality puts
    mass < e^-800, far below the smallest subnormal double.  Each level's
    cells are counted from the window lengths before its masses are
    evaluated, and EnumerationCapError is raised once they exceed `cap`.
    """
    order = np.argsort(-channel.W0, kind="stable")
    d, W0, w = channel.d, channel.W0[order], score_stats(channel).w[order]
    windows = [_binomial_window(n, float(W0[j])) for j in range(d - 1, 0, -1)]
    what = f"k=0 law for n={n}, d={d}"
    share = W0 / np.cumsum(W0)
    K = windows[0]
    _check_cap(K.size, what, cap)
    # at d >= 3 the cells far outnumber the n + 1 values stirlerr is taken at
    table = _stirlerr(np.arange(n + 1.0)) if d > 2 else None
    p_null = _binom_pmf(K, n, float(W0[d - 1]), table)
    lr = (K / n) * w[d - 1]
    rest = n - K
    for j, window in zip(range(d - 2, 0, -1), windows[1:]):
        # each cell so far spawns the window counts that fit in what remains
        lo = window[0]
        length = np.clip(np.minimum(rest, window[-1]) - lo + 1.0, 0.0, None).astype(np.intp)
        _check_cap(int(length.sum()), what, cap)
        row = np.repeat(np.arange(rest.size), length)
        K = lo + (np.arange(row.size) - np.repeat(np.cumsum(length) - length, length))
        rest = rest[row]
        p_null = p_null[row] * _binom_pmf(K, rest, float(share[j]), table)
        lr = lr[row] + (K / n) * w[j]
        rest -= K
    return p_null, (rest / n) * w[0] + lr


def binomial_lr_atoms(channel: Channel, n: int) -> LrAtomization:
    """Atoms of the k=0 pair for a two-symbol channel: `lr_atoms` at k=0, whose
    count window |K - n W0[1]| <= sqrt(400 n) scales to n in the millions."""
    if channel.d != 2:
        raise ValidationError(f"binomial atoms need d=2, got d={channel.d}")
    return lr_atoms(channel, Composition(n, 0))


def reverse_atomization(atoms: LrAtomization) -> LrAtomization:
    """Swap the roles of the two laws: ratios invert, masses exchange.

    Null mass on zero-ratio atoms becomes singular mass of the reversed
    direction (the reversed ratio is infinite there), and vice versa, so
    reversing twice gives back the original atomization.  The dropped
    masses swap too.
    """
    zero = atoms.lr == 0.0
    singular = float(atoms.p_null[zero].sum())
    keep = ~zero
    lr = 1.0 / atoms.lr[keep]
    p_null = atoms.p_alt[keep]
    p_alt = atoms.p_null[keep]
    # the ratios increase strictly, so their inverses come in reverse order,
    # and the appended zero-ratio atom goes first
    order = np.arange(lr.size - 1, -1, -1)
    if atoms.alt_singular_mass > 0.0:
        order = np.append(lr.size, order)
        lr = np.append(lr, 0.0)
        p_null = np.append(p_null, atoms.alt_singular_mass)
        p_alt = np.append(p_alt, 0.0)
    return LrAtomization(
        n=atoms.n,
        k=atoms.k,
        lr=lr[order],
        p_null=p_null[order],
        p_alt=p_alt[order],
        alt_singular_mass=singular,
        dropped_null_mass=atoms.dropped_alt_mass,
        dropped_alt_mass=atoms.dropped_null_mass,
    )


def _check_atomization(atoms: LrAtomization, tol: float = 1e-9) -> None:
    for label, arr in (("ratio", atoms.lr), ("null mass", atoms.p_null), ("alt mass", atoms.p_alt)):
        if not np.all(np.isfinite(arr)):
            raise InternalInvariantError(f"atomization has a non-finite {label}")
    if not np.all(np.diff(atoms.lr) > 0.0):
        raise InternalInvariantError("atomization ratios are not strictly increasing")
    total_null = float(atoms.p_null.sum())
    total_alt = float(atoms.p_alt.sum()) + atoms.alt_singular_mass
    mean_lr = float(np.dot(atoms.lr, atoms.p_null)) + atoms.alt_singular_mass
    for label, value in (("null", total_null), ("alt", total_alt), ("E_null[L]", mean_lr)):
        if not (abs(value - 1.0) <= tol):
            raise InternalInvariantError(
                f"atomization {label} mass is {value!r}, off 1 by more than {tol}"
            )


# ---------------------------------------------------------------------------
# privacy curves


def _check_eps(eps, name: str = "eps") -> None:
    """One privacy level must be a finite real >= 0 (NaN fails the test)."""
    if not (isinstance(eps, numbers.Real) and math.isfinite(eps) and eps >= 0.0):
        raise ValidationError(f"{name} must be finite and >= 0, got {eps!r}")


def _check_eps_grid(eps) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(eps, dtype=np.float64))
    if arr.size == 0:
        raise ValidationError("epsilon grid is empty")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValidationError("epsilon grid entries must be finite and >= 0")
    return arr


def _hockey_stick(lr, weights, singular: float, eps: np.ndarray) -> np.ndarray:
    """delta(eps) = sum weights * (lr - e^eps)_+ + singular, clipped to [0,1].

    `lr` must be sorted increasing.  With tail masses P_i = sum_{j>=i} w_j
    and D_i = sum_{l>i} (lr_l - lr_{l-1}) P_l, the sum over atoms above a
    threshold t is D_i + (lr_i - t) P_i at the first atom i with lr_i > t.
    Every term is nonnegative, so far-tail values keep full relative
    accuracy, and the cost is O(atoms + grid) time and memory.  Atoms with
    lr <= t * (1 + TIE_REL_TOL) are ties and contribute nothing.
    """
    delta = np.full(eps.size, float(singular))
    if lr.size:
        tail = np.cumsum(weights[::-1])[::-1]
        steps = np.diff(lr) * tail[1:]
        above = np.append(np.cumsum(steps[::-1])[::-1], 0.0)
        t = np.exp(eps)
        first = np.searchsorted(lr, t * (1.0 + TIE_REL_TOL), side="right")
        hit = first < lr.size
        i = first[hit]
        delta[hit] += above[i] + (lr[i] - t[hit]) * tail[i]
    return np.clip(delta, 0.0, 1.0)


def privacy_curve(
    atoms: LrAtomization, eps, sidedness: Sidedness = Sidedness.FORWARD
) -> PrivacyCurve:
    """Evaluate the hockey-stick divergence of the atomized pair on a grid.

    FORWARD is E_null[(L - e^eps)_+] plus any alt-singular mass; REVERSE
    applies the same formula to the reversed atomization; TWO_SIDED is their
    pointwise maximum.  Values are clipped into [0, 1].  This is the one
    place curves are summed: the binomial and m-message curves are this
    function on their atoms.
    """
    grid = _check_eps_grid(eps)
    if sidedness is Sidedness.FORWARD:
        delta = _hockey_stick(atoms.lr, atoms.p_null, atoms.alt_singular_mass, grid)
    elif sidedness is Sidedness.REVERSE:
        rev = reverse_atomization(atoms)
        delta = _hockey_stick(rev.lr, rev.p_null, rev.alt_singular_mass, grid)
    elif sidedness is Sidedness.TWO_SIDED:
        rev = reverse_atomization(atoms)
        delta = np.maximum(
            _hockey_stick(atoms.lr, atoms.p_null, atoms.alt_singular_mass, grid),
            _hockey_stick(rev.lr, rev.p_null, rev.alt_singular_mass, grid),
        )
    else:  # pragma: no cover - exhaustive enum
        raise ValidationError(f"unknown sidedness {sidedness!r}")
    return PrivacyCurve(eps=grid, delta=delta, sidedness=sidedness)


def binomial_curve(channel: Channel, n: int, eps) -> PrivacyCurve:
    """Forward curve of the k=0 pair for d=2, from the binomial atoms.

    delta(eps) = sum_K C(n,K) p0^K (1-p0)^(n-K) (L(K) - e^eps)_+ with the
    affine ratio L(K), i.e. `privacy_curve` of `binomial_lr_atoms`.
    """
    return privacy_curve(binomial_lr_atoms(channel, n), eps)


# ---------------------------------------------------------------------------
# divergences and trade-off


def _jsd_kernel(t: np.ndarray) -> np.ndarray:
    """Per-atom Jensen-Shannon integrand D(t); D(0) = (log 2)/2.

    D(t) = (log(2/(1+t)) + t log(2t/(1+t)))/2 is ~(t-1)^2/8 near t = 1,
    summed from terms of size ~|t-1|/2.  With u = (t-1)/(t+1) it equals
    ((1+u) log1p(u) + (1-u) log1p(-u)) (1+t)/4, and the bracket is
    2u atanh(u) + log1p(-u^2): terms ~2u^2 and ~-u^2, so for |u| <= 1/2
    (t in [1/3, 3]) at most one bit cancels.  Outside that range the direct
    form cancels as little and keeps the relative accuracy that the u form
    loses when u is near 1.
    """
    u = (t - 1.0) / (t + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        near = (2.0 * u * np.arctanh(u) + np.log1p(-u * u)) * (1.0 + t) / 4.0
        far = 0.5 * np.log(2.0 / (1.0 + t)) + 0.5 * t * np.log(2.0 * t / (1.0 + t))
    return np.where(np.abs(u) <= 0.5, near, np.where(t == 0.0, 0.5 * _LOG2, far))


def _fsum(terms: np.ndarray) -> float:
    """Exactly rounded sum, fed to `math.fsum` in decreasing magnitude per sign.

    The result does not depend on the order.  The nonnegative terms go in
    largest first, then the negative ones most negative first: terms of
    decreasing magnitude keep fsum's list of partials short, which makes it
    much faster on terms spanning hundreds of decades (the far-tail atoms of
    a large-n binomial pair, and KL's negative terms).  One sorted copy is
    the only temporary.
    """
    s = np.sort(terms)
    neg = int(np.searchsorted(s, 0.0))
    return math.fsum(itertools.chain(s[neg:][::-1], s[:neg]))


def _jsd(atoms: LrAtomization) -> float:
    """Jensen-Shannon divergence of the pair, the `jsd` of `divergences`."""
    return _fsum(atoms.p_null * _jsd_kernel(atoms.lr)) + atoms.alt_singular_mass * 0.5 * _LOG2


def divergences(atoms: LrAtomization, renyi_orders=()) -> DivergenceReport:
    """Standard divergences of the alt law from the null law.

    JSD and TV tolerate one-sided support loss (zero-ratio atoms and
    alt-singular mass); the chi-square and KL divergences are infinite when
    alt mass sits outside the null support.  Renyi orders must exceed 1 and
    additionally require full support in both directions.  Each is an
    exactly rounded sum (`math.fsum`) of per-atom terms.
    """
    lr, p_null = atoms.lr, atoms.p_null
    sing = atoms.alt_singular_mass
    jsd = _jsd(atoms)
    above = lr > 1.0
    tv = _fsum(p_null[above] * (lr[above] - 1.0)) + sing
    if sing > 0.0:
        chi2 = math.inf
        kl = math.inf
    else:
        chi2 = _fsum(p_null * (lr - 1.0) ** 2)
        pos = lr > 0.0
        kl = _fsum(p_null[pos] * lr[pos] * np.log(lr[pos]))
    renyi: dict[float, float] = {}
    for alpha in renyi_orders:
        alpha = float(alpha)
        if not (1.0 < alpha < math.inf):
            raise ValidationError(f"Renyi order must be finite and exceed 1, got {alpha}")
        if sing > 0.0 or np.any(lr == 0.0):
            raise ValidationError(
                "Renyi divergence needs full support in both directions"
            )
        moment = _fsum(p_null * lr**alpha)
        renyi[alpha] = math.log(moment) / (alpha - 1.0)
    return DivergenceReport(jsd=jsd, tv=tv, chi2=chi2, kl=kl, renyi=renyi)


def tradeoff_curve(atoms: LrAtomization) -> TradeoffCurve:
    """Exact optimal trade-off polyline by the likelihood-ratio sweep.

    Atoms are rejected in decreasing ratio order; each prefix contributes a
    vertex (null mass rejected, alt mass accepted).  Alt-singular mass is
    rejected first at no alpha cost, so the curve starts at
    (0, 1 - alt_singular_mass) and always ends at (1, 0).
    """
    pn = atoms.p_null[::-1]  # ratios are strictly increasing
    pa = atoms.p_alt[::-1]
    alpha = np.concatenate(([0.0], np.cumsum(pn)))
    beta = np.concatenate(([1.0 - atoms.alt_singular_mass], 1.0 - atoms.alt_singular_mass - np.cumsum(pa)))
    if not (abs(alpha[-1] - 1.0) <= 1e-9 and abs(beta[-1]) <= 1e-9):
        raise InternalInvariantError(
            f"trade-off sweep ended at ({alpha[-1]!r}, {beta[-1]!r}), not (1, 0)"
        )
    alpha[-1] = 1.0
    beta = np.clip(beta, 0.0, 1.0)
    beta[-1] = 0.0
    return TradeoffCurve(alpha=alpha, beta=beta)


# ---------------------------------------------------------------------------
# conditional score and its linearization


def conditional_score(channel: Channel, comp: Composition, histogram, cap: int = DEFAULT_ATOM_CAP):
    """Conditional mean score U(N) = L_{n,k}(N) - 1 at one histogram or a batch.

    One count vector gives a float; a sequence of them, such as an (r, d)
    array, gives an array of r scores.  All are read from one `_ratio_table`,
    the ratio the atoms and the sampler use.

    Raises:
        ValidationError: a histogram of wrong shape/mass, or null mass below
            MIN_NULL_MASS at N (off the support; the atoms drop such cells);
            in a batch the message names the row.
    """
    batch = any(np.ndim(row) for row in histogram) or np.ndim(histogram) == 2
    rows = list(histogram) if batch else [histogram]
    for i, row in enumerate(rows):
        try:
            rows[i] = _check_histogram(channel, row, comp.n)
        except ValidationError as exc:
            raise ValidationError(f"batch row {i}: {exc}") if batch else exc
    null, ratio = _ratio_table(channel, comp, cap)
    cell = tuple(np.array(rows, dtype=np.intp).reshape(len(rows), channel.d)[:, :-1].T)
    score = ratio[cell] - 1.0
    for i in np.flatnonzero(np.isnan(score))[:1]:
        where = f"batch row {i}: " if batch else ""
        raise ValidationError(f"{where}histogram {rows[i]} has null mass {float(null[cell][i])!r} below MIN_NULL_MASS")
    return score if batch else float(score[0])


def linearization_residual(
    channel: Channel,
    comp: Composition,
    window_mult: float = 3.0,
    pi_convention: str = "k_over_n_minus_1",
    cap: int = DEFAULT_ATOM_CAP,
) -> ResidualSummary:
    """Residual of U(N) against its linear prediction, over a window.

    The prediction is (1/n) s . (N - E[N]) where s solves the
    fixed-composition covariance system at pi = k/(n-1) (the appended user's
    point of view; pass pi_convention="k_over_n" for the plain fraction).
    Histograms with ||N - E[N]||_inf beyond window_mult * sqrt(n log n) are
    skipped and their null mass reported as `outside_mass`.
    """
    if comp.n < 2:
        raise ValidationError("linearization needs n >= 2")
    if pi_convention == "k_over_n_minus_1":
        pi = comp.k / (comp.n - 1)
    elif pi_convention == "k_over_n":
        pi = comp.k / comp.n
    else:
        raise ValidationError(f"unknown pi convention {pi_convention!r}")
    if not (window_mult > 0.0):
        raise ValidationError(f"window_mult must be positive, got {window_mult!r}")
    from .simplex_linalg import fisher_constant

    s = fisher_constant(channel, pi).s
    null, ratio = _ratio_table(channel, comp, cap)
    pos, counts = _descending_cells(~np.isnan(ratio))
    p_null, U = null.ravel()[pos], ratio.ravel()[pos] - 1.0
    center = mean_histogram(channel, comp)
    dev = counts - center
    half = window_mult * math.sqrt(comp.n * math.log(comp.n))
    inside = np.max(np.abs(dev), axis=1) <= half
    residual = np.abs(U - (dev @ s) / comp.n)
    mass_in = float(p_null[inside].sum())
    if mass_in <= 0.0:
        raise ValidationError("window excludes the entire support; widen window_mult")
    rms = math.sqrt(float(np.dot(p_null[inside], residual[inside] ** 2)) / mass_in)
    return ResidualSummary(
        max_abs=float(residual[inside].max()),
        rms=rms,
        outside_mass=float(p_null[~inside].sum()),
        window_halfwidth=half,
        n_inside=int(inside.sum()),
        pi=pi,
    )


# ---------------------------------------------------------------------------
# CSV serialization (17 significant digits; round-trips exactly)


_FLOAT_FORMAT = "%.17g"


def _fmt(x: float) -> str:
    return _FLOAT_FORMAT % float(x)


def _table_to_csv(columns, table, header_lines=()) -> str:
    """CSV of a 2-D array with one column per name; each value as `_fmt` writes it.

    One `%` formats every row from one flat list of floats, which is faster
    and holds fewer temporaries than a string per cell or per row.
    """
    table = np.asarray(table, dtype=np.float64)
    lines = [line if line.startswith("#") else f"# {line}" for line in header_lines]
    lines.append(",".join(columns))
    row = "\n" + ",".join([_FLOAT_FORMAT] * len(columns))
    return "\n".join(lines) + (row * len(table)) % tuple(table.ravel().tolist()) + "\n"


def law_to_csv(law: HistogramLaw, header_lines: tuple[str, ...] = ()) -> str:
    """Serialize a histogram law with columns h_0,...,h_{d-1},prob."""
    columns = tuple(f"h_{i}" for i in range(law.d)) + ("prob",)
    counts, mass = law.cells()
    return _table_to_csv(columns, np.column_stack((counts, mass))[::-1], header_lines)


def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    """Read back a CSV written by this module: (column names, value array)."""
    rows = []
    columns: list[str] | None = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if columns is None:
            columns = line.split(",")
            continue
        rows.append([float(tok) for tok in line.split(",")])
    if columns is None:
        raise ValidationError("CSV has no header row")
    return columns, np.array(rows, dtype=np.float64)
