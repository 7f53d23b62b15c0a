"""Exact finite-n distributions of the shuffled histogram and their curves.

The observable after shuffling n binary-input users is the histogram N of
messages.  With k ones among the inputs, the histogram law T_{n,k} is an
n-fold convolution of single-user laws; the adjacent pair (T_{n,k},
T_{n,k+1}) is the binary hypothesis-testing experiment whose likelihood
ratio, privacy curve, trade-off curve and divergences are computed here,
exactly, atom by atom.

Conventions: the "null" hypothesis is T_{n,k} (k ones), the "alt" hypothesis
is T_{n,k+1} (one more one).  For k = 0, with m messages per user, the null
law is the multinomial Mult(nm, W0), built in closed form from conditional
binomial masses (`_null_levels`); at m = 1 the ratio is affine in the
histogram, L(N) = (1/n) sum_y N_y w(y) with w = W1/W0, and `multimessage`
takes the degree-m ratio on the same cells.  Every pair with k > 0 is folded
one message at a time, in place in one array (`_fold`), and every
atomization ends in `_atomize`.
"""

import enum
import itertools
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .channels import Channel, Support, score_stats
from .errors import EnumerationCapError, InternalInvariantError, ValidationError

# Refuse exact enumeration beyond this many dense histogram-law cells.
DEFAULT_ATOM_CAP = 30_000_000

# A ratio within this relative distance above a threshold e^eps counts as a
# tie and adds nothing to delta(eps).  Computed ratios carry a few ulps of
# rounding (a quotient of two folded sums, or W1/W0 of the channel), so the
# excess of such an atom is rounding noise: at the largest ratio of shuffled
# randomized response, e^eps0, delta(eps0) is exactly 0, not ~1e-17.
TIE_REL_TOL = 16 * np.finfo(np.float64).eps

# Cells whose null mass is below the smallest normal double are dropped: their
# ratio p_alt / p_null is a quotient of subnormals (or 0/0) and off by O(1).
MIN_NULL_MASS = np.finfo(np.float64).tiny

# Atomization totals (and the trade-off sweep's end) must be 1 within this.
_MASS_TOL = 1e-9

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

    It must also convert to a double, which the bounds and asymptotics take
    it as.  Returns it as a Python int, so numpy integers cannot overflow later.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if value > sys.float_info.max:
        raise ValidationError(f"{name} must be at most {sys.float_info.max!r}, got {value!r}")
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

# Cells per block of the last level of the k = 0 chain (`_null_levels`, and
# so of `_binom_pmf` on it) and of the per-atom sums: their temporaries are
# of this size, not of the cells'.
_CELL_BLOCK = 1 << 12


def _cell_blocks(size: int):
    """Slices cutting 0..size-1 into runs of _CELL_BLOCK."""
    return (slice(i, i + _CELL_BLOCK) for i in range(0, size, _CELL_BLOCK))


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


def _dense_shape(n: int, d: int, cap: int) -> tuple:
    """The shape (n+1,)*(d-1) of a dense law of n messages, refused beyond `cap` cells."""
    _check_cap((n + 1) ** (d - 1), f"dense histogram law for {n} messages, d={d}", cap)
    return (n + 1,) * (d - 1)


def _base_law(channel: Channel, zeros: int, ones: int, room: int, cap: int) -> tuple[np.ndarray, float]:
    """Renormalized dense law of `zeros` W0- then `ones` W1-messages and its factor.

    The law is held in an array with room for `room` more messages, so that
    they can be folded in place.  Raises EnumerationCapError when that array
    has more than `cap` cells.
    """
    law = np.zeros(_dense_shape(zeros + ones + room, channel.d, cap))
    law[(0,) * (channel.d - 1)] = 1.0
    _fold(law, 0, [channel.W0] * zeros + [channel.W1] * ones)
    factor = 1.0 / _fsum(law[law > 0.0])
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


def _sort_atoms(atoms: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort the atoms [lr, p_null, p_alt] by ratio and join the ones whose ratios are the same double.

    The sort owns the list: it permutes one array at a time, replacing each
    in the list by its sorted copy, so an input the caller holds no other
    reference to is freed once it is sorted.  The sort then peaks at the
    three arrays, the permutation and one sorted copy (40 B an atom).  An
    atom keeps its computed ratio: cells join only where their ratios are
    equal, their masses summed in the stable sort's order, so no ratio
    moves and the sorted arrays are the result when all ratios differ.
    """
    order = np.argsort(np.asarray(atoms[0], dtype=np.float64), kind="stable")
    for i in range(3):
        atoms[i] = np.asarray(atoms[i], dtype=np.float64)[order]
    del order
    new = atoms[0][1:] != atoms[0][:-1]
    if new.all():
        return tuple(atoms)
    starts = np.flatnonzero(np.concatenate(([True], new)))
    del new
    atoms[0] = atoms[0][starts]
    for i in (1, 2):
        atoms[i] = np.add.reduceat(atoms[i], starts)
    return tuple(atoms)


def _check_pair(channel: Channel, comp: Composition, what: str) -> None:
    """Preconditions of the adjacent pair (T_{n,k}, T_{n,k+1})."""
    if channel.support is Support.SINGULAR:
        raise ValidationError(f"{what} needs min(W0) > 0; channel is SINGULAR")
    if comp.k > comp.n - 1:
        raise ValidationError(
            f"the pair (k, k+1) needs k <= n-1; got k={comp.k}, n={comp.n}"
        )


def _drop_rule(block: list) -> tuple[np.ndarray, list]:
    """The one drop rule on a block [p_null, p_alt, ...]: the mask of the cells of null mass at
    least MIN_NULL_MASS, which it keeps, and the positive null and alt masses of the others."""
    keep = block[0] >= MIN_NULL_MASS
    return keep, [mass[~keep & (mass > 0.0)] for mass in block[:2]]


def _pair_blocks(channel: Channel, zeros: int, ones: int, cap: int):
    """The pair base + one W0- against base + one W1-message, one block of the last message at a time.

    The last message, and no other fold of it, runs over the boxes of
    `_blocks`, yielding (null array, box, [p_null, p_alt, lr]): the box's
    masses under the two laws (`_fold_block`) and their ratio on the cells
    `_drop_rule` keeps (its readers read no other), formed in the products'
    spent buffer; all three are scratch that the next block overwrites.  A
    reader may write the null block into `null[box]`, as `_fold` does.
    """
    W0, W1 = channel.W0, channel.W1
    null = _base_law(channel, zeros, ones, 1, cap)[0]
    null_out, alt_out, product = _block_buffers(null, 3)
    for box in _blocks(null, zeros + ones):
        block = [_fold_block(null, W0, box, null_out, product), _fold_block(null, W1, box, alt_out, product)]
        lr = product[: block[0].size].reshape(block[0].shape)
        np.divide(block[1], block[0], out=lr, where=_drop_rule(block)[0])
        yield null, box, block + [lr]


def _ratio_table(channel: Channel, comp: Composition, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense null law of the pair at (n, k) and its ratio L = alt / null, the one table read at
    single histograms: two dense arrays, no alt law.  L is NaN on the cells the atoms drop, and
    the pair is refused as in `_atomize` when its alt mass there is above _MASS_TOL.  After the
    dense cap check, k = 0 scatters the atoms' cells (`_canonical_cells`) by their histograms
    (other cells hold mass 0), and k > 0 completes the null law in the array of T_{n-1,k}.
    """
    _check_pair(channel, comp, "pair ratio")
    ratio, dropped_alt = np.full(_dense_shape(comp.n, channel.d, cap), np.nan), []
    if comp.k == 0:
        null = np.zeros(ratio.shape)
        blocks = ((null, tuple(c.astype(np.intp) for c in b[3][:-1]), b) for b in _canonical_cells(channel, comp.n, cap))
    else:
        blocks = _pair_blocks(channel, comp.n - 1 - comp.k, comp.k, cap)
    for null, at, block in blocks:
        keep, dropped = _drop_rule(block)
        null[at], ratio[at] = block[0], np.where(keep, block[2], np.nan)
        dropped_alt.append(dropped[1])
    _check_dropped_alt(_fsum(np.concatenate(dropped_alt)))
    return null, ratio


def _check_dropped_alt(dropped_alt: float) -> None:
    if not dropped_alt <= _MASS_TOL:
        raise ValidationError(
            f"the alt law puts mass {dropped_alt!r} (more than {_MASS_TOL}) on cells whose null"
            " mass is below the smallest normal double, where no ratio can be computed"
        )


def _atomize(n: int, k: int, blocks) -> LrAtomization:
    """The sorted, checked atomization of the cells of `blocks`, in their order.

    Each block is a list [p_null, p_alt, lr, ...] of its cells' masses under
    the two laws and their ratios (no more is read).  `_drop_rule` leaves out
    the cells of null mass below MIN_NULL_MASS, their positive masses summed
    (`_fsum`); a pair whose dropped alt mass is above _MASS_TOL is refused.
    Each of those arrays is replaced in the list by its kept cells (a copy, so
    no scratch view outlives its block), one at a time, and blocks are joined
    one array at a time, each array's blocks freed once joined.  `_sort_atoms`
    then owns every array, so the k = 0 pair peaks at its sort, about 40 B a kept cell.
    """
    kept, dropped = [], []
    for block in blocks:
        keep, masses = _drop_rule(block)
        dropped.append(masses)
        for i in range(3):
            block[i] = block[i][keep]
        kept.append(block[:3])
    dropped_null, dropped_alt = (_fsum(np.concatenate(masses)) for masses in zip(*dropped))
    del dropped
    _check_dropped_alt(dropped_alt)
    if len(kept) == 1:
        cells = kept.pop()
    else:
        columns = list(zip(*kept))
        del kept
        cells = [np.concatenate(columns.pop(0)) for _ in range(len(columns))]
    cells.insert(0, cells.pop())  # [lr, p_null, p_alt], in place: the sort owns the list
    lr, p_null, p_alt = _sort_atoms(cells)
    atoms = LrAtomization(n, k, lr, p_null, p_alt, dropped_null_mass=dropped_null, dropped_alt_mass=dropped_alt)
    _check_atomization(atoms)
    return atoms


def _fold_atoms(channel: Channel, comp: Composition, cap: int) -> LrAtomization:
    """Atoms of the pair at (n, k) from the dense fold of its base T_{n-1,k}; the
    cells enter `_atomize` in descending lexicographic order (reversed C
    order), and the dense law is freed before they are sorted."""
    n, k = comp.n, comp.k
    blocks = _pair_blocks(channel, n - 1 - k, k, cap)
    return _atomize(n, k, ([cells.ravel()[::-1] for cells in block] for _, _, block in blocks))


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
            windowed cells of any level of `_null_levels`, otherwise the
            dense law's (n+1)^(d-1)).
    """
    _check_pair(channel, comp, "likelihood-ratio atoms")
    if comp.k > 0:
        return _fold_atoms(channel, comp, cap)
    return _atomize(comp.n, 0, _canonical_cells(channel, comp.n, cap))


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
    v = (x - mean) / (x + mean), |v| < 0.1, summed to j = 9.  Term j is at
    most 1.1 |v|^(2j-1) / (2j+1) of the sum, below half an ulp from j = 9 on,
    and the terms shrink, so once one rounds away every later one does too:
    the fixed count gives the bits of summing until the sum stops changing.
    """
    with np.errstate(over="ignore"):
        log_ratio = np.log(x / mean)
    # a subnormal mean: x / mean overflows where its log does not
    far = np.isinf(log_ratio)
    if far.any():
        log_ratio[far] = np.log(x[far]) - np.log(mean[far] if np.ndim(mean) else mean)
    out = x * log_ratio + mean - x
    near = np.abs(x - mean) < 0.1 * (x + mean)
    xs = x[near]
    if np.ndim(mean):
        mean = mean[near]
    v = (xs - mean) / (xs + mean)
    s = (xs - mean) * v
    ej = 2.0 * xs * v
    v *= v
    for j in range(1, 10):
        ej *= v
        s += ej / (2 * j + 1)
    out[near] = s
    return out


def _binom_pmf(K: np.ndarray, n, p: float, stirlerr_table=None, log: bool = False) -> np.ndarray:
    """Binomial(n, p) masses at the integer-valued floats K in [0, n] (1-d), 0 < p < 1.

    `n` is an int, or an array of integer-valued floats shaped like K (one
    binomial per entry).  Loader's saddle-point form (C. Loader, "Fast and
    accurate computation of binomial probabilities", 2000; the algorithm of
    R's dbinom): P(K) = exp(stirlerr(n) - stirlerr(K) - stirlerr(n - K)
    - bd0(K, n p) - bd0(n - K, n q)) / sqrt(2 pi K (n - K) / n), whose terms
    are small and do not cancel, so the relative accuracy holds far into the
    tails.  The end counts are q^n and p^n.  `stirlerr_table`, if given,
    holds `_stirlerr` at 0, 1, ..., max(n) and is indexed instead.  With
    `log`, the log masses are returned, so no tail mass underflows.

    One pass over K: every step is elementwise, so a caller that wants
    temporaries of bounded size passes a block of its entries
    (`_null_levels` does) and gets the same bits.
    """
    out = np.empty_like(K)
    q = 1.0 - p
    first, last = K == 0.0, K == n
    inner = ~(first | last)
    for end, log_p in ((first, math.log1p(-p)), (last, math.log(p))):
        if np.ndim(n):
            out[end] = n[end] * log_p if log else np.exp(n[end] * log_p)
        else:
            out[end] = n * log_p if log else math.exp(n * log_p)
    if np.ndim(n):
        n = n[inner]
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
    out[inner] = lc - 0.5 * lf if log else np.exp(lc - 0.5 * lf)
    return out


def _window_ends(n: int, p0: float) -> tuple[int, int]:
    """The first and last count of [floor(n p0) - isqrt(400 n) - 1, ceil(n p0) + isqrt(400 n) + 1] in [0, n],
    in integers at every n: it holds n p0 +- sqrt(400 n) (`_null_levels`); the counts it adds have mass 0.0."""
    num, den = p0.as_integer_ratio()
    half = math.isqrt(400 * n) + 1
    return max(0, n * num // den - half), min(n, -(-n * num // den) + half)


def _spawned_cells(a: int, b: int, lo: int, hi: int) -> int:
    """The cells that parents with a, a+1, ..., b counts left spawn from the window lo..hi:
    a parent with r left spawns the counts lo..min(r, hi), none where r < lo."""
    s, t = max(a, lo), min(b, hi)
    ramp = (t - s + 1) * (s + t + 2 - 2 * lo) // 2 if s <= t else 0
    return ramp + (hi + 1 - lo) * max(0, b + 1 - max(a, hi + 1))


def _relabelling(channel: Channel) -> tuple[np.ndarray, np.ndarray]:
    """The k = 0 chain's symbol order, a stable argsort of -W0, and w = W1/W0 in that order."""
    order = np.argsort(-channel.W0, kind="stable")
    return order, score_stats(channel).w[order]


def _null_levels(W0: np.ndarray, N: int, cap: int, what: str, log: bool = False):
    """The cells of Mult(N, W0), one symbol at a time, with their conditional binomial masses.

    With W0 given in the order of `_relabelling` (decreasing), the null law
    Mult(N, W0) is a product of conditional binomials,
    P(N) = prod_{j=d-1..1} Bin(N_j; N - sum_{i>j} N_i, W0_j / sum_{i<=j} W0_i),
    with N_0 what remains; every share is at most 1/2, so 1 - p does not
    cancel.  Each factor is `_binom_pmf`, vectorized over the cells built so
    far.  N_j runs only over the window of its marginal Bin(N, W0_j)
    (`_window_ends`), outside of which Hoeffding's inequality puts
    mass < e^-800, far below the smallest subnormal double.  Each level's
    cells are counted from the window lengths before its masses are
    evaluated, and EnumerationCapError is raised once they exceed `cap`;
    the first two levels are counted in closed form before any array is
    built, so a refused N allocates nothing of its size.

    Yields (j, row, K, rest, mass) for j = d-1, ..., 1: each cell's parent
    among the previous level's cells (None at the first level), its count
    N_j, the count N - sum_{i>=j} N_i left below j (N_0 at the last level),
    and its conditional mass (its log with `log`).  The last level (j = 1)
    comes in consecutive blocks of about _CELL_BLOCK cells, runs of the
    window at d = 2 and of whole parent cells at d >= 3, so no temporary
    of its size is held; `row` still indexes the whole previous level.
    Earlier levels come whole: they hold about window^(d-2) cells at most.
    """
    d = W0.size
    ends = [_window_ends(N, float(W0[j])) for j in range(d - 1, 0, -1)]
    share = W0 / np.cumsum(W0)
    lo, hi = ends[0]
    _check_cap(hi + 1 - lo, what, cap)
    if d > 2:
        _check_cap(_spawned_cells(N - hi, N - lo, *ends[1]), what, cap)
    K = np.arange(lo, hi + 1, dtype=np.float64)
    # at d >= 3 the cells far outnumber the N + 1 values stirlerr is taken at
    table = _stirlerr(np.arange(N + 1.0)) if d > 2 else None
    for at in _cell_blocks(K.size) if d == 2 else [slice(None)]:
        rest = N - K[at]
        yield d - 1, None, K[at], rest, _binom_pmf(K[at], N, float(W0[d - 1]), table, log)
    for j, (lo, hi) in zip(range(d - 2, 0, -1), ends[1:]):
        # each cell so far spawns the window counts that fit in what remains
        lo = float(lo)
        length = np.clip(np.minimum(rest, float(hi)) - lo + 1.0, 0.0, None).astype(np.intp)
        cells = int(length.sum())
        _check_cap(cells, what, cap)
        parents, cuts = rest, [0, rest.size]
        if j == 1:
            # a run ends before the parent of cell _CELL_BLOCK, 2 _CELL_BLOCK, ...
            ends = np.searchsorted(np.cumsum(length), np.arange(_CELL_BLOCK, cells, _CELL_BLOCK), side="right")
            cuts = sorted({*cuts, *ends.tolist()})  # np.unique would load numpy.ma
        for run in (slice(a, b) for a, b in zip(cuts, cuts[1:])):
            row = np.repeat(np.arange(run.start, run.stop), length[run])
            K = lo + (np.arange(row.size) - np.repeat(np.cumsum(length[run]) - length[run], length[run]))
            rest = parents[row]
            mass = _binom_pmf(K, rest, float(share[j]), table, log)
            rest -= K
            yield j, row, K, rest, mass


def _canonical_cells(channel: Channel, n: int, cap: int):
    """The k=0 pair on the cells of `_null_levels`, in their order, as `_atomize` blocks.

    One block [p_null, p_alt, lr, counts] for each block of the last level: null masses, the
    ratios `_affine_lr` and p_alt = L p_null at the histograms `counts` (counts[y] those of
    symbol y), which each level gathers from its parent cells' by `row`.
    """
    order, w = _relabelling(channel)
    p_null, held = None, [None] * channel.d
    for j, row, K, rest, mass in _null_levels(channel.W0[order], n, cap, f"k=0 law for n={n}, d={channel.d}"):
        counts = [c if c is None else c[row] for c in held]
        counts[order[j]], mass = K, mass if row is None else p_null[row] * mass
        if j > 1:
            p_null, held = mass, counts
        else:
            counts[order[0]] = rest
            lr = _affine_lr(counts, n, order, w)
            yield [mass, lr * mass, lr, counts]


def _affine_lr(counts, n: int, order: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The k=0 ratio L(N) = (1/n) sum_y N_y w(y) at the histograms `counts` (counts[y] those of
    symbol y: rows of a (d, r) array, or a list of d arrays), with the `_relabelling` (order, w):
    the package's one k = 0 ratio code, read by the atoms, the sampler and the table.  Its terms
    (N_y / n) w(y) are added in the chain's order, the symbol of least W0 first."""
    lr = (counts[order[-1]] / n) * w[-1]
    for j in range(order.size - 2, -1, -1):
        lr += (counts[order[j]] / n) * w[j]
    return lr


def binomial_lr_atoms(channel: Channel, n: int) -> LrAtomization:
    """Atoms of the k=0 pair for a two-symbol channel: `lr_atoms` at k=0, whose
    count window |K - n W0[1]| <= sqrt(400 n) scales to n in the millions."""
    if channel.d != 2:
        raise ValidationError(f"binomial atoms need d=2, got d={channel.d}")
    return lr_atoms(channel, Composition(n, 0))


def reverse_atomization(atoms: LrAtomization) -> LrAtomization:
    """Swap the roles of the two laws: ratios invert, masses exchange.

    Not on the curve path (`privacy_curve` sums REVERSE from the atoms as
    they are); the divergences of the reversed pair are `divergences` of this.
    Null mass on zero-ratio atoms becomes singular mass of the reversed
    direction (the reversed ratio is infinite there), and vice versa, so
    reversing twice gives back the original atomization.  The dropped
    masses swap too.

    Raises:
        ValidationError: a ratio is so small (subnormal) that its inverse
            overflows a double.
    """
    zero = atoms.lr == 0.0
    singular = float(atoms.p_null[zero].sum())
    keep = ~zero
    with np.errstate(over="ignore"):
        lr = 1.0 / atoms.lr[keep]
    if np.isinf(lr).any():
        raise ValidationError(
            f"the reversed pair's ratio 1/L overflows a double at L = {float(atoms.lr[keep][np.isinf(lr)][0])!r}"
        )
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


def _check_atomization(atoms: LrAtomization) -> None:
    for label, arr in (("ratio", atoms.lr), ("null mass", atoms.p_null), ("alt mass", atoms.p_alt)):
        if not np.all(np.isfinite(arr)):
            raise InternalInvariantError(f"atomization has a non-finite {label}")
    if not np.all(np.diff(atoms.lr) > 0.0):
        raise InternalInvariantError("atomization ratios are not strictly increasing")
    total_null = float(atoms.p_null.sum())
    total_alt = float(atoms.p_alt.sum()) + atoms.alt_singular_mass
    mean_lr = float(np.dot(atoms.lr, atoms.p_null)) + atoms.alt_singular_mass
    for label, value in (("null", total_null), ("alt", total_alt), ("E_null[L]", mean_lr)):
        if not (abs(value - 1.0) <= _MASS_TOL):
            raise InternalInvariantError(
                f"atomization {label} mass is {value!r}, off 1 by more than {_MASS_TOL}"
            )


# ---------------------------------------------------------------------------
# privacy curves


def _check_eps_grid(eps) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(eps, dtype=np.float64))
    if arr.size == 0:
        raise ValidationError("epsilon grid is empty")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValidationError("epsilon grid entries must be finite and >= 0")
    return arr


def _hockey_stick(atoms: LrAtomization, eps: np.ndarray, reverse: bool = False) -> np.ndarray:
    """One direction of `privacy_curve`, clipped to [0, 1]: FORWARD's sum from
    the top of the atoms, or REVERSE's, times u, from the bottom."""
    if reverse:  # the threshold is u = e^-eps, at least the least positive double so
        # that zero ratios always count; it and the ratios below 1 are scaled by
        # 2^1000 (exactly), so that no step between subnormal ratios underflows
        below = np.searchsorted(atoms.lr, 1.0)
        x, mass = np.ldexp(atoms.lr[:below], 1000), np.cumsum(atoms.p_null[:below])
        t = np.ldexp(np.maximum(np.exp(-eps), math.ulp(0.0)), 1000)
        i = np.searchsorted(x, t / (1.0 + TIE_REL_TOL)) - 1
    else:
        x, mass = atoms.lr[::-1], np.cumsum(atoms.p_null[::-1])
        with np.errstate(over="ignore"):  # t = inf above eps ~ 709.78: no atom lies above it
            t = np.exp(eps)
        i = x.size - 1 - np.searchsorted(atoms.lr, t * (1.0 + TIE_REL_TOL), side="right")
    delta, hit = np.full(eps.size, 0.0 if reverse else atoms.alt_singular_mass), i >= 0
    if hit.any():  # the sums of the steps before each atom (D or B), then delta
        steps = np.abs(np.diff(x, prepend=x[0]))
        steps[1:] *= mass[:-1]
        np.cumsum(steps, out=steps)
        i, t = i[hit], t[hit]
        sums = steps[i] + np.abs(x[i] - t) * mass[i]
        delta[hit] += sums / t if reverse else sums
    return np.clip(delta, 0.0, 1.0)


def privacy_curve(
    atoms: LrAtomization, eps, sidedness: Sidedness = Sidedness.FORWARD
) -> PrivacyCurve:
    """Evaluate the hockey-stick divergence of the atomized pair on a grid.

    With t = e^eps, u = e^-eps and the ratios L_i ascending, FORWARD is
    E_null[(L - t)_+] plus any alt-singular mass: D_i + (L_i - t) P_i at the
    first atom i with L_i > t (1 + TIE_REL_TOL), where P_i = sum_{j>=i} p_null_j
    and D_i = sum_{l>i} (L_l - L_{l-1}) P_l.  REVERSE, the reversed pair's
    E_alt[(1/L - t)_+] = E_null[(1 - L/u)_+], is (B_i + (u - L_i) H_i) / u at
    the last atom i with L_i (1 + TIE_REL_TOL) < u, where H_i = sum_{j<=i}
    p_null_j and B_i = sum_{l<i} (L_{l+1} - L_l) H_l: zero ratios add their
    null mass and no ratio is inverted.  TWO_SIDED is their pointwise
    maximum.  Every term is nonnegative, so far-tail values keep full
    relative accuracy, at O(atoms + grid) time and memory.  Above
    eps ~ 709.78 FORWARD is the alt-singular mass.  REVERSE is the null mass
    of the zero ratios above eps ~ 744.44, where no positive double is below
    u, and from eps ~ 708.40, where u is subnormal, holds to about
    e^eps 2^-1074 of the mass it counts.  Values are clipped into [0, 1].
    This is the one place curves are summed: the binomial and m-message
    curves are this function on their atoms.
    """
    grid = _check_eps_grid(eps)
    if sidedness is Sidedness.FORWARD:
        delta = _hockey_stick(atoms, grid)
    elif sidedness is Sidedness.REVERSE:
        delta = _hockey_stick(atoms, grid, reverse=True)
    elif sidedness is Sidedness.TWO_SIDED:
        delta = np.maximum(_hockey_stick(atoms, grid), _hockey_stick(atoms, grid, reverse=True))
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

    The result does not depend on the order.  The positive terms go in
    largest first, then the negative ones most negative first: terms of
    decreasing magnitude keep fsum's list of partials short, which makes it
    much faster on terms spanning hundreds of decades (the far-tail atoms of
    a large-n binomial pair, and KL's negative terms).  Zeros, which never
    change an exact sum (fsum of none is +0.0), are skipped.  `terms` is
    sorted in place, so the sum takes no temporary of its size: every
    caller passes an array it owns.
    """
    terms.sort()
    neg, pos = np.searchsorted(terms, 0.0, side="left"), np.searchsorted(terms, 0.0, side="right")
    return math.fsum(itertools.chain(terms[pos:][::-1], terms[:neg]))


def _atom_fsum(atoms: LrAtomization, term) -> float:
    """`_fsum` of the per-atom terms term(lr, p_null).

    The terms go into one array, _CELL_BLOCK atoms at a time, so the term's
    temporaries are of that size and the sum holds 8 B an atom (the terms,
    which `_fsum` sorts in place); `_fsum` does not depend on the blocks.
    """
    terms = np.empty_like(atoms.lr)
    for at in _cell_blocks(terms.size):
        terms[at] = term(atoms.lr[at], atoms.p_null[at])
    return _fsum(terms)


def _jsd(atoms: LrAtomization) -> float:
    """Jensen-Shannon divergence of the pair, the `jsd` of `divergences`."""
    return _atom_fsum(atoms, lambda lr, p: p * _jsd_kernel(lr)) + atoms.alt_singular_mass * 0.5 * _LOG2


def _renyi_term(lr: np.ndarray, p: np.ndarray, alpha: float) -> np.ndarray:
    """The Renyi moment's terms p L^alpha.  Where L^alpha overflows they are
    (p^(1/alpha) L)^alpha, which is finite wherever the term is (p <= 1)."""
    with np.errstate(over="ignore"):
        term = p * lr**alpha
    big = np.isinf(term)
    term[big] = (p[big] ** (1.0 / alpha) * lr[big]) ** alpha
    return term


def divergences(atoms: LrAtomization, renyi_orders=()) -> DivergenceReport:
    """Standard divergences of the alt law from the null law.

    JSD and TV tolerate one-sided support loss (zero-ratio atoms and
    alt-singular mass); the chi-square, KL and Renyi divergences are
    infinite when alt mass sits outside the null support.  Renyi orders
    must exceed 1.  Each is an exactly rounded sum (`math.fsum`) of
    per-atom terms, taken by `_atom_fsum` with no temporary of the atoms'
    size besides its own one; the atoms a sum leaves out (TV's ratios up to
    1, KL's zero ratios) are zero terms, and a zero ratio's Renyi term is
    0^alpha = 0.  KL and Renyi, whose terms take both signs, are clipped at
    0: where the ratios round to 1 their sums can fall below it (KL
    -1.4e-30 at W0 = [1.45e-30, 1], W1 = [2.9e-100, 1], n = 30, k = 10).
    """
    sing = atoms.alt_singular_mass
    jsd = _jsd(atoms)
    tv = _atom_fsum(atoms, lambda lr, p: np.where(lr > 1.0, p * (lr - 1.0), 0.0)) + sing
    if sing > 0.0:
        chi2 = math.inf
        kl = math.inf
    else:
        chi2 = _atom_fsum(atoms, lambda lr, p: p * (lr - 1.0) * (lr - 1.0))
        with np.errstate(divide="ignore", invalid="ignore"):  # log 0; the zero ratios' terms are 0
            kl = max(_atom_fsum(atoms, lambda lr, p: np.where(lr > 0.0, p * lr * np.log(lr), 0.0)), 0.0)
    renyi: dict[float, float] = {}
    for alpha in renyi_orders:
        alpha = float(alpha)
        if not (1.0 < alpha < math.inf):
            raise ValidationError(f"Renyi order must be finite and exceed 1, got {alpha}")
        moment = math.inf if sing > 0.0 else _atom_fsum(atoms, lambda lr, p: _renyi_term(lr, p, alpha))
        renyi[alpha] = max(math.log(moment), 0.0) / (alpha - 1.0)
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
    if not (abs(alpha[-1] - 1.0) <= _MASS_TOL and abs(beta[-1]) <= _MASS_TOL):
        raise InternalInvariantError(
            f"trade-off sweep ended at ({alpha[-1]!r}, {beta[-1]!r}), not (1, 0)"
        )
    # the cumulative alpha can round above 1 before the last vertex
    np.minimum(alpha, 1.0, out=alpha)
    alpha[-1] = 1.0
    beta = np.clip(beta, 0.0, 1.0)
    beta[-1] = 0.0
    return TradeoffCurve(alpha=alpha, beta=beta)


# ---------------------------------------------------------------------------
# conditional score and its linearization


def conditional_score(channel: Channel, comp: Composition, histogram, cap: int = DEFAULT_ATOM_CAP):
    """Conditional mean score U(N) = L_{n,k}(N) - 1 at one histogram or a batch.

    One count vector gives a float; a sequence of them, such as an (r, d)
    array, gives an array of r scores.  All are read from one `_ratio_table`;
    at k = 0 it folds no message (the atoms' chain): each score is its atom's
    ratio (`_affine_lr`) minus 1, and at k > 0 the fold's quotient minus 1.

    Raises:
        ValidationError: a histogram of wrong shape/mass, or null mass below
            MIN_NULL_MASS at N (off the support; the atoms drop such cells);
            in a batch the message names the row.  A pair the atoms refuse
            for its alt mass on such cells is refused here too.
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
