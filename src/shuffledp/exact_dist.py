"""Exact finite-n distributions of the shuffled histogram: the k = 0 engine and the atoms.

The observable after shuffling n binary-input users is the histogram N of
messages.  With k ones among the inputs, the histogram law T_{n,k} is an
n-fold convolution of single-user laws; the adjacent pair (T_{n,k},
T_{n,k+1}) is the binary hypothesis-testing experiment whose likelihood
ratio atoms and privacy curve are computed here, exactly, atom by atom.

Conventions: the "null" hypothesis is T_{n,k} (k ones), the "alt" hypothesis
is T_{n,k+1} (one more one).  For k = 0, with m messages per user, the null
law is the multinomial Mult(nm, W0), built in closed form from conditional
binomial masses (`_null_levels`); at m = 1 the ratio is affine in the
histogram, L(N) = (1/n) sum_y N_y w(y) with w = W1/W0, and `multimessage`
takes the degree-m ratio on the same cells.  Every pair with k > 0 is folded
one message at a time in the dense engine of `fold`, which `lr_atoms`
imports only then, and every atomization ends in `_atomize`.  The pair's
checks, the drop rule and the exact sums are shared with those modules;
the divergences, the trade-off curve and the conditional score are in
`diagnostics`; the records, the checks and the CSV format that every
subcommand shares, the closed forms without numpy, are in `records`.
"""

import itertools
import math
import sys

import numpy as np

from .channels import Channel, Support, _Record, _score
from .errors import EnumerationCapError, InternalInvariantError, ValidationError
from .records import DEFAULT_ATOM_CAP, Composition, PrivacyCurve, Sidedness, _check_count, _check_eps_grid, _pair_pi

# A ratio within this relative distance above a threshold e^eps counts as a
# tie and adds nothing to delta(eps).  Computed ratios carry a few ulps of
# rounding (a quotient of two folded sums, or W1/W0 of the channel), so the
# excess of such an atom is rounding noise: at the largest ratio of shuffled
# randomized response, e^eps0, delta(eps0) is exactly 0, not ~1e-17.
TIE_REL_TOL = 16 * sys.float_info.epsilon

# Cells whose null mass is below the smallest normal double are dropped: their
# ratio p_alt / p_null is a quotient of subnormals (or 0/0) and off by O(1).
MIN_NULL_MASS = sys.float_info.min

# Atomization totals (and the trade-off sweep's end) must be 1 within this.
_MASS_TOL = 1e-9

_LOG2 = math.log(2.0)


class LrAtomization(_Record):
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


# ---------------------------------------------------------------------------
# checks


def _check_cap(cells: int, what: str, cap: int) -> None:
    """Refuse to enumerate `what`, which has `cells` cells, beyond `cap` cells."""
    if cells > cap:
        raise EnumerationCapError(f"{what} has {cells} cells > cap {cap}")


def _check_histogram(channel: Channel, histogram, total: int) -> tuple[int, ...]:
    """A histogram must hold d nonnegative integer counts summing to `total`."""
    h = tuple(_check_count("histogram count", x, 0) for x in histogram)
    if len(h) != channel.d:
        raise ValidationError(f"histogram has {len(h)} cells, channel has d={channel.d}")
    if sum(h) != total:
        raise ValidationError(f"histogram {h} is not a size-{total} count vector")
    return h


# Cells per block of the last level of the k = 0 chain (`_null_levels`, and
# so of `_binom_pmf` on it) and of the per-atom sums: their temporaries are
# of this size, not of the cells'.
_CELL_BLOCK = 1 << 12


def _cell_blocks(size: int):
    """Slices cutting 0..size-1 into runs of _CELL_BLOCK."""
    return (slice(i, i + _CELL_BLOCK) for i in range(0, size, _CELL_BLOCK))


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
    _pair_pi(comp.n, comp.k)


def _kept(p_null: np.ndarray) -> np.ndarray:
    """The drop rule: the mask of the cells of null mass at least MIN_NULL_MASS, the only ratios read."""
    return p_null >= MIN_NULL_MASS


def _kept_cells(blocks, dropped: list | None = None):
    """The one drop rule over the pair's cells, a stream of blocks [p_null, p_alt, ...], and its refusal.

    Yields (keep, block), keep the mask `_kept` of the block's null masses.  At the stream's end the
    others' positive null and alt masses are summed (`_fsum`, into `dropped` if given) and a pair
    dropping alt mass above _MASS_TOL is refused.
    """
    masses = []
    for block in blocks:
        keep = _kept(block[0])
        masses.append([mass[~keep & (mass > 0.0)] for mass in block[:2]])
        yield keep, block
    sums = [_fsum(np.concatenate(column)) for column in zip(*masses)]
    if not sums[1] <= _MASS_TOL:
        raise ValidationError(f"the alt law puts mass {sums[1]!r} (more than {_MASS_TOL}) on cells whose null"
                              " mass is below the smallest normal double, where no ratio can be computed")
    if dropped is not None:
        dropped += sums


def _atomize(n: int, k: int, blocks) -> LrAtomization:
    """The sorted, checked atomization of the cells of `blocks`, in their order.

    Each block is a list [p_null, p_alt, lr, ...] (no more is read), whose cells `_kept_cells`
    filters, summing the dropped masses.  Each of those arrays is replaced in the list by its kept
    cells (a copy, so no scratch view outlives its block), one at a time, and blocks are joined one
    array at a time, each array's blocks freed once joined.  `_sort_atoms` then owns every array,
    so the k = 0 pair peaks at its sort, about 40 B a kept cell.
    """
    kept, dropped = [], []
    for keep, block in _kept_cells(blocks, dropped):
        for i in range(3):
            block[i] = block[i][keep]
        kept.append(block[:3])
    columns = list(zip(*kept))
    del kept
    cells = [np.concatenate(columns.pop(0)) for _ in range(len(columns))]
    cells.insert(0, cells.pop())  # [lr, p_null, p_alt], in place: the sort owns the list
    lr, p_null, p_alt = _sort_atoms(cells)
    atoms = LrAtomization(n, k, lr, p_null, p_alt, dropped_null_mass=dropped[0], dropped_alt_mass=dropped[1])
    _check_atomization(atoms)
    return atoms


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
        from .fold import _fold_atoms

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
    """The k = 0 chain's symbol order, a stable argsort of -W0, and `_score`'s w = W1/W0 in that order."""
    order = np.argsort(-channel.W0, kind="stable")
    return order, np.array(_score(channel)[0])[order]


def _chain_shares(W0: np.ndarray) -> list:
    """The chain's binomial probabilities for j = d-1, ..., 1, W0 in `_relabelling`'s order: the
    marginal W0_{d-1}, then W0_j / sum_{i<=j} W0_i (`_null_levels`)."""
    share = W0 / np.cumsum(W0)
    return [float(W0[-1])] + [float(share[j]) for j in range(W0.size - 2, 0, -1)]


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
    shares = _chain_shares(W0)
    lo, hi = ends[0]
    _check_cap(hi + 1 - lo, what, cap)
    if d > 2:
        _check_cap(_spawned_cells(N - hi, N - lo, *ends[1]), what, cap)
    K = np.arange(lo, hi + 1, dtype=np.float64)
    # at d >= 3 the cells far outnumber the N + 1 values stirlerr is taken at
    table = _stirlerr(np.arange(N + 1.0)) if d > 2 else None
    for at in _cell_blocks(K.size) if d == 2 else [slice(None)]:
        rest = N - K[at]
        yield d - 1, None, K[at], rest, _binom_pmf(K[at], N, shares[0], table, log)
    for j, (lo, hi), p in zip(range(d - 2, 0, -1), ends[1:], shares[1:]):
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
            mass = _binom_pmf(K, rest, p, table, log)
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
    the package's one k = 0 ratio code, read by the atoms, the sampler and the score.  Its terms
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


def _check_atomization(atoms: LrAtomization) -> None:
    for label, arr in (("ratio", atoms.lr), ("null mass", atoms.p_null), ("alt mass", atoms.p_alt)):
        if not np.all(np.isfinite(arr)):
            raise InternalInvariantError(f"atomization has a non-finite {label}")
    if not np.all(np.diff(atoms.lr) > 0.0):
        raise InternalInvariantError("atomization ratios are not strictly increasing")
    total_null = float(atoms.p_null.sum())
    total_alt = float(atoms.p_alt.sum()) + atoms.alt_singular_mass
    # numpy's pairwise sums, in an order fixed by its source on every SIMD target (np.dot's is the BLAS kernel's)
    mean_lr = float((atoms.lr * atoms.p_null).sum()) + atoms.alt_singular_mass
    for label, value in (("null", total_null), ("alt", total_alt), ("E_null[L]", mean_lr)):
        if not (abs(value - 1.0) <= _MASS_TOL):
            raise InternalInvariantError(
                f"atomization {label} mass is {value!r}, off 1 by more than {_MASS_TOL}"
            )


# ---------------------------------------------------------------------------
# privacy curves


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
    e^eps 2^-1074 of the mass it counts.  Values are clipped into [0, 1].  delta is accurate to
    a few ulps of S, the alt mass on the atoms above e^eps, not of delta: where delta << S that is
    many ulps of delta (rr 1.1, n = 3000, k = 0: over 1000 against 60-digit mpmath).
    This is the one place curves are summed: the binomial and m-message
    curves are this function on their atoms.
    """
    grid = np.array(_check_eps_grid(eps))
    if sidedness is Sidedness.FORWARD:
        delta = _hockey_stick(atoms, grid)
    elif sidedness is Sidedness.REVERSE:
        delta = _hockey_stick(atoms, grid, reverse=True)
    elif sidedness is Sidedness.TWO_SIDED:
        delta = np.maximum(_hockey_stick(atoms, grid), _hockey_stick(atoms, grid, reverse=True))
    else:  # not a Sidedness, such as its value "forward"
        raise ValidationError(f"unknown sidedness {sidedness!r}")
    return PrivacyCurve(eps=grid, delta=delta, sidedness=sidedness)


def binomial_curve(channel: Channel, n: int, eps) -> PrivacyCurve:
    """Forward curve of the k=0 pair for d=2, from the binomial atoms.

    delta(eps) = sum_K C(n,K) p0^K (1-p0)^(n-K) (L(K) - e^eps)_+ with the
    affine ratio L(K), i.e. `privacy_curve` of `binomial_lr_atoms`.
    """
    return privacy_curve(binomial_lr_atoms(channel, n), eps)


# ---------------------------------------------------------------------------
# exact sums over the atoms


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


# perfbench's tracer looks these up here by module and name (ROADMAP items 1
# and 23); they are defined in `fold` and `diagnostics`
_MOVED = {"histogram_law": "fold", "reverse_atomization": "diagnostics", "divergences": "diagnostics"}


def __getattr__(name: str):
    if name in _MOVED:
        from importlib import import_module

        return getattr(import_module(f".{_MOVED[name]}", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
