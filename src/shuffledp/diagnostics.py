"""Readers of the exact pair that no engine path calls: divergences, trade-off and the score.

From the atoms of `exact_dist.lr_atoms`: the standard divergences, the
optimal-test trade-off polyline and the reversed atomization.  At single
histograms: the conditional score U(N) = L(N) - 1, read in closed form at
k = 0 (`_k0_rows`) and from the dense ratio table of `fold` at k > 0, and
the residual of U against its linear prediction.
"""

import math
from dataclasses import field

import numpy as np

from .channels import Channel, _Record
from .errors import InternalInvariantError, ValidationError
from .exact_dist import (
    _MASS_TOL,
    MIN_NULL_MASS,
    LrAtomization,
    _affine_lr,
    _atom_fsum,
    _binom_pmf,
    _canonical_cells,
    _cell_blocks,
    _chain_shares,
    _check_histogram,
    _check_pair,
    _fsum,
    _jsd,
    _kept,
    _kept_cells,
    _relabelling,
)
from .fold import _descending_cells, _ratio_table, mean_histogram
from .records import DEFAULT_ATOM_CAP, Composition, _pair_pi, _table_to_csv


class TradeoffCurve(_Record):
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


class DivergenceReport(_Record):
    """Divergences of the alt law from the null law, computed from atoms."""

    jsd: float
    tv: float
    chi2: float
    kl: float
    renyi: dict[float, float] = field(default_factory=dict)


class ResidualSummary(_Record):
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


# ---------------------------------------------------------------------------
# divergences and trade-off


def _log_renyi_moment(atoms: LrAtomization, alpha: float) -> float:
    """log sum p L^alpha, an `_atom_fsum`.  Where a term or the sum leaves the double range the
    sum is inf, and the log is alpha log u_max + log sum (u / u_max)^alpha, u = p^(1/alpha) L:
    the scaled terms are at most 1 and the largest is 1, at any order."""
    with np.errstate(over="ignore"):
        moment = _atom_fsum(atoms, lambda lr, p: p * lr**alpha)
    if moment < math.inf:
        return math.log(moment)
    u_max = max(float(np.max(atoms.p_null[at] ** (1.0 / alpha) * atoms.lr[at])) for at in _cell_blocks(atoms.lr.size))
    return alpha * math.log(u_max) + math.log(_atom_fsum(atoms, lambda lr, p: (p ** (1.0 / alpha) * lr / u_max) ** alpha))


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
        renyi[alpha] = math.inf if sing > 0.0 else max(_log_renyi_moment(atoms, alpha), 0.0) / (alpha - 1.0)
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


def _k0_rows(channel: Channel, n: int, rows: list, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Null masses and ratios of the k = 0 pair at the histograms `rows`, with no law.

    A mass is the product of `_null_levels`' conditional binomials at the row, with its probabilities
    `_chain_shares` (its table only caches `_stirlerr`): a built cell's bits, else 0.0 (below
    e^-800).  A ratio is `_affine_lr`, NaN where the drop rule `_kept` drops the row.  The atoms
    drop < w_max MIN_NULL_MASS of alt mass a cell on at most (n+1)^(d-1) cells: only where twice
    that exceeds _MASS_TOL (compared exactly) is the chain built, under `cap`, to refuse as they do.
    """
    order, w = _relabelling(channel)
    if (n + 1) ** (channel.d - 1) > _MASS_TOL / (2.0 * float(w.max()) * MIN_NULL_MASS):
        for _ in _kept_cells(_canonical_cells(channel, n, cap)):
            pass
    counts = np.array(rows, dtype=np.float64).reshape(len(rows), channel.d).T.copy()
    mass, rest = 1.0, n
    for j, p in zip(range(channel.d - 1, 0, -1), _chain_shares(channel.W0[order])):
        mass = mass * _binom_pmf(counts[order[j]], rest, p)
        rest = rest - counts[order[j]]
    return mass, np.where(_kept(mass), _affine_lr(counts, n, order, w), np.nan)


def conditional_score(channel: Channel, comp: Composition, histogram, cap: int = DEFAULT_ATOM_CAP):
    """Conditional mean score U(N) = L_{n,k}(N) - 1 at one histogram or a batch.

    One count vector gives a float; a sequence of them, such as an (r, d)
    array, gives an array of r scores.  At k = 0 each is `_affine_lr` minus 1
    (`_k0_rows`, in closed form; `cap` acts only where its refusal bound builds
    the chain), at k > 0 one `_ratio_table`'s quotient minus 1.

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
    _check_pair(channel, comp, "pair ratio")
    if comp.k == 0:
        p_null, ratio = _k0_rows(channel, comp.n, rows, cap)
    else:
        null, ratio = _ratio_table(channel, comp, cap)
        cell = tuple(np.array(rows, dtype=np.intp).reshape(len(rows), channel.d)[:, :-1].T)
        p_null, ratio = null[cell], ratio[cell]
    score = ratio - 1.0
    for i in np.flatnonzero(np.isnan(score))[:1]:
        where = f"batch row {i}: " if batch else ""
        raise ValidationError(f"{where}histogram {rows[i]} has null mass {float(p_null[i])!r} below MIN_NULL_MASS")
    return score if batch else float(score[0])


def linearization_residual(
    channel: Channel,
    comp: Composition,
    window_mult: float = 3.0,
    pi: float | None = None,
    cap: int = DEFAULT_ATOM_CAP,
) -> ResidualSummary:
    """Residual of U(N) against its linear prediction, over a window.

    The prediction is (1/n) s . (N - E[N]) where s solves the
    fixed-composition covariance system at `pi`: by default (None) the
    pair's pi = k/(n-1), the appended user's point of view; a value in
    [0, 1], such as the plain fraction k/n, is used as given.
    Histograms with ||N - E[N]||_inf beyond window_mult * sqrt(n log n) are
    skipped and their null mass reported as `outside_mass`.  The cells are the
    kept ones of `_ratio_table`, or at k = 0 of the chain (`_canonical_cells`),
    where at the default pi = 0 the prediction, with s = w - 1, is U(N) exactly:
    its residual is rounding.
    """
    if comp.n < 2:
        raise ValidationError("linearization needs n >= 2")
    from .simplex_linalg import _check_pi, _direction

    pi = _pair_pi(comp.n, comp.k) if pi is None else _check_pi(pi)
    if not (window_mult > 0.0):
        raise ValidationError(f"window_mult must be positive, got {window_mult!r}")
    s = _direction(channel, pi)[-1]
    _check_pair(channel, comp, "pair ratio")
    if comp.k == 0:
        blocks = _kept_cells(_canonical_cells(channel, comp.n, cap))
        cells = [[block[0][keep], block[2][keep], np.column_stack(block[3])[keep]] for keep, block in blocks]
        p_null, ratio, counts = (np.concatenate(column) for column in zip(*cells))
    else:
        null, ratio = _ratio_table(channel, comp, cap)
        pos, counts = _descending_cells(~np.isnan(ratio))
        p_null, ratio = null.ravel()[pos], ratio.ravel()[pos]
    U = ratio - 1.0
    center = mean_histogram(channel, comp)
    dev = counts - center
    half = window_mult * math.sqrt(comp.n * math.log(comp.n))
    inside = np.max(np.abs(dev), axis=1) <= half
    # s . dev summed elementwise in symbol order: `dev @ s` is a BLAS dgemv, whose order is the kernel's
    residual = np.abs(U - sum(dev[:, y] * s[y] for y in range(channel.d)) / comp.n)
    mass_in = float(p_null[inside].sum())
    if mass_in <= 0.0:
        raise ValidationError("window excludes the entire support; widen window_mult")
    rms = math.sqrt(_fsum(p_null[inside] * residual[inside] ** 2) / mass_in)
    return ResidualSummary(
        max_abs=float(residual[inside].max()),
        rms=rms,
        outside_mass=float(p_null[~inside].sum()),
        window_halfwidth=half,
        n_inside=int(inside.sum()),
        pi=pi,
    )
