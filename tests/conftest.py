import bisect
import itertools
import math

import mpmath
import numpy as np
from hypothesis import HealthCheck, settings

from shuffledp import Channel, Composition, LrAtomization, ValidationError, score_stats, sigma_pi, validate_channel
from shuffledp.exact_dist import TIE_REL_TOL, _check_histogram
from shuffledp.records import DEFAULT_ATOM_CAP
from shuffledp.fold import _fold_atoms

settings.register_profile(
    "local",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("local")


def full_channel(rng: np.random.Generator, d: int) -> Channel:
    """Random FULL channel with every mass at least 0.2/d."""
    W0 = 0.8 * rng.dirichlet([2.0] * d) + 0.2 / d
    W1 = 0.8 * rng.dirichlet([2.0] * d) + 0.2 / d
    return validate_channel(W0, W1)


def fisher_by_solve(channel: Channel, pi: float) -> tuple[float, np.ndarray]:
    """Reference (I_pi, s) from a linear solve of sigma_pi s = v on the zero-sum subspace.

    Drops the symbol of largest mixture mass f, solves the (d-1) x (d-1)
    minor left, and lifts the solution to zero sum.  On a zero-sum vector
    the minor represents sigma_pi's pseudo-inverse whichever symbol is
    dropped; dropping the largest keeps the diagonal f - f^2 of the minor
    from cancelling when one mass is near 1.  An oracle for the closed form
    of `fisher_constant`, which shares no step with it.
    """
    v = channel.W1 - channel.W0
    keep = np.arange(channel.d) != np.argmax((1.0 - pi) * channel.W0 + pi * channel.W1)
    g = np.linalg.solve(sigma_pi(channel, pi)[np.ix_(keep, keep)], v[keep])
    s = np.zeros(channel.d)
    s[keep] = g
    return float(np.dot(v[keep], g)), s - s.mean()


def fold_atoms(channel: Channel, comp: Composition) -> LrAtomization:
    """Atoms of the pair (T_{n,k}, T_{n,k+1}) from the dense fold, at every k.

    The fold derives both laws from T_{n-1,k}; at k = 0 it is an oracle for
    `lr_atoms`, which builds that pair in closed form instead.
    """
    return _fold_atoms(channel, comp, DEFAULT_ATOM_CAP)


def brute_force_lr(channel: Channel, n: int, m: int, histogram) -> float:
    """Reference m-message ratio by averaging products of w over all m-subsets.

    Expands the histogram into an explicit message list and averages
    prod_{j in S} w(y_j) over the C(nm, m) position subsets S.  Exponential
    in nm; an oracle for `unbundled_lr` on small cases.
    """
    total = n * m
    counts = _check_histogram(channel, histogram, total)
    if total > 16:
        raise ValidationError("brute-force reference limited to nm <= 16")
    w = score_stats(channel).w
    messages = [y for y, c in enumerate(counts) for _ in range(c)]
    acc = math.fsum(
        math.prod(w[y] for y in subset)
        for subset in itertools.combinations(messages, m)
    )
    return acc / math.comb(total, m)


# digits of the mpmath reference for the pair's masses and delta
ORACLE_DPS = 50


def _mp_multinomial(m: int, W, base: int) -> dict:
    """Law of the histogram of m draws from the doubles W, as {key: mpf mass}.

    Each mass is the chain of binomial coefficients C(m, c_{d-1})
    C(m - c_{d-1}, c_{d-2}) ... times prod_y W[y]^c_y, every W[y] taken
    exactly; the key of counts (c_0, c_1, ..., c_{d-1}) is
    sum_{y >= 1} c_y base^(y-1), so the key of a sum of two histograms is
    the sum of their keys while base exceeds n.
    """
    powers = [[mpmath.mpf(float(w)) ** c for c in range(m + 1)] for w in W]
    law = {0: mpmath.mpf(1)}
    rest = {0: m}  # draws not yet given a symbol, per partial histogram
    for y in range(len(W) - 1, 0, -1):
        grown, grown_rest = {}, {}
        for key, mass in law.items():
            left = rest[key]
            for c in range(left + 1):
                new = key + c * base ** (y - 1)
                grown[new] = mass * math.comb(left, c) * powers[y][c]
                grown_rest[new] = left - c
        law, rest = grown, grown_rest
    return {key: mass * powers[0][rest[key]] for key, mass in law.items()}


def _mp_convolve(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, pa in a.items():
        for kb, pb in b.items():
            out[ka + kb] = out.get(ka + kb, 0) + pa * pb
    return out


def mp_pair_masses(channel: Channel, comp: Composition, m: int = 1) -> tuple[list, list]:
    """ORACLE_DPS-digit null and alt masses of the pair (T_{n,k}, T_{n,k+1}), m messages a user.

    The null law is the histogram of (n - k) m messages from W0 and k m
    from W1, the alt law of (n - k - 1) m and (k + 1) m: each the
    convolution of two multinomial laws (at d = 2, of two binomials, a sum
    over the count of symbol 1), with W0 and W1 taken exactly from their
    doubles.  Returns the two masses on each histogram, in one order.  An
    oracle for `lr_atoms` (m = 1) and `unbundled_lr_atoms` (k = 0) that
    shares no step with them; its cost grows as (nm)^(2(d-1)), so it serves
    d = 2 up to a few hundred messages and d = 3 up to about 40.
    """
    n, k = comp.n, comp.k
    base = n * m + 1
    with mpmath.workdps(ORACLE_DPS):
        null = _mp_convolve(_mp_multinomial((n - k) * m, channel.W0, base), _mp_multinomial(k * m, channel.W1, base))
        alt = _mp_convolve(
            _mp_multinomial((n - k - 1) * m, channel.W0, base), _mp_multinomial((k + 1) * m, channel.W1, base)
        )
    keys = sorted(null)
    return [null[key] for key in keys], [alt[key] for key in keys]


def mp_hockey_stick(p: list, q: list, eps) -> list[tuple]:
    """(delta, tie, scale) at each eps, to ORACLE_DPS digits.

    delta = sum (q - e^eps p)_+ over the cells, and `scale` = sum q over the
    cells it counts (the mass above e^eps that the rounding of the ratios
    is relative to).  `tie` is the part of delta from cells whose ratio
    q / p is at most e^eps (1 + TIE_REL_TOL), which the engines count as
    ties at e^eps and leave out.  (p, q) = (null, alt) gives the FORWARD
    curve and (alt, null) the REVERSE one; cells with p = 0 must have q = 0.
    With the ratios L_1 >= L_2 >= ... and P_i the p mass of the first i,
    delta = A_i + (L_i - e^eps) P_i at the last i with L_i > e^eps, where
    A_i = A_(i-1) + P_(i-1) (L_(i-1) - L_i): a sum of nonnegative terms, so
    no digits cancel however deep delta is.
    """
    with mpmath.workdps(ORACLE_DPS):
        cells = sorted(((qi / pi, pi, qi) for pi, qi in zip(p, q) if pi > 0), reverse=True)
        ratios = [-ratio for ratio, _, _ in cells]  # increasing, for bisect
        zero = mpmath.mpf(0)
        prefix, above, mass, alt, prev = [], zero, zero, zero, zero
        for ratio, pi, qi in cells:
            above += mass * (prev - ratio)
            mass += pi
            alt += qi
            prev = ratio
            prefix.append((above, mass, alt))
        out = []
        for e in eps:
            t = mpmath.exp(mpmath.mpf(float(e)))
            i = bisect.bisect_left(ratios, -t)  # the cells with L > t
            j = bisect.bisect_left(ratios, -t * (1 + mpmath.mpf(TIE_REL_TOL)))
            tie = mpmath.fsum(pi * (ratio - t) for ratio, pi, _ in cells[j:i])
            if i == 0:
                out.append((zero, zero, zero))
                continue
            above, mass, alt = prefix[i - 1]
            out.append((above + (cells[i - 1][0] - t) * mass, tie, alt))
    return out
