import itertools
import math

import numpy as np
from hypothesis import HealthCheck, settings

from shuffledp import Channel, Composition, LrAtomization, ValidationError, score_stats, sigma_pi, validate_channel
from shuffledp.exact_dist import DEFAULT_ATOM_CAP, _check_histogram, _fold_atoms

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
