"""Covariance algebra on the probability simplex.

The covariance of a one-hot draw from a law f is diag(f) - f f^T.  It is
singular with kernel spanned by the all-ones vector, so inverses are taken on
the zero-sum subspace.  The fixed-composition covariance sigma_pi is that of
the mixture f = (1-pi) W0 + pi W1 less the rank-one term pi (1-pi) v v^T,
v = W1 - W0.  Since v sums to zero, q = v / f solves the mixture system
exactly, and the Sherman-Morrison identity turns it into the solution of
sigma_pi s = v: no linear solve, no cancellation.
"""

from dataclasses import dataclass

import numpy as np

from .channels import Channel, Support
from .errors import ValidationError

# Guard for the Sherman-Morrison denominator 1 - pi(1-pi) I_f.
_DENOM_TOL = 1e-12


@dataclass(frozen=True)
class FisherReport:
    """Fisher information of the histogram statistic at composition pi.

    Attributes:
        pi: fraction of ones in the composition, in [0, 1].
        f: the mixture law (1-pi) W0 + pi W1.
        v: difference direction W1 - W0.
        sigma: fixed-composition covariance (1-pi) Sigma_0 + pi Sigma_1.
        s: score direction, the zero-sum solution of sigma s = v.
        fisher: the constant I_pi = v . s = v^T sigma^+ v.
        fisher_mixture: I_f = sum v^2 / f, the single-draw mixture
            information (always <= fisher).
    """

    pi: float
    f: np.ndarray
    v: np.ndarray
    sigma: np.ndarray
    s: np.ndarray
    fisher: float
    fisher_mixture: float


def _require_full(channel: Channel, op: str) -> None:
    if channel.support is not Support.FULL:
        raise ValidationError(
            f"{op} needs a FULL channel (all symbol masses positive); "
            f"support is {channel.support.value}"
        )


def _check_pi(pi: float) -> float:
    pi = float(pi)
    if not (0.0 <= pi <= 1.0):
        raise ValidationError(f"pi must lie in [0, 1], got {pi!r}")
    return pi


def one_hot_cov(f: np.ndarray) -> np.ndarray:
    """Covariance diag(f) - f f^T of a single one-hot draw from f."""
    f = np.asarray(f, dtype=np.float64)
    return np.diag(f) - np.outer(f, f)


def sigma_pi(channel: Channel, pi: float) -> np.ndarray:
    """Fixed-composition covariance (1-pi) Sigma_0 + pi Sigma_1.

    Sigma_b is the one-hot covariance of W_b.  This is the covariance of the
    histogram per user when the composition (fraction of ones) is held fixed,
    and differs from the mixture covariance by the rank-one term
    pi (1-pi) v v^T.
    """
    pi = _check_pi(pi)
    return (1.0 - pi) * one_hot_cov(channel.W0) + pi * one_hot_cov(channel.W1)


def fisher_constant(channel: Channel, pi: float) -> FisherReport:
    """The zero-sum solution s of sigma_pi s = v and I_pi = v . s, in closed form.

    With q = v / f and I_f = v . q, the mixture covariance maps q to v, so
    sigma_pi maps q to (1 - pi(1-pi) I_f) v: s is q over that denominator,
    projected to zero sum, and I_pi = I_f / (1 - pi(1-pi) I_f).

    Raises:
        ValidationError: non-FULL channel, pi outside [0, 1], or a
            denominator at most _DENOM_TOL (sigma_pi numerically singular).
    """
    _require_full(channel, "fisher_constant")
    pi = _check_pi(pi)
    f = (1.0 - pi) * channel.W0 + pi * channel.W1
    v = channel.W1 - channel.W0
    # q is finite at pi = 0 (validate_channel bounds W1 / W0); at pi = 1 a
    # W0 / W1 beyond the double range makes I_f inf and the check refuse it
    with np.errstate(over="ignore"):
        q = v / f
    fisher_mixture = float(np.sum(v * q))
    denom = 1.0 - pi * (1.0 - pi) * fisher_mixture
    if not denom > _DENOM_TOL:
        raise ValidationError(
            f"rank-one denominator 1 - pi(1-pi) I_f = {denom!r} (I_f = {fisher_mixture!r}) "
            f"is not above {_DENOM_TOL}; channel is numerically degenerate at this pi"
        )
    s = q / denom
    return FisherReport(
        pi=pi,
        f=f,
        v=v,
        sigma=sigma_pi(channel, pi),
        s=s - s.mean(),
        fisher=fisher_mixture / denom,
        fisher_mixture=fisher_mixture,
    )
