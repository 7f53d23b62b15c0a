"""Binary-input local randomizers over a finite message alphabet.

A channel is a pair of conditional laws (W0, W1) on the alphabet
{0, ..., d-1}: the law of a single user's message given input bit 0 or 1.
Everything downstream (exact histogram laws, Fisher constants, tail bounds)
consumes the validated `Channel` produced here.
"""

import enum
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# A supplied probability vector is accepted when its entries are nonnegative
# and it sums to 1 within this slack; it is then renormalized exactly.
PROB_SUM_TOL = 1e-9


class Support(enum.Enum):
    """Support relation between the two conditional laws.

    FULL: every symbol has positive mass under both inputs.
    NULL_SUPPORT: W0 is everywhere positive but W1 has zeros; the
        add-one-user direction is still absolutely continuous.
    SINGULAR: W0 has zeros, so likelihood ratios against input 0 are
        unbounded and exact atomizations in that direction are refused.
    """

    FULL = "full"
    NULL_SUPPORT = "null_support"
    SINGULAR = "singular"


@dataclass(frozen=True)
class Channel:
    """A validated binary-input channel.

    Attributes:
        d: alphabet size (>= 2).
        W0: law of one message given input 0, shape (d,), read-only.
        W1: law of one message given input 1, shape (d,), read-only.
        support: support classification, see `Support`.
    """

    d: int
    W0: np.ndarray
    W1: np.ndarray
    support: Support

    def __post_init__(self):
        for name in ("W0", "W1"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def delta_star(self) -> float:
        """Smallest mass under input 0 (0 iff the channel is SINGULAR)."""
        return float(self.W0.min())

    @property
    def delta_full(self) -> float:
        """Smallest mass under either input (0 unless support is FULL)."""
        return float(min(self.W0.min(), self.W1.min()))


@dataclass(frozen=True)
class ScoreStats:
    """Per-symbol likelihood ratio statistics of a channel.

    w is the symbolwise ratio W1/W0, r = w - 1 the centered score, and
    v = W1 - W0 the difference direction.  chi2 and mu3 are the second and
    third moments of r under W0; chi2 equals the chi-square divergence of
    W1 from W0.  Both are taken through W0 r = v, as v . r and (v r) . r,
    so neither squares a ratio: each is finite wherever its true value is.
    """

    w: np.ndarray
    r: np.ndarray
    v: np.ndarray
    chi2: float
    mu3: float
    w_max: float
    delta_star: float
    delta_full: float


def _check_prob_vector(vec, name: str) -> np.ndarray:
    arr = np.asarray(vec, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a 1-d probability vector")
    if arr.size < 2:
        raise ValidationError(f"{name} needs an alphabet of size >= 2, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    if np.any(arr < 0.0):
        bad = int(np.argmin(arr))
        raise ValidationError(f"{name}[{bad}] = {arr[bad]!r} is negative")
    total = float(arr.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValidationError(
            f"{name} sums to {total!r}; outside tolerance {PROB_SUM_TOL} of 1"
        )
    return arr / total


def validate_channel(W0, W1) -> Channel:
    """Validate a pair of probability vectors and classify their support.

    Args:
        W0: message law for input 0; nonnegative, sums to 1 within
            PROB_SUM_TOL (entries are renormalized exactly afterwards).
        W1: message law for input 1, same length as W0.

    Returns:
        A `Channel` with read-only probability arrays.

    Raises:
        ValidationError: negative or non-finite entries, a sum too far
            from 1, alphabet shorter than 2, mismatched lengths, or a
            ratio W1[y] / W0[y] beyond the largest double at a symbol with
            W0[y] > 0 (so the symbolwise ratio w of `score_stats` and the
            Fisher direction v / f are finite).
    """
    a0 = _check_prob_vector(W0, "W0")
    a1 = _check_prob_vector(W1, "W1")
    if a0.size != a1.size:
        raise ValidationError(
            f"alphabet mismatch: len(W0)={a0.size} but len(W1)={a1.size}"
        )
    if a0.min() == 0.0:
        support = Support.SINGULAR
    elif a1.min() == 0.0:
        support = Support.NULL_SUPPORT
    else:
        support = Support.FULL
    with np.errstate(over="ignore"):
        w = np.divide(a1, a0, out=np.zeros_like(a1), where=a0 > 0.0)
    for y in np.flatnonzero(np.isinf(w))[:1]:
        raise ValidationError(
            f"the likelihood ratio W1[{y}] / W0[{y}] = {float(a1[y])!r} / {float(a0[y])!r}"
            " overflows a double"
        )
    return Channel(d=a0.size, W0=a0, W1=a1, support=support)


def rr_channel(eps0: float) -> Channel:
    """Binary randomized response with flip probability 1/(1+exp(eps0)).

    Input b is reported faithfully with probability exp(eps0)/(1+exp(eps0)),
    flipped otherwise; eps0 = 0 gives the uniform (fully private) channel.
    """
    if not (isinstance(eps0, numbers.Real) and math.isfinite(eps0)):
        raise ValidationError(f"eps0 must be finite, got {eps0!r}")
    if eps0 < 0:
        raise ValidationError(f"eps0 must be nonnegative, got {eps0!r}")
    q = 1.0 / (1.0 + math.exp(eps0))
    return validate_channel([1.0 - q, q], [q, 1.0 - q])


def score_stats(channel: Channel) -> ScoreStats:
    """Symbolwise score statistics w, r, v and the moments chi2, mu3.

    Requires delta_star > 0 (SINGULAR channels have no bounded ratio
    against input 0).
    """
    if channel.support is Support.SINGULAR:
        raise ValidationError(
            "score statistics need min(W0) > 0; channel is SINGULAR"
        )
    w = channel.W1 / channel.W0
    r = w - 1.0
    v = channel.W1 - channel.W0
    # v r is finite (|v| <= 1); a sum beyond the double range is inf, as the
    # true value is, which the callers' own checks report, with no warning
    with np.errstate(over="ignore"):
        chi2 = float(np.dot(v, r))
        mu3 = float(np.dot(v * r, r))
    return ScoreStats(
        w=w,
        r=r,
        v=v,
        chi2=chi2,
        mu3=mu3,
        w_max=float(w.max()),
        delta_star=channel.delta_star,
        delta_full=channel.delta_full,
    )


def channel_to_json(channel: Channel) -> str:
    """Serialize a channel to the {"d", "W0", "W1"} JSON schema."""
    payload = {
        "d": channel.d,
        "W0": [float(x) for x in channel.W0],
        "W1": [float(x) for x in channel.W1],
    }
    return json.dumps(payload, indent=2)


def channel_from_json(text: str) -> Channel:
    """Parse and validate a channel from its JSON schema.

    Schema errors name the offending field and surface as ValidationError.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"channel file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValidationError("channel JSON must be an object with d, W0, W1")
    for key in ("d", "W0", "W1"):
        if key not in payload:
            raise ValidationError(f"channel JSON is missing field {key!r}")
    for key in ("W0", "W1"):
        if not isinstance(payload[key], list):
            raise ValidationError(f"channel field {key!r} must be a list of numbers")
    channel = validate_channel(payload["W0"], payload["W1"])
    if payload["d"] != channel.d:
        raise ValidationError(
            f"channel field 'd' is {payload['d']!r} but vectors have length {channel.d}"
        )
    return channel
