"""Binary-input local randomizers over a finite message alphabet.

A channel is a pair of conditional laws (W0, W1) on the alphabet
{0, ..., d-1}: the law of a single user's message given input bit 0 or 1.
Everything downstream (exact histogram laws, Fisher constants, tail bounds)
consumes the validated `Channel` produced here.

The module loads no numpy: validation and the score statistics run on
Python floats, which the closed forms (`gdp_mu`, `gdp_delta`, the Chernoff
bound) read, and numpy is imported only where an array is returned.
"""

import dataclasses
import enum
import functools
import inspect
import itertools
import json
import math
import numbers
import operator
import sys

from .errors import ValidationError

# A supplied probability vector is accepted when its entries are nonnegative
# and it sums to 1 within this slack; it is then renormalized exactly.
PROB_SUM_TOL = 1e-9

# e^eps overflows above the log of the largest double, ~709.78.
_MAX_EPS = math.log(sys.float_info.max)


def _check_eps(eps, name: str = "eps", caller: str | None = None) -> None:
    """One privacy level must be a finite real >= 0 (NaN fails the test), and
    at most _MAX_EPS for a `caller` that takes e^eps (named in the error)."""
    if not (isinstance(eps, numbers.Real) and math.isfinite(eps) and eps >= 0.0):
        raise ValidationError(f"{name} must be finite and >= 0, got {eps!r}")
    if caller is not None and eps > _MAX_EPS:
        raise ValidationError(f"{caller} needs {name} <= {_MAX_EPS!r} (the log of the largest double), got {eps!r}")


def _exact_sum(*parts) -> float:
    """`math.fsum` of the terms of `parts` (lists or arrays: they may be read twice).  A sum beyond
    the double range is its signed infinity, as its true value is: fsum refuses a partial sum there,
    the terms scaled by 2^-64 sum to it and scaling back rounds it.  The scale is exact for terms
    above 2^-958; a smaller term loses bits to it, which shows only where the large terms cancel."""
    try:
        return math.fsum(itertools.chain(*parts))
    except OverflowError:
        return math.fsum(t * 2.0**-64 for t in itertools.chain(*parts)) * 2.0**64


def _fdot(a, b) -> float:
    """sum_i a_i b_i, the `_exact_sum` of the products, so no BLAS kernel's summation order shows."""
    return _exact_sum(list(map(operator.mul, a, b)))


def _ndarray() -> type | tuple:
    """numpy's array type, or () while numpy is not loaded, when no value can be an array."""
    return getattr(sys.modules.get("numpy"), "ndarray", ())


class _Record:
    """Base of the package's records: a dataclass whose methods are not generated code.

    `@dataclass` builds each class's methods by `exec` of generated source,
    0.5-1.1 ms a frozen class on a 2-core x86-64 VM under Python 3.11 (this
    base takes about 0.1 ms), paid by every process that defines the class.
    A subclass (`class X(_Record)`, or `class X(_Record, frozen=True)`) goes
    through `dataclasses.dataclass` only to collect its fields, so `fields`,
    `replace`, `asdict`, `is_dataclass` and `__match_args__` work, and
    shares the methods below, which keep the generated ones' contract:
    arguments by position or keyword, defaults and `default_factory`, then
    `__post_init__`; `Name(a=..., b=...)`; equality of the field tuples of
    one class; a frozen record hashes its field tuple and refuses assignment
    and deletion (`FrozenInstanceError`), the others are unhashable.  In
    those tuples an array field is keyed by its dtype, shape and bytes (so
    NaN equals NaN and -0.0 differs from 0.0 there), and a frozen record
    holds read-only views of its arrays, so its hash cannot change.  Arrays
    are told by `_ndarray`, so the base loads no numpy.
    `__signature__` lists the fields, for `inspect` and `help`.
    """

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._record_fields = dataclasses.fields(dataclasses.dataclass(cls, init=False, repr=False, eq=False))
        cls.__signature__ = inspect.Signature([
            inspect.Parameter(f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD, annotation=f.type, default=next(
                (d for d in (f.default, f.default_factory) if d is not dataclasses.MISSING), inspect.Parameter.empty))
            for f in cls._record_fields
        ])
        cls.__hash__ = cls._hash if frozen else None
        if frozen:
            cls.__setattr__, cls.__delattr__ = cls._assign, cls._delete

    def __init__(self, *args, **kwargs):
        given = self.__signature__.bind(*args, **kwargs).arguments
        vars(self).update({
            f.name: given[f.name] if f.name in given else f.default_factory() if f.default is dataclasses.MISSING
            else f.default for f in self._record_fields
        })
        if hasattr(self, "__post_init__"):
            self.__post_init__()
        if self.__hash__ is not None:  # read-only views keep a frozen record's hash fixed
            for name in (f.name for f in self._record_fields if isinstance(vars(self).get(f.name), _ndarray())):
                vars(self)[name] = vars(self)[name].view()
                vars(self)[name].setflags(write=False)

    def _values(self) -> tuple:
        values = [getattr(self, f.name) for f in self._record_fields]  # a read may build an array
        return tuple((v.dtype.str, v.shape, v.tobytes()) if isinstance(v, _ndarray()) else v for v in values)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f.name}={getattr(self, f.name)!r}' for f in self._record_fields)})"

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def _hash(self) -> int:
        return hash(self._values())

    def _assign(self, name, value):
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")

    def _delete(self, name):
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")


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


class _LawArray:
    """`Channel.W0` and `.W1`: the instance holds each law as the tuple of floats that the closed
    forms read (`Channel._laws`); a read returns it as a new read-only float64 array."""

    def __init__(self, name: str):
        self.name = name

    def __get__(self, channel, owner=None):
        if channel is None:  # no class-level value, so the field has no default
            raise AttributeError(self.name)
        import numpy as np

        array = np.array(vars(channel)[self.name])
        array.setflags(write=False)
        return array

    def __set__(self, channel, value):  # a data descriptor, so a read never returns the tuple
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {self.name!r}")


class Channel(_Record, frozen=True):
    """A validated binary-input channel.

    Attributes:
        d: alphabet size (>= 2).
        W0: law of one message given input 0, shape (d,), read-only.
        W1: law of one message given input 1, shape (d,), read-only.
        support: support classification, see `Support`.

    The laws are held as tuples of floats, `_laws`, which the closed forms
    read; W0 and W1 are float64 arrays built from them on each read.
    """

    d: int
    W0: "np.ndarray" = _LawArray("W0")
    W1: "np.ndarray" = _LawArray("W1")
    support: Support

    def __post_init__(self):
        for name in ("W0", "W1"):
            vars(self)[name] = tuple(map(float, vars(self)[name]))

    @property
    def _laws(self) -> tuple:
        """(W0, W1) as tuples of floats."""
        return vars(self)["W0"], vars(self)["W1"]

    @property
    def delta_star(self) -> float:
        """Smallest mass under input 0 (0 iff the channel is SINGULAR)."""
        return min(self._laws[0])

    @property
    def delta_full(self) -> float:
        """Smallest mass under either input (0 unless support is FULL)."""
        return min(map(min, self._laws))


class ScoreStats(_Record, frozen=True):
    """Per-symbol likelihood ratio statistics of a channel.

    w is the symbolwise ratio W1/W0, v = W1 - W0 the difference direction and r = v/W0
    the centered score (w - 1 rounded once; `fisher_constant`'s q at pi = 0).  chi2 and mu3
    are the second and third moments of r under W0; chi2 is the chi-square divergence of W1
    from W0, and I_0 bit for bit.  Both are `_fdot`s through W0 r = v, v . r and (v r) . r,
    so neither squares a ratio: each is finite wherever its true value is.
    """

    w: "np.ndarray"
    r: "np.ndarray"
    v: "np.ndarray"
    chi2: float
    mu3: float
    w_max: float
    delta_star: float
    delta_full: float


def _check_prob_vector(vec, name: str) -> tuple:
    """A probability vector (a sequence or a 1-d array of reals) as a tuple of floats, renormalized
    by its total summed in order, as numpy's `sum` takes fewer than 8 terms."""
    not_a_vector = ValidationError(f"{name} must be a 1-d probability vector")
    if getattr(vec, "ndim", 1) != 1:
        raise not_a_vector
    try:
        values = [float(x) for x in vec]
    except (TypeError, ValueError):
        raise not_a_vector from None
    if len(values) < 2:
        raise ValidationError(f"{name} needs an alphabet of size >= 2, got {len(values)}")
    if not all(map(math.isfinite, values)):
        raise ValidationError(f"{name} contains non-finite entries")
    if min(values) < 0.0:
        bad = values.index(min(values))
        raise ValidationError(f"{name}[{bad}] = {values[bad]!r} is negative")
    total = functools.reduce(operator.add, values, -0.0)
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValidationError(f"{name} sums to {total!r}; outside tolerance {PROB_SUM_TOL} of 1")
    return tuple(x / total for x in values)


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
    if len(a0) != len(a1):
        raise ValidationError(f"alphabet mismatch: len(W0)={len(a0)} but len(W1)={len(a1)}")
    if min(a0) == 0.0:
        support = Support.SINGULAR
    elif min(a1) == 0.0:
        support = Support.NULL_SUPPORT
    else:
        support = Support.FULL
    for y, (p0, p1) in enumerate(zip(a0, a1)):
        if p0 > 0.0 and p1 / p0 == math.inf:
            raise ValidationError(f"the likelihood ratio W1[{y}] / W0[{y}] = {p1!r} / {p0!r} overflows a double")
    return Channel(d=len(a0), W0=a0, W1=a1, support=support)


def rr_channel(eps0: float) -> Channel:
    """Binary randomized response with flip probability 1/(1+exp(eps0)).

    Input b is reported faithfully with probability exp(eps0)/(1+exp(eps0)),
    flipped otherwise; eps0 = 0 gives the uniform (fully private) channel.
    eps0 must lie in [0, log(DBL_MAX) ~ 709.78], where e^eps0 is a double.
    """
    _check_eps(eps0, "eps0", "rr_channel")
    q = 1.0 / (1.0 + math.exp(eps0))
    return validate_channel([1.0 - q, q], [q, 1.0 - q])


def _score(channel: Channel) -> tuple:
    """The float kernel of `score_stats`: w, r = v / W0 (`_fisher`'s q at pi = 0) and v as tuples, then chi2 and mu3."""
    if channel.support is Support.SINGULAR:
        raise ValidationError(
            "score statistics need min(W0) > 0; channel is SINGULAR"
        )
    w = tuple(p1 / p0 for p0, p1 in zip(*channel._laws))
    v = tuple(p1 - p0 for p0, p1 in zip(*channel._laws))
    r = tuple(x / p0 for x, p0 in zip(v, channel._laws[0]))
    # v r is finite (|v| <= 1); a sum beyond the double range is inf, as the
    # true value is, which the callers' own checks report, with no warning
    return w, r, v, _fdot(v, r), _fdot(list(map(operator.mul, v, r)), r)


def score_stats(channel: Channel) -> ScoreStats:
    """Symbolwise score statistics w, r, v and the moments chi2, mu3.

    Requires delta_star > 0 (SINGULAR channels have no bounded ratio
    against input 0).  The arrays are those of `_score`'s floats.
    """
    import numpy as np

    w, r, v, chi2, mu3 = _score(channel)
    return ScoreStats(
        w=np.array(w),
        r=np.array(r),
        v=np.array(v),
        chi2=chi2,
        mu3=mu3,
        w_max=max(w),
        delta_star=channel.delta_star,
        delta_full=channel.delta_full,
    )


def channel_to_json(channel: Channel) -> str:
    """Serialize a channel to the {"d", "W0", "W1"} JSON schema."""
    payload = {
        "d": channel.d,
        "W0": list(channel._laws[0]),
        "W1": list(channel._laws[1]),
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
