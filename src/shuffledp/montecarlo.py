"""Deterministic Monte Carlo fallbacks and scaling diagnostics.

Sampling uses a counter-based generator: every 64-bit word h is a pure
SplitMix64 hash of (seed, draw index, step index), so runs are
bit-identical for equal seeds and independent of how draws are split across
workers or blocks.  The uniform of a word is u = (h >> 11) * 2^-53, but it
is never formed: u < c holds exactly when h < ceil(c * 2^53) << 11 (always
when c >= 1), so a categorical draw or a coin flip is an integer compare on
the word.  Each worker hashes its draws in blocks of at most 2^16 words (one
draw per block when n is larger) into buffers it reuses, so its working
set is O(max(n, 2^16)) words; only the d counts and the value of each draw
are kept per draw.

On top of the sampler sit empirical/exact Kolmogorov distances to the
Gaussian limit, log-log rate fitting and the frequency-estimation error
study.
"""

import enum
import math
import numbers
import operator

import numpy as np

from .asymptotics import _is_rr, _ndtr
from .channels import Channel, _Record
from .errors import InternalInvariantError, ValidationError
from .exact_dist import LrAtomization, _affine_lr, _cell_blocks, _check_pair, _relabelling
from .records import DEFAULT_ATOM_CAP, Composition, _check_count

_MASK64 = (1 << 64) - 1
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_S27 = np.uint64(27)
_S30 = np.uint64(30)
_S31 = np.uint64(31)

# Hash words per block buffer: a block holds max(1, _BLOCK // n) draws of n
# steps, so a worker's buffers stay cache-sized unless one draw is larger.
_BLOCK = 1 << 16


class Hypothesis(enum.Enum):
    """Which of the two adjacent histogram laws to sample from."""

    NULL = "null"  # T_{n,k}
    ALT = "alt"    # T_{n,k+1}


class SimConfig(_Record, frozen=True):
    """Simulation determinism contract.

    Equal (seed, reps) produce bit-identical sample streams; `workers` only
    controls parallelism and never affects values (draws are keyed by their
    global index, not by the worker that happens to compute them).
    """

    seed: int
    reps: int
    workers: int = 1

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise ValidationError(f"seed must be an integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "reps", _check_count("reps", self.reps, 0))
        object.__setattr__(self, "workers", _check_count("workers", self.workers, 1))


class FrequencyMseReport(_Record, frozen=True):
    """Monte Carlo error of the debiased frequency estimator."""

    mse_estimate: float
    mse_bound: float
    bias: float
    bias_se: float
    p_realized: float
    reps: int


# ---------------------------------------------------------------------------
# counter-based hash words


def _mix64(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer of the uint64 array `x`, in place; bijective.

    `tmp` is scratch of x's shape.  Array arithmetic wraps silently, whereas
    the numpy scalar path would raise overflow warnings.
    """
    np.right_shift(x, _S30, out=tmp)
    np.bitwise_xor(x, tmp, out=x)
    np.multiply(x, _M1, out=x)
    np.right_shift(x, _S27, out=tmp)
    np.bitwise_xor(x, tmp, out=x)
    np.multiply(x, _M2, out=x)
    np.right_shift(x, _S31, out=tmp)
    np.bitwise_xor(x, tmp, out=x)
    return x


def _hash_blocks(seed: int, n: int, start: int, stop: int):
    """Yield (lo, hi, h, mask) over draws [start, stop), max(1, _BLOCK // n) at a time.

    h[i, j] is the hash word of (seed, draw lo + i, step j); its uniform is
    u = (h >> 11) * 2^-53.  `mask` is bool scratch of h's shape.  Every block
    reuses the same buffers, so the working set is O(max(n, _BLOCK)) words
    however many draws the range holds.
    """
    rows = max(1, _BLOCK // n)
    buf = np.empty(rows * n, dtype=np.uint64)
    tmp = np.empty_like(buf)
    scratch = np.empty(rows * n, dtype=bool)
    j = np.arange(n, dtype=np.uint64)
    steps = _mix64(j * _M2 + _GOLDEN, j)
    sw = np.array([(seed ^ 0x5DEECE66D) & _MASK64], dtype=np.uint64)
    sw = _mix64(sw, np.empty_like(sw))[0]
    for lo in range(start, stop, rows):
        hi = min(lo + rows, stop)
        shape = (hi - lo, n)
        h = buf[: shape[0] * n].reshape(shape)
        g = np.arange(lo, hi, dtype=np.uint64)
        np.bitwise_xor(_mix64(g * _GOLDEN + sw, g)[:, None], steps, out=h)
        _mix64(h, tmp[: h.size].reshape(shape))
        yield lo, hi, h, scratch[: h.size].reshape(shape)


def _below(c: float):
    """The word t with h < t <=> (h >> 11) * 2^-53 < c, or None if that always holds.

    For the integer m = h >> 11 < 2^53, m * 2^-53 < c <=> m < T = ceil(c * 2^53)
    (c * 2^53 is exact), and m < T <=> h < T << 11.  T >= 2^53 (c >= 1)
    admits every word.
    """
    t = math.ceil(c * 2.0**53)
    return None if t >= 1 << 53 else np.uint64(t << 11)


def _run_blocks(reps: int, workers: int, block_fn) -> None:
    """Split [0, reps) into per-worker ranges and run block_fn(start, stop)."""
    bounds = [reps * w // workers for w in range(workers + 1)]
    ranges = [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]
    if workers == 1 or len(ranges) <= 1:
        for a, b in ranges:
            block_fn(a, b)
        return
    # imported here: concurrent.futures pulls in logging, which no other
    # path of the package needs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(lambda ab: block_fn(*ab), ranges))


# ---------------------------------------------------------------------------
# privacy-loss sampling


def sample_privacy_loss(
    channel: Channel,
    comp: Composition,
    hypothesis: Hypothesis,
    config: SimConfig,
    cap: int = DEFAULT_ATOM_CAP,
) -> np.ndarray:
    """Sample the log likelihood ratio log L_{n,k}(N) under either law.

    Draw g simulates all n users (input-0 users first), builds the message
    histogram and evaluates the exact pair ratio at it.  For k = 0 that is
    `exact_dist._affine_lr` over all draws' counts at once, the atoms' own
    sum, so every value is the log of an atom's ratio; the sum is
    elementwise, so no blocking or worker count changes a bit.  Otherwise it
    is the log, taken in place, of the ratio table `fold._ratio_table`
    (it inherits the enumeration cap and refuses, with the atoms'
    ValidationError, a pair whose alt mass on cells with no ratio is above
    their tolerance).  A NaN value, a draw on the table's NaN cells, raises
    InternalInvariantError.  Returns `config.reps` values in draw order,
    independent of `config.workers`.

    User j of draw g sends the symbol searchsorted(cdf, u, side="right"),
    clamped to d - 1, for its uniform u and the cumulative law cdf of its
    input; so "symbol <= y" is u < cdf[y], which `_below` turns into one
    integer compare on the hash word.  A k = 0 draw whose histogram has
    zero probability under the alt law (a symbol W1 never sends) has ratio
    0 and returns -inf by design.
    """
    _check_pair(channel, comp, "privacy-loss sampling")
    n, k, d = comp.n, comp.k, channel.d
    zeros = n - k - (1 if hypothesis is Hypothesis.ALT else 0)
    if k > 0:
        from .fold import _ratio_table  # a k = 0 sampler never folds: only k > 0 loads the fold

        lam = _ratio_table(channel, comp, cap)[1]
        with np.errstate(divide="ignore"):
            np.log(lam, out=lam)
    limits = [
        (_below(c0), _below(c1))
        for c0, c1 in zip(np.cumsum(channel.W0)[:-1], np.cumsum(channel.W1)[:-1])
    ]
    # symbol-major: counts[y] holds every draw's count of symbol y
    counts = np.empty((d, config.reps), dtype=np.int64)

    def block(start: int, stop: int) -> None:
        for lo, hi, h, mask in _hash_blocks(config.seed, n, start, stop):
            c = counts[:, lo:hi]
            # c[y] counts the users whose symbol is <= y
            for y, (limit0, limit1) in enumerate(limits):
                for cols, limit in ((np.s_[:, :zeros], limit0), (np.s_[:, zeros:], limit1)):
                    if limit is None:
                        mask[cols] = True
                    else:
                        np.less(h[cols], limit, out=mask[cols])
                mask.sum(axis=1, out=c[y])
            c[-1] = n
            c[1:] = np.diff(c, axis=0)

    _run_blocks(config.reps, config.workers, block)
    if k > 0:
        out = lam[tuple(counts[:-1])]
    else:
        with np.errstate(divide="ignore"):
            out = np.log(_affine_lr(counts, n, *_relabelling(channel)))
    if np.isnan(out).any():
        raise InternalInvariantError("sampled a histogram whose null mass underflowed")
    return out


# ---------------------------------------------------------------------------
# Kolmogorov distances


def kolmogorov_to_gaussian(data, mu: float, hypothesis: Hypothesis) -> float:
    """Kolmogorov distance of centered privacy losses to the Gaussian limit.

    Under the null law (Lambda + mu^2/2)/mu is compared against a standard
    normal, under the alt law (Lambda - mu^2/2)/mu.  `data` is either an
    array of sampled Lambda values (empirical CDF) or an `LrAtomization`
    (exact atom masses under the requested hypothesis).  mu^2/2 must be a
    double, so that an infinite Lambda (a sampled log 0 = -inf, or the
    alt-singular mass) has t = Lambda, and a sample must not be NaN.
    """
    shift = 0.5 * mu * mu if hypothesis is Hypothesis.NULL else -0.5 * mu * mu
    if not (mu > 0.0 and math.isfinite(shift)):
        raise ValidationError(f"mu must be positive with mu^2/2 finite, got {mu!r}")
    if isinstance(data, LrAtomization):
        # increasing ratios give nondecreasing t; alt-singular mass sits at
        # ratio +inf, so at t = +inf
        lr, weights = data.lr, data.p_null if hypothesis is Hypothesis.NULL else data.p_alt
        if hypothesis is Hypothesis.ALT and data.alt_singular_mass > 0.0:
            lr = np.append(lr, np.inf)
            weights = np.append(weights, data.alt_singular_mass)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]

        def t_at(at):
            with np.errstate(divide="ignore", over="ignore"):  # log 0; t = +-inf at a subnormal mu
                return (np.log(lr[at]) + shift) / mu
    else:
        samples = np.asarray(data, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0 or np.isnan(samples).any():
            raise ValidationError("need a nonempty 1-d array of sampled values, none NaN")
        with np.errstate(over="ignore"):
            t = np.sort((samples + shift) / mu)
        cdf = np.arange(1, samples.size + 1) / samples.size
        t_at = t.__getitem__
    # the distance at each atom, _CELL_BLOCK atoms at a time: the CDF is the
    # only array of the atoms' size
    worst = []
    for at in _cell_blocks(cdf.size):
        gauss, upper = _ndtr(t_at(at)), cdf[at]
        before = np.concatenate(([cdf[at.start - 1] if at.start else 0.0], upper[:-1]))
        worst.append(np.max(np.maximum(np.abs(upper - gauss), np.abs(before - gauss))))
    return float(np.max(worst))


def dkw_radius(reps: int, gamma: float = 0.05) -> float:
    """Dvoretzky-Kiefer-Wolfowitz radius sqrt(log(2/gamma) / (2 reps))."""
    reps = _check_count("reps", reps)
    if not 0.0 < gamma < 1.0:
        raise ValidationError(f"gamma must be in (0, 1), got {gamma!r}")
    return math.sqrt(math.log(2.0 / gamma) / (2.0 * reps))


def rate_exponent(points) -> float:
    """Least-squares slope of log(value) against log(n).

    Needs at least three points with distinct n and positive values.  The
    slope is the closed form sum dx dy / sum dx^2 of the deviations from the
    means, in exactly rounded sums, so no least-squares kernel's rounding shows.
    """
    pts = [(float(n), float(v)) for n, v in points]
    if len(pts) < 3:
        raise ValidationError("rate fit needs at least 3 points")
    if not all(0.0 < x < math.inf for pt in pts for x in pt):
        raise ValidationError("rate fit needs positive finite n and values")
    xs, ys = ([math.log(pt[i]) for pt in pts] for i in (0, 1))
    if len(set(xs)) != len(xs):  # distinct logs, so sum dx^2 > 0
        raise ValidationError("rate fit needs distinct n values")
    x_mean, y_mean = (math.fsum(logs) / len(logs) for logs in (xs, ys))
    dx, dy = [x - x_mean for x in xs], [y - y_mean for y in ys]
    return math.fsum(map(operator.mul, dx, dy)) / math.fsum(map(operator.mul, dx, dx))


# ---------------------------------------------------------------------------
# frequency estimation


def frequency_mse(channel: Channel, n: int, p_true: float, config: SimConfig) -> FrequencyMseReport:
    """Monte Carlo MSE of the debiased randomized-response frequency estimate.

    The channel is randomized response (`rr_channel`, either orientation)
    with flip probability q = delta_star.  The dataset holds
    round(p_true * n) ones; each trial flips every bit with probability q,
    counts the reported ones K and estimates p_hat = (K/n - q)/(1 - 2q).
    Errors are taken against the realized frequency, and the worst-case
    variance bound 1/(4 n (1 - 2q)^2) is reported alongside.  1 - 2q must
    not round to 0.
    """
    if not _is_rr(channel):
        raise ValidationError("frequency_mse needs a randomized-response channel (d = 2, W1 = W0 swapped)")
    q = channel.delta_star
    denom = 1.0 - 2.0 * q
    if denom == 0.0:
        raise ValidationError(f"the estimator divides by 1 - 2q, which is 0 at q = {q!r}")
    n = _check_count("n", n)
    if not 0.0 <= p_true <= 1.0:
        raise ValidationError(f"p_true must lie in [0, 1], got {p_true!r}")
    if config.reps < 1:
        raise ValidationError("frequency study needs reps >= 1")
    n_ones = int(math.floor(p_true * n + 0.5))
    p_realized = n_ones / n
    errors = np.empty(config.reps, dtype=np.float64)
    zeros = n - n_ones
    flip = _below(q)  # a bit flips where u < q; q < 1/2, so never None

    def block(start: int, stop: int) -> None:
        for lo, hi, h, mask in _hash_blocks(config.seed, n, start, stop):
            # reported one = bit XOR flip; bits are 0 for the first n-n_ones users
            np.less(h[:, :zeros], flip, out=mask[:, :zeros])
            np.greater_equal(h[:, zeros:], flip, out=mask[:, zeros:])
            p_hat = (mask.sum(axis=1) / n - q) / denom
            errors[lo:hi] = p_hat - p_realized

    _run_blocks(config.reps, config.workers, block)
    mse = float(np.mean(errors**2))
    bias = float(np.mean(errors))
    bias_se = float(np.std(errors, ddof=1) / math.sqrt(config.reps)) if config.reps > 1 else math.inf
    return FrequencyMseReport(
        mse_estimate=mse,
        mse_bound=1.0 / (4.0 * n * denom * denom),
        bias=bias,
        bias_se=bias_se,
        p_realized=p_realized,
        reps=config.reps,
    )
