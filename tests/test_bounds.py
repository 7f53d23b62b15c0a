import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shuffledp import (
    Composition,
    Sidedness,
    ValidationError,
    binomial_curve,
    chernoff_curve,
    chernoff_delta,
    lr_atoms,
    privacy_curve,
    rr_channel,
    unbundled_hoeffding_delta,
    unbundled_lr_atoms,
    validate_channel,
)
from shuffledp.bounds import _EXP_ARG_CAP, _LAM_WIDTH
from shuffledp.channels import score_stats
from conftest import full_channel

RR3 = rr_channel(math.log(3.0))


def scalar_chernoff(channel, n: int, eps: float) -> tuple:
    """Reference search for one eps: (lam, log_bound, bound, hit_cap).

    The one-eps-at-a-time form of the lockstep search in `bounds`: a
    bisection of [0, lam_cap] on the sign of the slope of g, halved down to
    width 1e-10, then g at the last midpoint.  `hit_cap` tells whether the
    slope stayed negative up to the overflow guard lam_cap.
    """
    stats = score_stats(channel)
    tau = math.expm1(eps)
    r_max = float(stats.r.max())
    if tau >= r_max - 1e-12 * max(1.0, r_max):
        return math.nan, -math.inf, 0.0, False
    r = stats.r
    pos = channel.W1 > 0.0
    laws = ((np.log(channel.W0), r), (np.log(channel.W1[pos]), r[pos]))

    def tilt(lam: float, log_w: np.ndarray, rr: np.ndarray) -> tuple:
        a = log_w + lam * rr
        top = a.max()
        e = np.exp(a - top)
        s = e.sum()
        return float(top) + math.log(float(s)), float((e * rr).sum() / s)

    lam_cap = _EXP_ARG_CAP / max(float(np.max(np.abs(r))), 1e-300)
    lo, hi = 0.0, lam_cap
    for _ in range(math.ceil(math.log2(lam_cap / _LAM_WIDTH))):
        mid = 0.5 * (lo + hi)
        (_, mean0), (_, mean1) = (tilt(mid, *law) for law in laws)
        if -n * tau + (n - 1) * mean0 + mean1 > 0.0:
            hi = mid
        else:
            lo = mid
    lam_star = 0.5 * (lo + hi)
    (log_m, _), (log_m_plus, _) = (tilt(lam_star, *law) for law in laws)
    log_bound = min(-lam_star * n * tau + (n - 1) * log_m + log_m_plus, 0.0)
    return lam_star, log_bound, min(1.0, math.exp(log_bound)), hi == lam_cap


def test_chernoff_trivial_at_eps_zero():
    ev = chernoff_delta(RR3, 10, 0.0)
    assert ev.bound == 1.0
    assert ev.log_bound == 0.0


def test_chernoff_zero_iff_eps_at_least_eps0():
    # tau >= max r makes the tilted mean unreachable: the bound collapses to 0
    for n in (2, 7, 20):
        ev = chernoff_delta(RR3, n, math.log(3.0))
        assert ev.bound == 0.0
        assert math.isnan(ev.lam)
        assert chernoff_delta(RR3, n, 4.0).bound == 0.0
        assert chernoff_delta(RR3, n, math.log(3.0) - 0.05).bound > 0.0


def test_chernoff_dominates_exact_curve():
    eps = np.linspace(0.05, 1.0, 12)
    for n in (3, 10, 25):
        exact = binomial_curve(RR3, n, eps).delta
        for e, x in zip(eps, exact):
            assert chernoff_delta(RR3, n, e).bound >= x - 1e-12


@settings(max_examples=15)
@given(st.floats(0.5, 2.0), st.integers(1, 3000))
@example(0.5, 3000)
@example(2.0, 3000)
@example(2.0, 1)
def test_chernoff_dominates_binomial_curve_in_underflow_regime(eps0, n):
    # at n in the thousands the far-tail binomial masses reach the subnormal
    # range, so this also exercises the pmf where it underflows
    ch = rr_channel(eps0)
    eps = np.linspace(0.0, eps0, 16)
    exact = binomial_curve(ch, n, eps).delta
    assert np.all(chernoff_curve(ch, n, eps).delta >= exact - 1e-12)


def test_chernoff_decays_exponentially_in_n():
    # fixed eps < eps0: the log-bound should fall linearly in n
    logs = [chernoff_delta(RR3, n, 0.7).log_bound for n in (20, 40, 80)]
    assert logs[1] < logs[0] < 0.0
    assert logs[2] / logs[1] == pytest.approx(2.0, rel=0.2)


def test_chernoff_on_random_full_channels():
    rng = np.random.default_rng(37)
    for d in (2, 3, 4):
        ch = full_channel(rng, d)
        eps = np.linspace(0.0, 1.2, 8)
        exact = privacy_curve(lr_atoms(ch, Composition(12, 0)), eps).delta
        for e, x in zip(eps, exact):
            assert chernoff_delta(ch, 12, e).bound >= x - 1e-12


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


# Two nearly equal top scores: just below log w_max the minimizer of g lies
# past the bracket's end lam_cap = 700 / max|r|
CAPPED = validate_channel([0.4, 0.3, 0.3], [1.0 - 0.45 * (2.0 + 1e-4), 0.45, 0.45 * (1.0 + 1e-4)])


def _near_top(ch) -> np.ndarray:
    return math.log(score_stats(ch).w_max) * np.linspace(0.99999, 1.0 - 1e-11, 8)


@pytest.mark.parametrize("seed", range(2))
def test_chernoff_curve_is_the_scalar_search_bit_for_bit(seed):
    # random FULL channels (d = 2, 3, 4 and 9; d >= 8 takes numpy's unrolled
    # row sum)
    # and rr channels whose lam cap is below 2 or even 1, at n from 1 to 2e6,
    # on grids that run past log w_max and hit it exactly; and a channel
    # whose minimizer sits at the bracket's end just below log w_max
    rng = np.random.default_rng(500 + seed)
    cases = [(full_channel(rng, d), n) for d in (2, 3, 4, 9) for n in (1, 37, 950000)]
    cases += [(rr_channel(eps0), n) for eps0 in (0.05, 1.1, 6.0, 7.5) for n in (2, 2_000_000)]
    grids = [np.append(np.linspace(0.0, 1.2 * top, 22), [top, top * (1.0 - 1e-13)])
             for top in (math.log(score_stats(ch).w_max) for ch, _ in cases)]
    cases += [(CAPPED, 5), (CAPPED, 40)]
    grids += [_near_top(CAPPED)] * 2
    caps = zeros = 0
    for (ch, n), eps in zip(cases, grids):
        ref = [scalar_chernoff(ch, n, float(e)) for e in eps]
        got = chernoff_curve(ch, n, eps)
        assert np.array_equal(_bits(got.delta), _bits([r[2] for r in ref]))
        assert np.array_equal(got.eps, eps) and got.sidedness is Sidedness.FORWARD
        for e, r in zip(eps[::5], ref[::5]):
            ev = chernoff_delta(ch, n, float(e))
            assert np.array_equal(_bits([ev.lam, ev.log_bound, ev.bound]), _bits(r[:3]))
            assert ev.tau == math.expm1(e)
        caps += sum(r[3] for r in ref)
        zeros += sum(r[2] == 0.0 and math.isnan(r[0]) for r in ref)
    assert caps > 0 and zeros > 0


@pytest.mark.parametrize("n", [5, 40])
def test_chernoff_minimizer_at_the_bracket_end_dominates_exact(n):
    # the slope of g is negative on all of [0, lam_cap]: the search ends at
    # lam_cap, and the bound there is still above the exact curve
    eps = _near_top(CAPPED)
    lam_cap = _EXP_ARG_CAP / float(np.max(np.abs(score_stats(CAPPED).r)))
    exact = privacy_curve(lr_atoms(CAPPED, Composition(n, 0)), eps).delta
    for e, x in zip(eps, exact):
        ev = chernoff_delta(CAPPED, n, float(e))
        assert lam_cap - _LAM_WIDTH <= ev.lam < lam_cap
        assert ev.bound >= x


def test_chernoff_curve_on_a_grid_past_the_support():
    # every entry at or above log w_max is zero, and there is no search at all
    eps = np.array([math.log(3.0), 2.0, 4.0])
    got = chernoff_curve(RR3, 10, eps)
    assert got.delta.tolist() == [0.0, 0.0, 0.0]
    assert chernoff_curve(RR3, 10, 0.0).delta.tolist() == [1.0]


def test_chernoff_curve_validation():
    with pytest.raises(ValidationError):
        chernoff_curve(RR3, 0, [0.5])
    with pytest.raises(ValidationError):
        chernoff_curve(RR3, 5, [0.5, -0.5])
    with pytest.raises(ValidationError):
        chernoff_curve(RR3, 5, [0.5, math.nan])
    with pytest.raises(ValidationError):
        chernoff_curve(RR3, 5, [])


def test_chernoff_validation():
    with pytest.raises(ValidationError):
        chernoff_delta(RR3, 0, 0.5)
    with pytest.raises(ValidationError):
        chernoff_delta(RR3, 5, -0.5)
    with pytest.raises(ValidationError):
        chernoff_delta(RR3, 5, math.inf)
    with pytest.raises(ValidationError):
        chernoff_delta(RR3, 5, math.nan)


def test_hoeffding_formula():
    # w_max = 3: bound = exp(m log 3 - 2 n tau^2 / 3^(2m))
    n, m, eps = 50, 2, 0.8
    tau = math.expm1(eps)
    expected = math.exp(2 * math.log(3.0) - 2 * n * tau * tau / 3.0**4)
    got = unbundled_hoeffding_delta(RR3, n, m, eps)
    assert got == pytest.approx(min(1.0, expected), rel=1e-12)


def test_hoeffding_clamps_and_warns_at_eps_zero():
    with pytest.warns(RuntimeWarning, match="vacuous"):
        assert unbundled_hoeffding_delta(RR3, 10, 2, 0.0) == 1.0


def test_hoeffding_monotone_in_eps():
    vals = [unbundled_hoeffding_delta(RR3, 200, 1, e) for e in (0.5, 1.0, 1.5, 2.0)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1.0


def test_hoeffding_dominates_exact_unbundled_curve():
    eps = np.linspace(0.1, 1.5, 8)
    exact = privacy_curve(unbundled_lr_atoms(RR3, 3, 2), eps).delta
    for e, x in zip(eps, exact):
        assert unbundled_hoeffding_delta(RR3, 3, 2, e) >= x - 1e-12


def test_bounds_are_zero_where_e_to_the_eps_overflows():
    # above eps = log(DBL_MAX) ~ 709.78 tau = e^eps - 1 is infinite: it
    # exceeds max r, the Chernoff rule that makes the exact curve zero, and
    # the Hoeffding exponent is -inf; at 709 tau is finite and the same holds
    for eps in (709.0, 710.0, 800.0):
        evaluation = chernoff_delta(RR3, 100, eps)
        assert (evaluation.bound, evaluation.log_bound) == (0.0, -math.inf)
        assert math.isnan(evaluation.lam)
        assert evaluation.tau == (math.expm1(eps) if eps < 709.5 else math.inf)
        assert unbundled_hoeffding_delta(RR3, 100, 2, eps) == 0.0
    curve = chernoff_curve(RR3, 100, [1.0, 709.0, 710.0, 800.0])
    assert curve.delta[0] == chernoff_delta(RR3, 100, 1.0).bound > 0.0
    assert curve.delta[1:].tolist() == [0.0, 0.0, 0.0]


def test_hoeffding_exponent_under_and_overflow():
    # w_max^(2m) = 3^800 and tau^2 (eps in (354.9, 709.78]) exceed the double
    # range: the decay term underflows to the vacuous 1, or the bound is 0
    assert unbundled_hoeffding_delta(RR3, 100, 400, 1.0) == 1.0
    for eps in (355.0, 400.0, 709.0):
        assert unbundled_hoeffding_delta(RR3, 100, 2, eps) == 0.0


@settings(max_examples=300, deadline=None)
@given(
    eps0=st.sampled_from([0.0, 0.1, math.log(3.0), 8.0]),
    m=st.integers(1, 10**9),
    eps=st.floats(1e-300, 1e4),
)
def test_hoeffding_never_raises(eps0, m, eps):
    assert 0.0 <= unbundled_hoeffding_delta(rr_channel(eps0), 100, m, eps) <= 1.0


def test_hoeffding_validation():
    with pytest.raises(ValidationError):
        unbundled_hoeffding_delta(RR3, 0, 1, 0.5)
    with pytest.raises(ValidationError):
        unbundled_hoeffding_delta(RR3, 5, 0, 0.5)
    with pytest.raises(ValidationError):
        unbundled_hoeffding_delta(RR3, 5, 1, -1.0)
    with pytest.raises(ValidationError):
        unbundled_hoeffding_delta(RR3, 5, 1, math.nan)
