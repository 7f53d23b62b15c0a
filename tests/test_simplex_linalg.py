import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shuffledp import (
    ValidationError,
    fisher_constant,
    one_hot_cov,
    rr_channel,
    sigma_pi,
    validate_channel,
)
from conftest import fisher_by_solve, full_channel


def test_one_hot_cov_shape_and_kernel():
    f = np.array([0.2, 0.3, 0.5])
    cov = one_hot_cov(f)
    # symmetric, rows sum to zero (all-ones kernel), PSD
    assert np.allclose(cov, cov.T, atol=1e-15)
    assert np.allclose(cov @ np.ones(3), 0.0, atol=1e-15)
    assert np.linalg.eigvalsh(cov).min() >= -1e-15


def test_sigma_pi_interpolates():
    ch = full_channel(np.random.default_rng(0), 3)
    s0 = sigma_pi(ch, 0.0)
    s1 = sigma_pi(ch, 1.0)
    sh = sigma_pi(ch, 0.5)
    assert np.allclose(sh, 0.5 * (s0 + s1), atol=1e-15)
    assert np.allclose(s0, one_hot_cov(ch.W0), atol=1e-15)


def test_fisher_rr_ln3_exact():
    ch = rr_channel(math.log(3.0))
    for pi in (0.0, 0.5):
        rep = fisher_constant(ch, pi)
        assert rep.fisher == pytest.approx(4 / 3, abs=1e-12)
    rep = fisher_constant(ch, 0.5)
    # s solves sigma s = v on the zero-sum subspace
    assert rep.s == pytest.approx([-4 / 3, 4 / 3], rel=1e-12)
    assert rep.s.sum() == pytest.approx(0.0, abs=1e-12)


def test_fisher_score_direction_solves_system():
    ch = full_channel(np.random.default_rng(5), 4)
    rep = fisher_constant(ch, 0.3)
    # sigma s = v holds up to a multiple of the all-ones kernel direction
    resid = rep.sigma @ rep.s - rep.v
    assert np.allclose(resid - resid.mean(), 0.0, atol=1e-12)
    assert rep.fisher == pytest.approx(float(rep.v @ rep.s), rel=1e-12)


def test_fisher_mixture_identity_endpoints():
    # at pi in {0, 1} the rank-one correction vanishes
    ch = full_channel(np.random.default_rng(1), 3)
    for pi in (0.0, 1.0):
        rep = fisher_constant(ch, pi)
        assert rep.fisher == pytest.approx(rep.fisher_mixture, rel=1e-10)


@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
def test_fisher_two_routes_agree(seed, d, pi):
    # the closed form against the pivoted linear solve
    ch = full_channel(np.random.default_rng(seed), d)
    rep = fisher_constant(ch, pi)
    fisher, s = fisher_by_solve(ch, pi)
    assert abs(rep.fisher - fisher) <= 1e-9 * (1.0 + fisher)
    assert np.max(np.abs(rep.s - s)) <= 1e-9 * (1.0 + np.max(np.abs(s)))
    assert rep.fisher >= -1e-12


def test_fisher_exceeds_mixture_information():
    # fixed-composition covariance is smaller, so its inverse form is larger
    ch = full_channel(np.random.default_rng(7), 3)
    rep = fisher_constant(ch, 0.4)
    assert rep.fisher >= rep.fisher_mixture - 1e-12


def test_fisher_rejects_bad_inputs():
    ch = rr_channel(1.0)
    with pytest.raises(ValidationError):
        fisher_constant(ch, -0.1)
    with pytest.raises(ValidationError):
        fisher_constant(ch, 1.1)
    singular = validate_channel([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValidationError, match="FULL"):
        fisher_constant(singular, 0.5)


def test_fisher_refuses_a_direction_beyond_the_double_range():
    # at pi = 1, f = W1 and v / f = -0.5 / 1e-320 overflows: refused by the
    # rank-one check, with no warning; pi = 0 and 0.5 stay finite
    ch = validate_channel([0.5, 0.5], [1e-320, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fisher_constant(ch, 0.0).fisher == pytest.approx(1.0, rel=1e-15)
        assert fisher_constant(ch, 0.5).fisher == pytest.approx(2.0, rel=1e-15)
        with pytest.raises(ValidationError, match=r"I_f = inf"):
            fisher_constant(ch, 1.0)


def _mp_fisher(channel, pi):
    """I_pi and s at 60 digits, by the rank-one identity on the channel's doubles."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        pi = mpmath.mpf(pi)
        W0 = [mpmath.mpf(float(x)) for x in channel.W0]
        W1 = [mpmath.mpf(float(x)) for x in channel.W1]
        v = [b - a for a, b in zip(W0, W1)]
        q = [x / ((1 - pi) * a + pi * b) for x, a, b in zip(v, W0, W1)]
        fisher_mixture = mpmath.fsum(x * y for x, y in zip(v, q))
        denom = 1 - pi * (1 - pi) * fisher_mixture
        s = [x / denom for x in q]
        mean = mpmath.fsum(s) / len(s)
        return float(fisher_mixture / denom), np.array([float(x - mean) for x in s])


_ULP = 2.0**-52
_MP_CASES = {
    # a W0 mass near 1 and two far below it: a solve on the minor left by
    # dropping the last symbol returned -2.18e86 here, and passed its
    # condition check
    "masses-1e-88-1e-288": ([1.0, 1e-88, 1e-288], [0.40271150782609794, 0.28041299037314577, 0.31687550180075624], 0.0),
    # a reduced minor with condition number above 1e12 (the solve refused it)
    "knife-edge-2e-14": ([2e-14, 0.5 - 2e-14, 0.5], [2e-14, 0.25, 0.75 - 2e-14], 0.5),
    # the two pi values of the report-d3 CLI pin
    "d3-pi-0": ([0.5, 0.3, 0.2], [0.22, 0.33, 0.45], 0.0),
    "d3-pi-63/189": ([0.5, 0.3, 0.2], [0.22, 0.33, 0.45], 63 / 189),
}


@pytest.mark.parametrize("name", sorted(_MP_CASES))
def test_fisher_constant_against_mpmath(name):
    W0, W1, pi = _MP_CASES[name]
    ch = validate_channel(W0, W1)
    rep = fisher_constant(ch, pi)
    fisher, s = _mp_fisher(ch, pi)
    assert abs(rep.fisher - fisher) <= 4 * _ULP * fisher
    assert np.max(np.abs(rep.s - s)) <= 1e-14 * np.max(np.abs(s))


def test_fisher_constant_known_values():
    ch = validate_channel(*_MP_CASES["masses-1e-88-1e-288"][:2])
    assert fisher_constant(ch, 0.0).fisher == pytest.approx(1.0041008364148107e287, rel=4 * _ULP)
    ch = validate_channel(*_MP_CASES["knife-edge-2e-14"][:2])
    assert fisher_constant(ch, 0.5).fisher == pytest.approx(0.285714285714243707, rel=4 * _ULP)


def test_fisher_constant_against_mpmath_on_random_channels():
    # FULL channels at d = 2..8, every third with one W0 mass scaled down by
    # 1e-3 to 1e-12
    rng = np.random.default_rng(26)
    for i in range(42):
        d = 2 + i % 7
        W0, W1 = rng.dirichlet([1.0] * d), rng.dirichlet([1.0] * d)
        if i % 3 == 0:
            W0[rng.integers(d)] *= 10.0 ** -rng.uniform(3.0, 12.0)
        ch = validate_channel(W0 / W0.sum(), W1)
        for pi in (0.0, 0.1, 0.5, 0.9, 1.0):
            rep = fisher_constant(ch, pi)
            fisher, s = _mp_fisher(ch, pi)
            assert abs(rep.fisher - fisher) <= 1e-14 * fisher, (i, pi)
            assert np.max(np.abs(rep.s - s)) <= 1e-14 * np.max(np.abs(s)), (i, pi)
