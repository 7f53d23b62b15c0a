import math
import re
from statistics import NormalDist

import numpy as np
import pytest
from scipy.special import gammaln, ndtr, ndtri

from shuffledp import (
    Composition,
    GdpSource,
    ValidationError,
    binomial_lr_atoms,
    divergences,
    fisher_constant,
    gaussian_tradeoff,
    gdp_delta,
    gdp_mu,
    jsd_canonical_asymptotic,
    leading_divergence,
    lr_atoms,
    rr_channel,
    score_stats,
    validate_channel,
)
from shuffledp.asymptotics import _ndtr, _phi
from conftest import full_channel

RR3 = rr_channel(math.log(3.0))


def test_gdp_delta_oracles():
    assert gdp_delta(0.0, 1.0) == pytest.approx(0.38292492254802620728, abs=1e-15)
    assert gdp_delta(1.0, 1.0) == pytest.approx(0.1269367375066439458, abs=1e-15)


def test_gdp_delta_zero_at_mu_zero():
    assert gdp_delta(0.5, 0.0) == 0.0


def test_gdp_delta_at_zero_is_gaussian_tv():
    # delta(0) = 2 Phi(mu/2) - 1, the total variation of the Gaussian pair
    for mu in (0.3, 1.0, 2.5):
        assert gdp_delta(0.0, mu) == pytest.approx(2.0 * ndtr(mu / 2.0) - 1.0, rel=1e-12)


def test_gdp_delta_monotone():
    eps = np.linspace(0.0, 4.0, 30)
    vals = [gdp_delta(e, 1.3) for e in eps]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_gdp_delta_validation():
    with pytest.raises(ValidationError):
        gdp_delta(-0.1, 1.0)
    with pytest.raises(ValidationError):
        gdp_delta(0.1, -1.0)


@pytest.mark.parametrize("eps, mu", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0)])
def test_gdp_delta_rejects_nan_and_infinite_eps(eps, mu):
    # max(0.0, nan) is 0.0, so an unchecked NaN would read as perfect privacy
    with pytest.raises(ValidationError):
        gdp_delta(eps, mu)


@pytest.mark.parametrize("bad", [math.nan, -0.1, math.inf])
def test_gdp_delta_rejects_a_bad_grid_entry(bad):
    with pytest.raises(ValidationError):
        gdp_delta(np.array([0.0, 0.5, bad, 2.0]), 1.3)


def _gdp_delta_one_eps(eps: float, mu: float) -> float:
    """The Gaussian curve at one eps in Python floats: the grid form's oracle."""
    if mu == 0.0:
        return 0.0

    def ndtr(x):
        return 0.5 * math.erfc(-x * math.sqrt(0.5))

    value = ndtr(-eps / mu + mu / 2.0) - math.exp(eps) * ndtr(-eps / mu - mu / 2.0)
    return min(1.0, max(0.0, value))


@pytest.mark.parametrize("mu", [0.0, 1e-3, 1.3, 7.0])
def test_gdp_delta_grid_is_the_one_eps_formula_bit_for_bit(mu):
    # from 0 into the deep tail, where delta underflows to 0
    eps = np.concatenate(([0.0, 1e-300, 1e-12], np.linspace(0.0, 1.0, 101), np.geomspace(1.0, 300.0, 200)))
    want = np.array([_gdp_delta_one_eps(e, mu) for e in eps.tolist()])
    got = gdp_delta(eps, mu)
    assert isinstance(got, np.ndarray) and got.shape == eps.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    one = [gdp_delta(e, mu) for e in eps.tolist()]
    assert all(type(v) is float for v in one)
    assert np.array_equal(np.array(one).view(np.int64), want.view(np.int64))


def test_gaussian_tradeoff_rejects_nan():
    with pytest.raises(ValidationError):
        gaussian_tradeoff(math.nan, 0.05)
    with pytest.raises(ValidationError):
        gaussian_tradeoff(1.0, [0.05, math.nan])


def test_gaussian_tradeoff_oracle():
    assert gaussian_tradeoff(1.0, 0.05) == pytest.approx(0.74048897715855592935, abs=1e-15)


def test_gaussian_tradeoff_endpoints_and_fixed_point():
    assert gaussian_tradeoff(1.7, 0.0) == 1.0
    assert gaussian_tradeoff(1.7, 1.0) == 0.0
    # the curve crosses the diagonal at alpha = Phi(-mu/2)
    mu = 0.8
    a = float(ndtr(-mu / 2.0))
    assert gaussian_tradeoff(mu, a) == pytest.approx(a, rel=1e-12)


def test_gaussian_tradeoff_vectorized():
    out = gaussian_tradeoff(1.0, np.array([0.0, 0.5, 1.0]))
    assert out.shape == (3,)
    assert out[0] == 1.0 and out[2] == 0.0


# The stdlib kernels that replaced scipy.special, pinned to the scipy
# oracles (test-only) on the ranges the package uses.


def test_ndtr_matches_scipy_down_to_the_far_lower_tail():
    x = np.linspace(-37.5, 8.5, 20_001)
    oracle = ndtr(x)
    assert np.all(np.abs(_ndtr(x) - oracle) <= 1e-13 * oracle)
    assert _ndtr(np.array([])).size == 0


def test_ndtr_is_phi_at_each_entry_bit_for_bit():
    # the array form the sampler and the trade-off read, and the float form of the Gaussian curve
    x = np.concatenate((np.linspace(-40.0, 9.0, 4001), [0.0, -0.0, 5e-324, -1e-300, 38.0]))
    assert _ndtr(x).tobytes() == np.array([_phi(v) for v in x.tolist()]).tobytes()


def test_inverse_normal_cdf_matches_scipy_ndtri():
    p = np.concatenate((
        np.logspace(-300.0, math.log10(0.5), 2000),
        1.0 - np.logspace(-16.0, math.log10(0.5), 2000),
    ))
    inv_cdf = NormalDist().inv_cdf
    got = np.array([inv_cdf(v) for v in p.tolist()])
    oracle = ndtri(p)
    assert np.all(np.abs(got - oracle) <= 1e-14 * np.abs(oracle))


def test_lgamma_matches_scipy_gammaln_up_to_a_million():
    x = np.concatenate((np.arange(3.0, 2000.0), np.linspace(2000.0, 1e6, 2001)))
    got = np.array([math.lgamma(v) for v in x.tolist()])
    oracle = gammaln(x)
    assert np.all(np.abs(got - oracle) <= 1e-15 * oracle)


def test_gaussian_tradeoff_matches_the_scipy_formula():
    mu = 1.3
    alpha = np.array([0.0, 1e-300, 1e-20, 1e-9, 0.05, 0.5, 0.9, 1.0 - 1e-10, 1.0])
    with np.errstate(invalid="ignore"):
        oracle = ndtr(ndtri(1.0 - alpha) - mu)
    oracle = np.where(alpha == 0.0, 1.0, np.where(alpha == 1.0, 0.0, oracle))
    got = gaussian_tradeoff(mu, alpha)
    np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=0.0)
    assert gaussian_tradeoff(mu, 0.0) == 1.0 and gaussian_tradeoff(mu, 1.0) == 0.0
    grid = gaussian_tradeoff(mu, alpha.reshape(3, 3))
    assert grid.shape == (3, 3) and np.array_equal(grid.ravel(), got)


@pytest.mark.parametrize("eps, mu", [(8.0, 0.5), (10.0, 0.8)])
def test_gdp_delta_deep_tail_against_mpmath(eps, mu):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    e, m = mpmath.mpf(eps), mpmath.mpf(mu)
    exact = mpmath.ncdf(-e / m + m / 2) - mpmath.exp(e) * mpmath.ncdf(-e / m - m / 2)
    assert exact < 1e-30
    assert float(abs(gdp_delta(eps, mu) - exact) / exact) <= 1e-11


def test_gdp_delta_up_to_and_beyond_the_exp_range():
    # e^eps overflows a double above eps = log(DBL_MAX) ~ 709.78; below it
    # the formula keeps its accuracy, above it gdp_delta refuses the eps
    # (Phi(a) alone would give 0.5 at eps = 800, mu = 40, where delta = 0.49003)
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    e, m = mpmath.mpf(709), mpmath.mpf(40)
    exact = mpmath.ncdf(-e / m + m / 2) - mpmath.exp(e) * mpmath.ncdf(-e / m - m / 2)
    assert float(abs(gdp_delta(709.0, 40.0) - exact) / exact) <= 1e-14
    assert gdp_delta(np.array([709.0]), 40.0).tolist() == [gdp_delta(709.0, 40.0)]
    limit = "gdp_delta needs eps <= 709.782712893384 (the log of the largest double)"
    for eps in (710.0, 800.0, np.array([1.0, 800.0])):
        with pytest.raises(ValidationError, match=re.escape(limit)):
            gdp_delta(eps, 40.0)
    assert gdp_delta(800.0, 0.0) == 0.0  # the degenerate pair takes no e^eps


def test_gdp_mu_values_and_sources():
    p = gdp_mu(RR3, 100)
    assert p.mu == pytest.approx(math.sqrt((4 / 3) / 100), rel=1e-12)
    assert p.source is GdpSource.CANONICAL
    assert gdp_mu(RR3, 100, pi=0.5).source is GdpSource.PROPORTIONAL
    unb = gdp_mu(RR3, 100, pi=0.5, m=2)
    assert unb.source is GdpSource.UNBUNDLED
    assert unb.mu == pytest.approx(0.1632993161855452, rel=1e-12)


def test_gdp_mu_validation():
    with pytest.raises(ValidationError):
        gdp_mu(RR3, 0)
    with pytest.raises(ValidationError):
        gdp_mu(RR3, 10, m=0)
    with pytest.raises(ValidationError, match=r"pi must lie in \[0, 1\], got 'x'"):
        gdp_mu(RR3, 100, pi="x")


def test_jsd_expansion_rr3_n10():
    report = jsd_canonical_asymptotic(RR3, 10)
    assert report.asymptotic == pytest.approx(0.0175, abs=1e-12)
    assert report.terms[0] == pytest.approx((4 / 3) / 80, rel=1e-12)
    assert report.terms[1] == pytest.approx(-(16 / 9) / 1600, rel=1e-12)
    assert report.terms[2] == pytest.approx((7 / 64) * (4 / 3) ** 2 / 100, rel=1e-12)
    assert report.exact is not None
    assert report.residual == pytest.approx(report.exact - report.asymptotic, abs=1e-15)


def test_jsd_expansion_auto_exact_path_selection():
    # the fill-in is lr_atoms under a budget of built cells: d = 3 at n = 1000
    # builds 490140 of them, n = 5000 about 7e6, over the budget
    ch = full_channel(np.random.default_rng(0), 3)
    for n in (20, 1000):
        assert jsd_canonical_asymptotic(ch, n).exact is not None
    big = jsd_canonical_asymptotic(ch, 5000)
    assert big.exact is None and big.residual is None
    # at n = 1e50 the window of about 4e26 counts is refused before it is
    # built.  On the last two channels numpy raised "Maximum allowed size
    # exceeded"; on randomized response the double n p0 rounded away the
    # half width, so the window was one count and the atoms' mass check failed
    extreme = validate_channel([1.231296895499659e-200, 1.0], [1.0, 2.0963634922239936e-300])
    for channel in (RR3, rr_channel(1.1), validate_channel([0.5, 0.3, 0.2], [0.2, 0.3, 0.5]), extreme):
        huge = jsd_canonical_asymptotic(channel, 10**50)
        assert huge.exact is None and huge.residual is None


def test_jsd_expansion_caller_supplied_exact():
    report = jsd_canonical_asymptotic(RR3, 10, exact=0.02)
    assert report.exact == 0.02
    assert report.residual == pytest.approx(0.02 - report.asymptotic, abs=1e-15)


def test_jsd_expansion_residual_is_small():
    # remainder should sit two orders below the leading term at n = 100
    report = jsd_canonical_asymptotic(RR3, 100)
    assert abs(report.residual) < report.terms[0] / 1000


def test_jsd_expansion_remainder_is_third_order_up_to_a_million():
    # the remainder of rr eps0 = 1.1 is ~-0.0245 / n^3, about 1e-13 of the JSD
    # at n = 1e6: only a per-atom kernel without cancellation near ratio 1
    # resolves it (the direct form gave n^3 residual = -1.92 there)
    coeffs = [
        n**3 * jsd_canonical_asymptotic(rr_channel(1.1), n).residual
        for n in (10_000, 30_000, 100_000, 300_000, 1_000_000)
    ]
    assert all(-0.026 < c < -0.023 for c in coeffs), coeffs
    assert max(coeffs) - min(coeffs) < 0.01 * abs(coeffs[0]), coeffs


def test_jsd_expansion_adds_its_terms_left_to_right():
    # the built-in `sum` is compensated from Python 3.12, so the expansion
    # names one order: the terms added left to right, 3.11's sum
    rng = np.random.default_rng(7)
    for _ in range(500):
        ch = full_channel(rng, int(rng.integers(2, 6)))
        report = jsd_canonical_asymptotic(ch, int(rng.integers(1, 10**6)), exact=0.0)
        t0, t1, t2 = report.terms
        assert report.asymptotic == (t0 + t1) + t2


def test_jsd_expansion_sums_terms_beyond_the_double_range():
    # chi2 = 8.1e199, so mu3 and chi2^2 overflow and the terms are
    # [1.45e198, -inf, inf]; with 60 digits they are [1.4502711e198,
    # -8.4131449e396, 1.4723004e397], whose sum 6.3098587e396 is beyond the
    # range too, so the expansion is +inf and its residual -inf
    ch = validate_channel([1.231296895499659e-200, 1.0], [1.0, 2.0963634922239936e-300])
    report = jsd_canonical_asymptotic(ch, 7)
    assert report.terms[0] == pytest.approx(1.4502711e198, rel=1e-7)
    assert report.terms[1:] == (-math.inf, math.inf)
    assert report.asymptotic == math.inf and report.residual == -math.inf
    # at n = 1e50 the same two terms still overflow but their sum does not:
    # 3.0918307472623864e298 with 60 digits
    report = jsd_canonical_asymptotic(ch, 10**50, exact=0.0)
    assert report.terms[1:] == (-math.inf, math.inf)
    assert report.asymptotic == pytest.approx(3.0918307472623864e298, rel=1e-12)


def test_leading_divergence_forms():
    n, pi = 50, 0.3
    fisher = fisher_constant(RR3, pi).fisher
    assert leading_divergence(RR3, n, pi, "jsd") == pytest.approx(fisher / (8 * n), rel=1e-12)
    assert leading_divergence(RR3, n, pi, "f", curvature=2.0) == pytest.approx(
        fisher / n, rel=1e-12
    )
    assert leading_divergence(RR3, n, pi, "renyi", order=2.0) == pytest.approx(
        fisher / n, rel=1e-12
    )


def test_leading_chi2_constant_is_exact_at_k0():
    # for the k=0 pair the chi-square leading constant is not asymptotic at
    # all: chi2(alt || null) = I_0 / n holds exactly at every n
    ch = full_channel(np.random.default_rng(23), 3)
    lead = leading_divergence(ch, 9, 0.0, "f", curvature=2.0)
    exact = divergences(lr_atoms(ch, Composition(9, 0))).chi2
    assert exact == pytest.approx(lead, rel=1e-10)


def test_leading_divergence_validation():
    with pytest.raises(ValidationError):
        leading_divergence(RR3, 10, 0.0, "f")
    with pytest.raises(ValidationError):
        leading_divergence(RR3, 10, 0.0, "renyi", order=0.5)
    with pytest.raises(ValidationError):
        leading_divergence(RR3, 10, 0.0, "nope")
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="finite"):
            leading_divergence(RR3, 10, 0.0, "f", curvature=bad)
        with pytest.raises(ValidationError, match="finite"):
            leading_divergence(RR3, 10, 0.0, "renyi", order=bad)


def test_uniform_sharpness_matches_fisher_scaling():
    # 8 n JSD(T_{n,k} || T_{n,k+1}) -> I_{k/n} for proportional compositions
    ch = full_channel(np.random.default_rng(29), 2)
    n = 300
    k = n // 2
    jsd = divergences(lr_atoms(ch, Composition(n, k))).jsd
    fisher = fisher_constant(ch, k / n).fisher
    assert 8 * n * jsd / fisher == pytest.approx(1.0, abs=0.05)
