import math

import numpy as np
import pytest

from shuffledp import (
    Composition,
    EnumerationCapError,
    Hypothesis,
    InternalInvariantError,
    Regime,
    SimConfig,
    ValidationError,
    binomial_lr_atoms,
    dkw_radius,
    frequency_mse,
    gdp_mu,
    kolmogorov_to_gaussian,
    rate_exponent,
    rr_boundary,
    rr_channel,
    sample_privacy_loss,
    validate_channel,
)

RR3 = rr_channel(math.log(3.0))


def test_sim_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(seed="abc", reps=10)
    with pytest.raises(ValidationError):
        SimConfig(seed=1, reps=-1)
    with pytest.raises(ValidationError):
        SimConfig(seed=1, reps=10, workers=0)


def test_samples_independent_of_workers():
    comp = Composition(40, 0)
    runs = [
        sample_privacy_loss(RR3, comp, Hypothesis.NULL, SimConfig(seed=5, reps=3000, workers=w))
        for w in (1, 2, 5)
    ]
    assert np.array_equal(runs[0], runs[1])
    assert np.array_equal(runs[0], runs[2])


def test_samples_are_draw_indexed():
    # shorter runs are exact prefixes of longer ones with the same seed
    comp = Composition(25, 3)
    long = sample_privacy_loss(RR3, comp, Hypothesis.NULL, SimConfig(seed=9, reps=2000))
    short = sample_privacy_loss(RR3, comp, Hypothesis.NULL, SimConfig(seed=9, reps=300))
    assert np.array_equal(long[:300], short)


def test_samples_differ_across_seeds():
    comp = Composition(20, 0)
    a = sample_privacy_loss(RR3, comp, Hypothesis.NULL, SimConfig(seed=1, reps=500))
    b = sample_privacy_loss(RR3, comp, Hypothesis.NULL, SimConfig(seed=2, reps=500))
    assert not np.array_equal(a, b)


def test_martingale_mean_under_null():
    lam = sample_privacy_loss(RR3, Composition(60, 0), Hypothesis.NULL, SimConfig(seed=11, reps=40000, workers=2))
    lr = np.exp(lam)
    se = lr.std(ddof=1) / math.sqrt(lr.size)
    assert lr.mean() == pytest.approx(1.0, abs=4 * se)


def test_inverse_martingale_under_alt():
    lam = sample_privacy_loss(RR3, Composition(15, 6), Hypothesis.ALT, SimConfig(seed=13, reps=20000))
    inv = np.exp(-lam)
    se = inv.std(ddof=1) / math.sqrt(inv.size)
    assert inv.mean() == pytest.approx(1.0, abs=4 * se)


def test_sampled_values_live_on_the_atom_set():
    # k = 0 samples must reproduce atoms of the exact binomial atomization
    atoms = binomial_lr_atoms(RR3, 30)
    lam = sample_privacy_loss(RR3, Composition(30, 0), Hypothesis.NULL, SimConfig(seed=17, reps=2000))
    dist = np.abs(np.exp(lam)[:, None] - atoms.lr[None, :]).min(axis=1)
    assert dist.max() < 1e-10


def test_sampling_validation_and_cap():
    singular = validate_channel([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValidationError):
        sample_privacy_loss(singular, Composition(5, 0), Hypothesis.NULL, SimConfig(seed=0, reps=10))
    with pytest.raises(ValidationError):
        sample_privacy_loss(RR3, Composition(5, 5), Hypothesis.NULL, SimConfig(seed=0, reps=10))
    with pytest.raises(EnumerationCapError):
        sample_privacy_loss(RR3, Composition(300, 2), Hypothesis.NULL, SimConfig(seed=0, reps=10), cap=50)


def test_sampling_raises_on_a_histogram_missing_from_the_table(monkeypatch):
    from shuffledp import montecarlo

    real = montecarlo._pair_table

    def without_modal_cell(*args):
        counts, p_null, p_alt, dropped = real(*args)
        keep = np.arange(p_null.size) != np.argmax(p_null)
        return counts[keep], p_null[keep], p_alt[keep], dropped

    monkeypatch.setattr(montecarlo, "_pair_table", without_modal_cell)
    with pytest.raises(InternalInvariantError, match="underflowed"):
        sample_privacy_loss(RR3, Composition(8, 3), Hypothesis.NULL, SimConfig(seed=0, reps=200))


def test_kolmogorov_exact_atoms_oracle():
    ch = rr_channel(1.0)
    mu = gdp_mu(ch, 400).mu
    atoms = binomial_lr_atoms(ch, 400)
    assert kolmogorov_to_gaussian(atoms, mu, Hypothesis.NULL) == pytest.approx(
        0.029366420938779725, abs=1e-9
    )
    assert kolmogorov_to_gaussian(atoms, mu, Hypothesis.ALT) == pytest.approx(
        0.029406969553530338, abs=1e-9
    )


def test_kolmogorov_empirical_near_exact():
    ch = rr_channel(1.0)
    mu = gdp_mu(ch, 200).mu
    exact = kolmogorov_to_gaussian(binomial_lr_atoms(ch, 200), mu, Hypothesis.NULL)
    lam = sample_privacy_loss(ch, Composition(200, 0), Hypothesis.NULL, SimConfig(seed=19, reps=40000, workers=4))
    emp = kolmogorov_to_gaussian(lam, mu, Hypothesis.NULL)
    assert abs(emp - exact) < 2 * dkw_radius(40000)


def test_kolmogorov_validation():
    with pytest.raises(ValidationError):
        kolmogorov_to_gaussian(np.array([0.1, 0.2]), 0.0, Hypothesis.NULL)
    with pytest.raises(ValidationError):
        kolmogorov_to_gaussian(np.array([]), 1.0, Hypothesis.NULL)


def test_dkw_radius():
    assert dkw_radius(2000, 0.05) == pytest.approx(
        math.sqrt(math.log(40.0) / 4000.0), rel=1e-12
    )
    with pytest.raises(ValidationError):
        dkw_radius(0)
    with pytest.raises(ValidationError):
        dkw_radius(100, 1.5)


def test_rate_exponent_recovers_power_law():
    pts = [(n, 3.7 * n**-0.5) for n in (100, 400, 1600, 6400)]
    assert rate_exponent(pts) == pytest.approx(-0.5, abs=1e-10)


def test_rate_exponent_validation():
    with pytest.raises(ValidationError):
        rate_exponent([(100, 1.0), (200, 0.5)])
    with pytest.raises(ValidationError):
        rate_exponent([(100, 1.0), (100, 0.5), (200, 0.2)])
    with pytest.raises(ValidationError):
        rate_exponent([(100, 1.0), (200, -0.5), (400, 0.2)])


def test_rr_boundary_moments_rr3():
    b = rr_boundary(math.log(3.0), 100)
    assert b.q == pytest.approx(0.25, rel=1e-12)
    assert b.a_n == pytest.approx(0.03, rel=1e-12)
    assert b.sigma2 == pytest.approx(4 / 3, rel=1e-12)
    assert b.rho3 == pytest.approx(20 / 9, rel=1e-12)
    assert b.x_plus == pytest.approx(2.0, rel=1e-12)
    assert b.x_minus == pytest.approx(-2 / 3, rel=1e-12)
    assert b.regime is Regime.SUB_CRITICAL


def test_rr_boundary_regimes():
    assert rr_boundary(math.log(3.0), 1).regime is Regime.CRITICAL  # a = 3
    assert rr_boundary(5.0, 10).regime is Regime.SUPER_CRITICAL  # a = 14.8
    assert rr_boundary(0.5, 10000).regime is Regime.SUB_CRITICAL


def test_rr_boundary_inequalities():
    for eps0 in (0.25, 1.0, math.log(3.0), 3.0):
        for n in (10, 100, 10000):
            b = rr_boundary(eps0, n)
            assert b.lyapunov_ratio <= b.lyapunov_bound + 1e-12
            assert b.lyapunov_ratio * math.sqrt(n) <= b.skew_bound + 1e-12


def test_rr_boundary_degenerate_and_validation():
    b = rr_boundary(0.0, 50)
    assert b.sigma2 == 0.0 and b.lyapunov_ratio == 0.0
    with pytest.raises(ValidationError):
        rr_boundary(-0.5, 10)
    with pytest.raises(ValidationError):
        rr_boundary(1.0, 0)
    with pytest.raises(ValidationError):
        rr_boundary(1.0, 10, sub_threshold=5.0, super_threshold=1.0)


def test_frequency_mse_within_bound():
    rep = frequency_mse(math.log(3.0), 100, 0.5, SimConfig(seed=23, reps=50000))
    assert rep.mse_bound == pytest.approx(0.01, rel=1e-12)
    assert rep.mse_estimate <= rep.mse_bound * 1.05
    assert abs(rep.bias) <= 4 * rep.bias_se
    assert rep.p_realized == 0.5


def test_frequency_mse_rounding_and_endpoints():
    rep = frequency_mse(math.log(3.0), 10, 0.33, SimConfig(seed=1, reps=2000))
    assert rep.p_realized == pytest.approx(0.3)
    for p in (0.0, 1.0):
        rep = frequency_mse(math.log(3.0), 50, p, SimConfig(seed=2, reps=5000))
        assert abs(rep.bias) <= 4 * rep.bias_se


def test_frequency_mse_validation():
    cfg = SimConfig(seed=0, reps=100)
    with pytest.raises(ValidationError):
        frequency_mse(0.0, 100, 0.5, cfg)  # estimator divides by 1 - 2q = 0
    with pytest.raises(ValidationError):
        frequency_mse(1.0, 100, 1.5, cfg)
    with pytest.raises(ValidationError):
        frequency_mse(1.0, 0, 0.5, cfg)
    with pytest.raises(ValidationError):
        frequency_mse(1.0, 100, 0.5, SimConfig(seed=0, reps=0))
