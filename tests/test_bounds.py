import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shuffledp import (
    Composition,
    ValidationError,
    binomial_curve,
    chernoff_delta,
    lr_atoms,
    privacy_curve,
    rr_channel,
    unbundled_exact_curve,
    unbundled_hoeffding_delta,
)
from conftest import full_channel

RR3 = rr_channel(math.log(3.0))


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
    for e, x in zip(eps, exact):
        assert chernoff_delta(ch, n, float(e)).bound >= x - 1e-12


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
    exact = unbundled_exact_curve(RR3, 3, 2, eps).delta
    for e, x in zip(eps, exact):
        assert unbundled_hoeffding_delta(RR3, 3, 2, e) >= x - 1e-12


def test_hoeffding_validation():
    with pytest.raises(ValidationError):
        unbundled_hoeffding_delta(RR3, 0, 1, 0.5)
    with pytest.raises(ValidationError):
        unbundled_hoeffding_delta(RR3, 5, 0, 0.5)
    with pytest.raises(ValidationError):
        unbundled_hoeffding_delta(RR3, 5, 1, -1.0)
    with pytest.raises(ValidationError):
        unbundled_hoeffding_delta(RR3, 5, 1, math.nan)
