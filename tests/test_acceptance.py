"""End-to-end acceptance checks, one test per shipped claim.

Each test states its tolerance inline and asserts its own wall-clock
budget, so `pytest -v tests/test_acceptance.py` reads as a checklist.
The asymptotic statements are checked as rate fits or soundness
inequalities; everything exact is checked against independent oracles.
"""

import itertools
import math
import time

import numpy as np

from shuffledp import (
    Composition,
    Hypothesis,
    SimConfig,
    binomial_curve,
    binomial_lr_atoms,
    chernoff_delta,
    divergences,
    fisher_constant,
    frequency_mse,
    gdp_mu,
    jsd_canonical_asymptotic,
    kolmogorov_to_gaussian,
    linearization_residual,
    lr_atoms,
    mm_gdp_compare,
    privacy_curve,
    rate_exponent,
    rr_boundary,
    rr_channel,
    unbundled_lr,
)
from shuffledp.channels import channel_to_json
from shuffledp.cli import DEFAULT_EPS_SPEC, main, parse_eps_grid

from conftest import brute_force_lr, fisher_by_solve, fold_atoms, full_channel

LN2 = math.log(2.0)
LN3 = math.log(3.0)


class _Clock:
    def __init__(self, budget: float):
        self.budget = budget
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.budget, f"over budget: {elapsed:.1f}s >= {self.budget}s"


def test_criterion_01_binomial_matches_generic_enumeration():
    # the generic enumeration is the dense fold of n messages
    clock = _Clock(5.0)
    rng = np.random.default_rng(101)
    channels = [rr_channel(LN3), full_channel(rng, 2), full_channel(np.random.default_rng(202), 2)]
    eps = parse_eps_grid(DEFAULT_EPS_SPEC)
    for ch in channels:
        for n in range(1, 21):
            exact = privacy_curve(fold_atoms(ch, Composition(n, 0)), eps).delta
            fast = binomial_curve(ch, n, eps).delta
            assert np.max(np.abs(exact - fast)) <= 1e-12
    anchors = privacy_curve(
        lr_atoms(rr_channel(LN3), Composition(2, 0)), np.array([0.0, LN2, LN3])
    ).delta
    np.testing.assert_allclose(anchors, [3 / 8, 1 / 16, 0.0], atol=1e-15)
    clock.check()


def test_criterion_02_fisher_routes_agree():
    clock = _Clock(1.0)
    rng = np.random.default_rng(7)
    pis = (0.0, 0.1, 0.5, 0.9, 1.0)
    for i in range(100):
        ch = full_channel(rng, (2, 3, 4)[i % 3])
        for pi in pis:
            direct = fisher_constant(ch, pi).fisher
            via = fisher_by_solve(ch, pi)[0]
            assert abs(direct - via) <= 1e-9 * (1.0 + direct)
    rr3 = rr_channel(LN3)
    assert abs(fisher_constant(rr3, 0.0).fisher - 4 / 3) <= 1e-12
    assert abs(fisher_constant(rr3, 0.5).fisher - 4 / 3) <= 1e-12
    clock.check()


def test_criterion_03_jsd_expansion_remainder_is_third_order():
    clock = _Clock(10.0)
    coeffs = []
    for n in (50, 100, 200):
        rep = jsd_canonical_asymptotic(rr_channel(LN3), n)
        assert rep.exact is not None and rep.residual is not None
        coeffs.append(n**3 * abs(rep.residual))
    assert max(coeffs) <= 3.0 * min(coeffs), coeffs
    clock.check()


def test_criterion_04_proportional_jsd_constant():
    clock = _Clock(30.0)
    ch = full_channel(np.random.default_rng(4), 2)
    errs = {}
    for n in (200, 400):
        k = n // 2
        jsd = divergences(lr_atoms(ch, Composition(n, k))).jsd
        fisher = fisher_constant(ch, k / n).fisher
        errs[n] = abs(8.0 * n * jsd / fisher - 1.0)
    assert errs[200] <= 0.1, errs
    assert errs[400] < errs[200], errs
    clock.check()


def test_criterion_05_gaussian_rate_for_canonical_pair():
    clock = _Clock(60.0)
    ch = rr_channel(1.0)
    ns = (400, 1600, 6400)
    distances = {hyp: [] for hyp in Hypothesis}
    for n in ns:
        atoms = binomial_lr_atoms(ch, n)
        mu = gdp_mu(ch, n).mu
        for hyp in Hypothesis:
            distances[hyp].append((n, kolmogorov_to_gaussian(atoms, mu, hyp)))
    for hyp, points in distances.items():
        slope = rate_exponent(points)
        assert -0.75 <= slope <= -0.35, (hyp, slope, points)
    clock.check()


def test_criterion_06_chernoff_is_sound_and_tight_at_eps0():
    clock = _Clock(5.0)
    for eps0 in (0.5, LN3):
        ch = rr_channel(eps0)
        grid = np.linspace(0.0, 1.25 * eps0, 20)
        for n in range(2, 31):
            exact = binomial_curve(ch, n, grid).delta
            for eps, delta in zip(grid, exact):
                bound = chernoff_delta(ch, n, eps).bound
                assert bound >= delta - 1e-12
                if eps >= eps0:
                    assert bound == 0.0
            assert chernoff_delta(ch, n, eps0).bound == 0.0
    clock.check()


def test_criterion_07_unbundled_lr_matches_brute_force():
    clock = _Clock(5.0)
    rng = np.random.default_rng(77)
    channels = [rr_channel(LN3)] + [full_channel(rng, (2, 3, 4)[i % 3]) for i in range(9)]
    for ch in channels:
        d = ch.W0.size
        for m in (1, 2, 3):
            for n in range(1, 8 // m + 1):
                total = n * m
                for hist in itertools.combinations_with_replacement(range(d), total):
                    counts = tuple(hist.count(y) for y in range(d))
                    got = unbundled_lr(ch, n, m, counts)
                    ref = brute_force_lr(ch, n, m, counts)
                    assert abs(got - ref) <= 1e-10
    rr3 = rr_channel(LN3)
    assert abs(unbundled_lr(rr3, 2, 2, (4, 0)) - 1 / 9) <= 1e-12
    assert abs(unbundled_lr(rr3, 2, 2, (2, 2)) - 59 / 27) <= 1e-12
    clock.check()


def test_criterion_08_unbundling_strictly_beats_bundling():
    clock = _Clock(1.0)
    rng = np.random.default_rng(88)
    for i in range(50):
        ch = full_channel(rng, (2, 3, 4)[i % 3])
        for m in (2, 3, 4):
            cmp = mm_gdp_compare(ch, m)
            assert cmp.unbundled_mu2n < cmp.bundled_mu2n
            assert cmp.ratio >= cmp.ratio_lower_bound - 1e-12
    anchor = mm_gdp_compare(rr_channel(LN3), 2)
    assert abs(anchor.ratio - 5 / 3) <= 1e-12
    assert abs(anchor.ratio_lower_bound - 5 / 3) <= 1e-12
    clock.check()


def test_criterion_09_boundary_scaling_and_inequalities():
    clock = _Clock(60.0)
    ns = (400, 1600, 6400)
    distances = {hyp: [] for hyp in Hypothesis}
    for n in ns:
        eps0 = 0.5 * math.log(n)  # a_n = e^{eps0}/n = n^{-1/2}
        ch = rr_channel(eps0)
        atoms = binomial_lr_atoms(ch, n)
        mu = gdp_mu(ch, n).mu
        for hyp in Hypothesis:
            distances[hyp].append((n, kolmogorov_to_gaussian(atoms, mu, hyp)))
    for hyp, points in distances.items():
        slope = rate_exponent(points)
        assert -0.45 <= slope <= -0.10, (hyp, slope, points)
    for eps0 in np.linspace(0.0, 6.0, 13):
        for n in (10, 100, 1000):
            b = rr_boundary(rr_channel(float(eps0)), n)
            assert b.lyapunov_ratio * math.sqrt(n) <= b.skew_bound + 1e-12
            assert b.lyapunov_ratio <= b.lyapunov_bound + 1e-12
    clock.check()


def test_criterion_10_frequency_estimator_mse_and_bias():
    clock = _Clock(10.0)
    for i, p in enumerate((0.0, 0.5, 1.0)):
        rep = frequency_mse(rr_channel(LN3), 100, p, SimConfig(seed=10 + i, reps=100_000))
        assert rep.mse_bound == 0.01
        assert rep.mse_estimate <= rep.mse_bound * 1.05
        assert abs(rep.bias) <= 4.0 * rep.bias_se
    clock.check()


def test_criterion_11_linearization_residual_decays():
    clock = _Clock(30.0)
    channels = [rr_channel(LN3), full_channel(np.random.default_rng(2), 3)]
    for ch in channels:
        res = {
            n: linearization_residual(ch, Composition(n, n // 2), window_mult=0.8).max_abs
            for n in (8, 16)
        }
        assert res[16] <= 0.8 * res[8], res
    clock.check()


def test_criterion_12_simulation_is_worker_deterministic(tmp_path):
    clock = _Clock(10.0)
    channel_file = tmp_path / "rr3.json"
    channel_file.write_text(channel_to_json(rr_channel(LN3)))
    outputs = {}
    for workers in (1, 4):
        out = tmp_path / f"w{workers}.csv"
        code = main(
            ["simulate", "--channel", str(channel_file), "--n", "50", "--k", "0",
             "--seed", "9", "--reps", "200000", "--workers", str(workers),
             "--out", str(out)]
        )
        assert code == 0
        outputs[workers] = out.read_bytes()
    assert outputs[1] == outputs[4]
    clock.check()
