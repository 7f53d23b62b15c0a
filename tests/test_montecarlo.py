import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from statistics import NormalDist

import numpy as np
import pytest

import shuffledp
from shuffledp import (
    Composition,
    EnumerationCapError,
    Hypothesis,
    InternalInvariantError,
    Regime,
    SimConfig,
    ValidationError,
    binomial_lr_atoms,
    conditional_score,
    dkw_radius,
    frequency_mse,
    gdp_mu,
    kolmogorov_to_gaussian,
    lr_atoms,
    rate_exponent,
    rr_boundary,
    rr_channel,
    sample_privacy_loss,
    validate_channel,
)
from shuffledp.channels import score_stats
from shuffledp.exact_dist import DEFAULT_ATOM_CAP, MIN_NULL_MASS, _base_law, _fold
from shuffledp.montecarlo import _BLOCK, _below, _run_blocks

from conftest import full_channel

RR3 = rr_channel(math.log(3.0))


# ---------------------------------------------------------------------------
# reference sampler: float uniforms, searchsorted and the clamp

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _ref_mix64(x):
    x = (x ^ (x >> np.uint64(30))) * _M1
    x = (x ^ (x >> np.uint64(27))) * _M2
    return x ^ (x >> np.uint64(31))


def _ref_uniforms(seed, reps, n):
    """Uniform[0,1) matrix (reps, n): entry (g, j) hashes (seed, draw g, step j)."""
    x = (seed ^ 0x5DEECE66D) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    sw = np.uint64(x ^ (x >> 31))
    g = np.arange(reps, dtype=np.uint64)
    j = np.arange(n, dtype=np.uint64)
    h = _ref_mix64(_ref_mix64(g * _GOLDEN + sw)[:, None] ^ _ref_mix64(j * _M2 + _GOLDEN)[None, :])
    return (h >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _ref_histograms(channel, comp, hypothesis, seed, reps):
    """The (reps, d) message histograms of the draws, input-0 users first."""
    n, d = comp.n, channel.d
    ones = comp.k + (1 if hypothesis is Hypothesis.ALT else 0)
    u = _ref_uniforms(seed, reps, n)
    sym = np.empty((reps, n), dtype=np.int64)
    for cols, W in ((np.s_[:, : n - ones], channel.W0), (np.s_[:, n - ones :], channel.W1)):
        sym[cols] = np.minimum(np.searchsorted(np.cumsum(W), u[cols], side="right"), d - 1)
    return np.stack([(sym == y).sum(axis=1) for y in range(d)], axis=1)


def _ref_sample(channel, comp, hypothesis, seed, reps):
    n, k = comp.n, comp.k
    counts = _ref_histograms(channel, comp, hypothesis, seed, reps)
    if k == 0:
        # the atoms' sum: symbols by decreasing W0 (stable), the last added first
        w, lr = score_stats(channel).w, np.zeros(reps)
        for y in np.argsort(-channel.W0, kind="stable")[::-1]:
            lr = lr + (counts[:, y] / n) * w[y]
        with np.errstate(divide="ignore"):
            return np.log(lr)
    null = _base_law(channel, n - 1 - k, k, 1, DEFAULT_ATOM_CAP)[0]
    alt = null.copy()
    _fold(alt, n - 1, [channel.W1])
    _fold(null, n - 1, [channel.W0])
    lam = np.full(null.shape, np.nan)
    keep = null >= MIN_NULL_MASS
    with np.errstate(divide="ignore"):
        lam[keep] = np.log(alt[keep] / null[keep])
    return lam[tuple(counts[:, :-1].T)]


def _ref_frequency_mse(eps0, n, p_true, seed, reps):
    n_ones = int(math.floor(p_true * n + 0.5))
    q = 1.0 / (1.0 + math.exp(eps0))
    flips = _ref_uniforms(seed, reps, n) < q
    k_reported = flips[:, : n - n_ones].sum(axis=1) + (~flips[:, n - n_ones :]).sum(axis=1)
    errors = (k_reported / n - q) / (1.0 - 2.0 * q) - n_ones / n
    return (
        float(np.mean(errors**2)),
        float(np.mean(errors)),
        float(np.std(errors, ddof=1) / math.sqrt(reps)) if reps > 1 else math.inf,
    )


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


# the cumulative laws reach 1.0 before the last symbol: "symbol <= 1" always holds
ROUNDS_TO_ONE = validate_channel([0.5, 0.5, 1e-17], [0.25, 0.75, 1e-17])
# W1 never sends symbol 0, so a k = 0 histogram of symbol 0 only has ratio 0
NO_ZERO_IN_W1 = validate_channel([0.2, 0.3, 0.5], [0.0, 0.6, 0.4])


def _channel(name, d):
    if name == "random":
        return full_channel(np.random.default_rng(100 + d), d)
    return {"rounds-to-one": ROUNDS_TO_ONE, "no-zero-in-w1": NO_ZERO_IN_W1}[name]


# (channel, d, n, k); reps exceed one block and are no multiple of it
SAMPLER_CASES = (
    [("random", d, n, 0) for d in (2, 3, 4, 5) for n in (1, 47, 190, 70_000)]
    + [("random", d, n, k) for d, n, k in ((2, 47, 20), (2, 190, 70), (3, 47, 46), (3, 190, 70), (4, 47, 20), (5, 20, 7))]
    + [("rounds-to-one", 3, 190, 0), ("rounds-to-one", 3, 190, 70)]
    + [("no-zero-in-w1", 3, 1, 0), ("no-zero-in-w1", 3, 47, 0), ("no-zero-in-w1", 3, 47, 20)]
)


def _reps(n):
    return max(1, _BLOCK // n) * 2 + 7 if n <= 190 else 3


@pytest.mark.parametrize("hypothesis", list(Hypothesis))
@pytest.mark.parametrize("name,d,n,k", SAMPLER_CASES)
def test_samples_match_the_float_reference_bit_for_bit(name, d, n, k, hypothesis):
    channel = _channel(name, d)
    comp = Composition(n, k)
    want = _bits(_ref_sample(channel, comp, hypothesis, 29, _reps(n)))
    for workers in (1, 2, 3):
        got = sample_privacy_loss(channel, comp, hypothesis, SimConfig(seed=29, reps=_reps(n), workers=workers))
        assert np.array_equal(_bits(got), want), workers


@pytest.mark.parametrize(
    "c", [0.0, 5e-324, 1e-300, 0.1, 1.0 / 3.0, 0.5, 0.7, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52]
)
def test_threshold_word_agrees_with_the_float_compare_at_the_boundary(c):
    # random words almost never land next to the threshold, so check the
    # words with m = h >> 11 at T - 1 and T (T = ceil(c 2^53)), with the low
    # 11 bits all clear and all set, plus the smallest and largest words
    limit = _below(c)
    t = math.ceil(c * 2.0**53)
    ms = [m for m in (0, t - 1, t, 2**53 - 1) if 0 <= m < 2**53]
    for m in ms:
        for low in (0, 2**11 - 1):
            h = np.uint64((m << 11) | low)
            want = float(h >> np.uint64(11)) * 2.0**-53 < c
            assert (True if limit is None else bool(h < limit)) == want, (m, low)


def test_reference_cases_reach_both_threshold_branches():
    # "symbol <= y" always holds once the cumulative law rounds to 1.0
    assert _below(float(np.cumsum(ROUNDS_TO_ONE.W0)[1])) is None
    assert _below(float(np.cumsum(ROUNDS_TO_ONE.W1)[1])) is None
    assert _below(float(np.cumsum(NO_ZERO_IN_W1.W1)[0])) == 0
    lam = sample_privacy_loss(NO_ZERO_IN_W1, Composition(1, 0), Hypothesis.NULL, SimConfig(seed=29, reps=_reps(1)))
    assert np.isneginf(lam).any() and np.isfinite(lam).any()


@pytest.mark.parametrize(
    "eps0,n,p_true", [(1.1, 1, 1.0), (math.log(3.0), 47, 0.33), (0.3, 190, 0.0), (2.0, 70_000, 0.2)]
)
def test_frequency_mse_matches_the_float_reference_bit_for_bit(eps0, n, p_true):
    want = _ref_frequency_mse(eps0, n, p_true, 31, _reps(n))
    for workers in (1, 2, 3):
        rep = frequency_mse(eps0, n, p_true, SimConfig(seed=31, reps=_reps(n), workers=workers))
        assert (rep.mse_estimate, rep.bias, rep.bias_se) == want, workers


@pytest.mark.parametrize(
    "channel,comp",
    [(full_channel(np.random.default_rng(8), 3), Composition(190, 70)), (RR3, Composition(1900, 0))],
    ids=["d3-n190-k70", "d2-n1900-k0"],
)
def test_sampler_working_set_is_bounded(channel, comp):
    # the sampler keeps a few O(max(n, _BLOCK))-word buffers per worker, not
    # the reps x n draw matrix; the returned array and the k > 0 ratio table
    # are the only allocations that grow with reps or with the law
    config = SimConfig(seed=3, reps=10_000, workers=2)
    sample_privacy_loss(channel, comp, Hypothesis.NULL, config)  # imports the thread pool
    tracemalloc.start()
    try:
        lam = sample_privacy_loss(channel, comp, Hypothesis.NULL, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = 8 * (comp.n + 1) ** (channel.d - 1) if comp.k > 0 else 0
    assert peak - lam.nbytes - table < 8e6


def test_k0_sampling_raises_on_a_nan_ratio(monkeypatch):
    # the k = 0 ratio is the atoms' rule in exact_dist; a NaN there meets the
    # sampler's one check
    from shuffledp import exact_dist

    real = exact_dist.score_stats

    def nan_ratio(channel):
        stats = real(channel)
        return dataclasses.replace(stats, w=np.append(np.nan, stats.w[1:]))

    monkeypatch.setattr(exact_dist, "score_stats", nan_ratio)
    with pytest.raises(InternalInvariantError, match="null mass underflowed"):
        sample_privacy_loss(RR3, Composition(8, 0), Hypothesis.NULL, SimConfig(seed=0, reps=200))


def test_import_loads_neither_the_thread_pool_nor_logging():
    code = (
        "import sys, shuffledp as s\n"
        "s.sample_privacy_loss(s.rr_channel(1.0), s.Composition(30, 0), s.Hypothesis.NULL,"
        " s.SimConfig(seed=1, reps=100))\n"
        "print(sorted(m for m in sys.modules if m == 'logging' or m.startswith('concurrent')))"
    )
    src = os.path.dirname(os.path.dirname(shuffledp.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"


def test_sim_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(seed="abc", reps=10)
    with pytest.raises(ValidationError):
        SimConfig(seed=1, reps=-1)
    with pytest.raises(ValidationError):
        SimConfig(seed=1, reps=10, workers=0)
    for bad in (
        {"reps": math.nan},
        {"reps": 2.5},
        {"workers": 1.5},
        {"workers": True},
        {"seed": True},
        {"seed": 1.0},
    ):
        with pytest.raises(ValidationError):
            SimConfig(**{"seed": 1, "reps": 10, **bad})


def test_sim_config_takes_numpy_integers_as_python_ints():
    config = SimConfig(seed=np.int64(3), reps=np.int32(500), workers=np.int64(2))
    assert (config.seed, config.reps, config.workers) == (3, 500, 2)
    assert all(type(v) is int for v in (config.seed, config.reps, config.workers))
    comp = Composition(40, 7)
    assert np.array_equal(
        sample_privacy_loss(RR3, comp, Hypothesis.ALT, config),
        sample_privacy_loss(RR3, comp, Hypothesis.ALT, SimConfig(seed=3, reps=500)),
    )


def test_samples_independent_of_workers():
    comp = Composition(40, 0)
    runs = [
        sample_privacy_loss(RR3, comp, Hypothesis.NULL, SimConfig(seed=5, reps=3000, workers=w))
        for w in (1, 2, 5)
    ]
    assert np.array_equal(runs[0], runs[1])
    assert np.array_equal(runs[0], runs[2])


def test_samples_independent_of_workers_when_a_worker_gets_one_draw():
    # reps = 3 over 2 workers leaves a one-draw range; numpy rounds a one-row
    # matmul differently, so k = 0 ratios must come from one product over all draws
    ch = validate_channel([0.5, 0.3, 0.2], [0.22, 0.33, 0.45])
    for seed in range(100):
        runs = [
            sample_privacy_loss(ch, Composition(190, 0), Hypothesis.NULL, SimConfig(seed=seed, reps=3, workers=w))
            for w in (1, 2, 3)
        ]
        assert np.array_equal(runs[0], runs[1]) and np.array_equal(runs[0], runs[2]), seed


def test_a_worker_exception_reaches_the_caller():
    # ranges 3..5 and 6..9 both raise on their pool threads: every range runs
    # to its end, and the caller gets the first error in range order
    seen = []

    def block(start, stop):
        seen.append((start, stop))
        if start > 0:
            raise ValueError(f"range from {start}")

    with pytest.raises(ValueError, match="range from 3"):
        _run_blocks(10, 3, block)
    assert sorted(seen) == [(0, 3), (3, 6), (6, 10)]


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


@pytest.mark.parametrize("hypothesis", list(Hypothesis))
@pytest.mark.parametrize("d, n", [(2, 47), (3, 30), (4, 20), (5, 12)])
def test_sampled_values_live_on_the_atom_set(d, n, hypothesis):
    # every k = 0 sample is the log of one of the atoms' ratios, exactly,
    # at any worker count
    for seed in range(3):
        channel = full_channel(np.random.default_rng(300 + 10 * d + seed), d)
        atoms = np.log(lr_atoms(channel, Composition(n, 0)).lr)
        for workers in (1, 3):
            lam = sample_privacy_loss(channel, Composition(n, 0), hypothesis, SimConfig(seed=17, reps=3000, workers=workers))
            assert np.isin(lam, atoms).all(), (seed, workers)


def test_sampling_validation_and_cap():
    singular = validate_channel([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValidationError):
        sample_privacy_loss(singular, Composition(5, 0), Hypothesis.NULL, SimConfig(seed=0, reps=10))
    with pytest.raises(ValidationError):
        sample_privacy_loss(RR3, Composition(5, 5), Hypothesis.NULL, SimConfig(seed=0, reps=10))
    with pytest.raises(EnumerationCapError):
        sample_privacy_loss(RR3, Composition(300, 2), Hypothesis.NULL, SimConfig(seed=0, reps=10), cap=50)


@pytest.mark.parametrize("hypothesis", list(Hypothesis))
def test_sampling_refuses_alt_mass_on_underflowed_cells(hypothesis):
    # at n = 3, k = 1 the alt law puts 0.096 on the cell (1, 2), whose null
    # mass 6e-309 is subnormal: the pair is refused as the atoms refuse it,
    # whichever law is sampled
    ch = validate_channel([1.0, 1e-308], [0.6901211876677521, 0.30987881233224784])
    with pytest.raises(ValidationError, match="the alt law puts mass 0.0960"):
        lr_atoms(ch, Composition(3, 1))
    with pytest.raises(ValidationError, match="the alt law puts mass 0.0960"):
        sample_privacy_loss(ch, Composition(3, 1), hypothesis, SimConfig(seed=0, reps=50))


def test_sampling_raises_on_a_histogram_missing_from_the_table(monkeypatch):
    from shuffledp import montecarlo

    real = montecarlo._ratio_table

    def without_modal_cell(*args):
        null, ratio = real(*args)
        ratio.ravel()[np.argmax(null)] = np.nan
        return null, ratio

    monkeypatch.setattr(montecarlo, "_ratio_table", without_modal_cell)
    with pytest.raises(InternalInvariantError, match="underflowed"):
        sample_privacy_loss(RR3, Composition(8, 3), Hypothesis.NULL, SimConfig(seed=0, reps=200))


@pytest.mark.parametrize("d, n, k", [(2, 60, 20), (3, 30, 11), (4, 14, 5), (3, 190, 70)])
@pytest.mark.parametrize("hypothesis", list(Hypothesis))
def test_sampled_losses_are_the_log_of_the_conditional_score(d, n, k, hypothesis):
    # the sampler's table and conditional_score read the same pair ratio, at
    # every histogram drawn (the reference sampler recovers the histograms)
    ch = full_channel(np.random.default_rng(200 + d), d)
    comp = Composition(n, k)
    lam = sample_privacy_loss(ch, comp, hypothesis, SimConfig(seed=41, reps=300))
    hists = _ref_histograms(ch, comp, hypothesis, 41, 300)
    scores = conditional_score(ch, comp, hists)
    eps = np.finfo(np.float64).eps
    np.testing.assert_allclose(lam, np.log1p(scores), rtol=4 * eps, atol=4 * eps)


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
        kolmogorov_to_gaussian(np.array([0.1, 0.2]), math.nan, Hypothesis.NULL)
    with pytest.raises(ValidationError):
        kolmogorov_to_gaussian(np.array([]), 1.0, Hypothesis.NULL)


def test_kolmogorov_refuses_an_infinite_shift_and_nan_samples():
    # mu = inf passed the mu > 0 test and gave NaN (with a RuntimeWarning) on
    # samples and on atoms alike, as did mu = 1e300 (mu^2/2 = inf) on a
    # sampled log 0 = -inf; a NaN sample gave NaN too
    atoms = binomial_lr_atoms(rr_channel(1.0), 50)
    for data in (np.array([-math.inf, 0.0, 1.0]), atoms):
        for hypothesis in Hypothesis:
            for mu in (math.inf, 1e300):
                with pytest.raises(ValidationError, match="mu must be positive with mu\\^2/2 finite"):
                    kolmogorov_to_gaussian(data, mu, hypothesis)
    with pytest.raises(ValidationError, match="NaN"):
        kolmogorov_to_gaussian(np.array([0.0, math.nan, 1.0]), 1.0, Hypothesis.NULL)


def test_kolmogorov_keeps_the_sampled_log_zero():
    # a ratio of 0 samples log 0 = -inf, which has t = -inf
    samples = np.array([-math.inf, 0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # t = -inf, 0.5, 1.5: the largest gap is Phi(0.5) - 1/3, below t = 0.5
        assert kolmogorov_to_gaussian(samples, 1.0, Hypothesis.NULL) == pytest.approx(
            NormalDist().cdf(0.5) - 1.0 / 3.0, rel=1e-12
        )
        # t = -inf, 0, inf: a subnormal mu sends each nonzero loss to +-inf
        assert kolmogorov_to_gaussian(samples, 5e-324, Hypothesis.ALT) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_dkw_radius():
    assert dkw_radius(2000, 0.05) == pytest.approx(
        math.sqrt(math.log(40.0) / 4000.0), rel=1e-12
    )
    with pytest.raises(ValidationError):
        dkw_radius(0)
    with pytest.raises(ValidationError):
        dkw_radius(100, 1.5)
    for reps in (math.nan, 2.5, True):
        with pytest.raises(ValidationError):
            dkw_radius(reps)


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
    for bad in ((math.nan, 0.5), (math.inf, 0.5), (200, math.nan), (200, math.inf)):
        with pytest.raises(ValidationError, match="finite"):
            rate_exponent([(100, 1.0), bad, (400, 0.25)])


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


def test_rr_boundary_beyond_the_cube_range():
    # eps0 = 460.3 (the rr channel W0 = [1.231296895499659e-200, 1] read by
    # `report`): (e^eps0 - 1)^3 is beyond the double range and so is rho3,
    # about 6.6e399, while sigma2 and the Lyapunov ratio are finite (50 digits)
    b = rr_boundary(460.3089505983148, 7)
    assert b.sigma2 == pytest.approx(8.1215180810976474e199, rel=1e-12)
    assert b.lyapunov_ratio == pytest.approx(3.4061956325616932e99, rel=1e-12)
    assert b.rho3 == math.inf
    # below e^eps0 ~ 1.3e154 only the cube overflows, and rho3 is finite
    b = rr_boundary(300.0, 3)
    assert b.rho3 == pytest.approx(3.7730203009299398e260, rel=1e-12)
    assert b.lyapunov_ratio == pytest.approx(8.0465860156989476e64, rel=1e-12)


def test_rr_boundary_refuses_eps0_beyond_the_double_range():
    # e^eps0 overflows above log(DBL_MAX) ~ 709.78, as in `gdp_delta`; at
    # 720 it was an uncaught OverflowError from math.exp
    top = math.log(np.finfo(np.float64).max)
    assert rr_boundary(top, 10).a_n == pytest.approx(np.finfo(np.float64).max / 10, rel=1e-12)
    for eps0 in (math.nextafter(top, math.inf), 720.0):
        with pytest.raises(ValidationError, match="largest double"):
            rr_boundary(eps0, 10)


def test_frequency_mse_refuses_eps0_beyond_the_double_range():
    # at eps0 = 710 math.exp raised a bare OverflowError
    top = math.log(sys.float_info.max)
    assert frequency_mse(top, 10, 0.5, SimConfig(1, 10)).mse_bound == pytest.approx(0.025, rel=1e-15)
    for eps0 in (math.nextafter(top, math.inf), 710.0):
        with pytest.raises(ValidationError, match="frequency_mse needs eps0 <= .* \\(the log of the largest double\\)"):
            frequency_mse(eps0, 10, 0.5, SimConfig(1, 10))


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
    for eps0 in (0.0, 5e-324, 1e-17):  # e^eps0 rounds to 1: the estimator divides by 1 - 2q = 0
        with pytest.raises(ValidationError, match="1 - 2q"):
            frequency_mse(eps0, 100, 0.5, cfg)
    with pytest.raises(ValidationError):
        frequency_mse(1.0, 100, 1.5, cfg)
    with pytest.raises(ValidationError):
        frequency_mse(1.0, 0, 0.5, cfg)
    with pytest.raises(ValidationError):
        frequency_mse(1.0, 100, 0.5, SimConfig(seed=0, reps=0))
    for bad in (-0.1, math.inf, math.nan, "x", None):
        with pytest.raises(ValidationError):
            frequency_mse(bad, 100, 0.5, cfg)
    # any finite real is accepted, as by rr_boundary
    eps0 = np.float32(1.1)
    assert frequency_mse(eps0, 100, 0.5, cfg) == frequency_mse(float(eps0), 100, 0.5, cfg)
