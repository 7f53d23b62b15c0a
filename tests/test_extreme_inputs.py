"""Extreme-input fuzz: no entry point returns a non-finite or out-of-range number.

Channels at d = 2..4 are drawn from a Dirichlet law, and each entry is, with
probability 0.3, replaced by one of 5e-324, 1e-300, 1e-200, 1e-100, 1e-30,
1e-6 or 0 before each law is normalized; n is one of 1, 2, 3, 7, 30 and 200,
m one of 1, 2, 3 and 20, and eps runs up to 720, past log(DBL_MAX).  Under
warnings raised as errors, every call must give finite numbers in their
range, or raise ValidationError (an input the library refuses) or
EnumerationCapError (the cells are capped, so each draw stays small).

A true value beyond the double range is the one non-finite number allowed,
where `report` prints it as `null` under `"nonfinite"`: the channel moments
chi^2 and mu3 (+inf), and the JSD expansion's terms, their sum and its
residual, which are never NaN (W0 = [1.231296895499659e-200, 1],
W1 = [1, 2.0963634922239936e-300] at n = 7 has terms [1.45e198, -inf, inf]
and the sum +inf).  So is the sampler's documented log 0 = -inf where a
ratio is 0.
"""

import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shuffledp import (
    Composition,
    EnumerationCapError,
    Hypothesis,
    SimConfig,
    Sidedness,
    ValidationError,
    channel_to_json,
    chernoff_curve,
    conditional_score,
    divergences,
    fisher_constant,
    gdp_delta,
    gdp_mu,
    jsd_canonical_asymptotic,
    kolmogorov_to_gaussian,
    lr_atoms,
    mean_histogram,
    mm_gdp_compare,
    privacy_curve,
    sample_privacy_loss,
    score_stats,
    tradeoff_curve,
    unbundled_hoeffding_delta,
    unbundled_lr_atoms,
    validate_channel,
)
from shuffledp.exact_dist import _MASS_TOL

EXTREMES = (5e-324, 1e-300, 1e-200, 1e-100, 1e-30, 1e-6, 0.0)
SIZES = (1, 2, 3, 7, 30, 200)
MESSAGES = (1, 2, 3, 20)
EPS = np.array([0.0, 1e-3, 0.5, 2.0, 30.0, 709.0, 709.8, 720.0])
# an atomization's totals are 1 within _MASS_TOL, so on a nearly singular pair
# its JSD and TV reach their bounds ln 2 and 1 within that (TV 1 + 1.6e-14 at
# W0 = [2.2e-6, 0.745, 2.2e-200, 0.255], W1 = [1e-200, 4.9e-224, 1, 4.9e-224], n = 2)
MASS_SLACK = 1.0 + _MASS_TOL
# cells an exact engine may build for one draw
CAP = 20_000


def _channel(seed: int, d: int):
    """A Dirichlet channel with extreme entries, or None when validation refuses it."""
    rng = np.random.default_rng(seed)
    laws = []
    for _ in range(2):
        W = rng.dirichlet([1.0] * d)
        extreme = rng.random(d) < 0.3
        W[extreme] = rng.choice(EXTREMES, int(extreme.sum()))
        if W.sum() == 0.0:
            return None
        laws.append(W / W.sum())
    try:
        return validate_channel(*laws)
    except ValidationError:
        return None


def _finite(*values, low=-math.inf, high=math.inf):
    for value in values:
        arr = np.asarray(value, dtype=np.float64)
        assert np.all(np.isfinite(arr)), value
        assert np.all((arr >= low) & (arr <= high)), value


def _curves(atoms):
    # atoms the library built are never refused on a valid grid, in either
    # direction and past eps = log(DBL_MAX)
    for sidedness in Sidedness:
        _finite(privacy_curve(atoms, EPS, sidedness).delta, low=0.0, high=1.0)
    curve = tradeoff_curve(atoms)
    _finite(curve.alpha, curve.beta, low=0.0, high=1.0)
    report = divergences(atoms)
    _finite(report.jsd, low=0.0, high=math.log(2.0) * MASS_SLACK)
    _finite(report.tv, low=0.0, high=MASS_SLACK)
    _finite(report.chi2, report.kl, low=0.0)
    _finite(atoms.dropped_null_mass, atoms.dropped_alt_mass, low=0.0, high=_MASS_TOL)


def _refused_or(call, *args, **kwargs):
    """The result of call(*args, **kwargs), or None when the library refuses the input."""
    try:
        return call(*args, **kwargs)
    except (ValidationError, EnumerationCapError):
        return None


def _entry_points(channel, n, k, m):
    stats = _refused_or(score_stats, channel)
    if stats is not None:
        _finite(stats.w, stats.r, stats.v, low=-1.0)
        _finite(stats.w_max, low=1.0)
        assert stats.chi2 >= 0.0 and not math.isnan(stats.mu3)

    pi = k / (n - 1) if n > 1 else 0.0
    fisher = _refused_or(fisher_constant, channel, pi)
    if fisher is not None:
        _finite(fisher.fisher, fisher.fisher_mixture, low=0.0)
        _finite(fisher.s)
    gdp = _refused_or(gdp_mu, channel, n, pi, m)
    if gdp is not None:
        _finite(gdp.mu, low=0.0)
        if gdp.mu > 0.0:
            _finite(gdp_delta(EPS[EPS < 709.78], gdp.mu), low=0.0, high=1.0)
    assert _refused_or(gdp_delta, 720.0, 1.0) is None

    atoms = _refused_or(lr_atoms, channel, Composition(n, k), CAP)
    if atoms is not None:
        _curves(atoms)
        if k == 0 and gdp is not None and gdp.mu > 0.0:
            _finite(kolmogorov_to_gaussian(atoms, gdp.mu, Hypothesis.NULL), low=0.0, high=1.0)
        report = _refused_or(divergences, atoms, renyi_orders=(2.0,))
        if report is not None:
            _finite(report.renyi[2.0], low=0.0)
    if m > 1:
        mm = _refused_or(unbundled_lr_atoms, channel, n, m, CAP)
        if mm is not None:
            _curves(mm)
        compare = _refused_or(mm_gdp_compare, channel, m)
        if compare is not None:
            _finite(compare.unbundled_mu2n, compare.bundled_mu2n, compare.ratio, low=0.0)
    chernoff = _refused_or(chernoff_curve, channel, n, EPS)
    if chernoff is not None:
        _finite(chernoff.delta, low=0.0, high=1.0)
    for eps in EPS[1:]:
        bound = _refused_or(unbundled_hoeffding_delta, channel, n, m, float(eps))
        if bound is not None:
            _finite(bound, low=0.0, high=1.0)

    expansion = _refused_or(jsd_canonical_asymptotic, channel, n)
    if expansion is not None:
        assert not any(math.isnan(term) for term in (*expansion.terms, expansion.asymptotic))
        if expansion.exact is not None:
            assert not math.isnan(expansion.residual)
            _finite(expansion.exact, low=0.0, high=math.log(2.0) * MASS_SLACK)

    if k > 0 and n <= 30:
        histogram = np.floor(mean_histogram(channel, Composition(n, k))).astype(int)
        histogram[-1] = n - histogram[:-1].sum()
        score = _refused_or(conditional_score, channel, Composition(n, k), histogram.tolist(), CAP)
        if score is not None:
            _finite(score, low=-1.0)
        for hypothesis in Hypothesis:
            config = SimConfig(seed=k, reps=64, workers=1)
            lam = _refused_or(sample_privacy_loss, channel, Composition(n, k), hypothesis, config, CAP)
            if lam is not None:
                # a ratio of 0 gives log 0 = -inf by design: a histogram W1
                # cannot produce, or one whose alt mass underflowed (see below)
                _finite(lam[lam != -np.inf])


@st.composite
def _draws(draw):
    d = draw(st.integers(2, 4))
    channel = _channel(draw(st.integers(0, 2**32 - 1)), d)
    n = draw(st.sampled_from(SIZES))
    k = draw(st.sampled_from(sorted({0, n // 3, n - 1})))
    return channel, n, k, draw(st.sampled_from(MESSAGES))


@settings(max_examples=60)
@given(_draws())
@example((validate_channel([1.231296895499659e-200, 1.0], [1.0, 2.0963634922239936e-300]), 7, 3, 2))
@example((validate_channel([0.7018249685416487, 0.29817503145835145], [1.5e-323, 1.0]), 30, 0, 1))
@example((validate_channel([5e-324, 1.0], [1.45e-100, 1.0]), 7, 0, 20))
def test_entry_points_on_extreme_inputs(draw):
    channel, n, k, m = draw
    if channel is None:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _entry_points(channel, n, k, m)


def _run_cli(*argv) -> subprocess.CompletedProcess:
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "shuffledp.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))},
        timeout=120,
    )


def _refuse_token(token):
    raise ValueError(f"{token} is not JSON")


# `simulate` prints -inf where a sampled histogram's alt mass underflows to 0
# (W1 sends symbol 2 with probability 1e-323), though on a FULL channel the
# true log ratio is finite; 12 of these 64 lines are -inf
UNDERFLOWED_ALT = pytest.mark.xfail(strict=True, reason="log ratio of an underflowed alt mass prints as -inf")


@pytest.mark.parametrize(
    "W0, W1, argv",
    [
        ([5e-324, 1.0], [1.45e-100, 1.0], ["report", "--n", "7", "--m", "20"]),
        # `report` takes this channel for randomized response at eps0 = 460.3,
        # where (e^eps0 - 1)^2 is beyond the double range but sigma2 is not
        ([1.231296895499659e-200, 1.0], [1.0, 2.0963634922239936e-300], ["report", "--n", "7"]),
        (
            [1.231296895499659e-200, 1.0],
            [1.0, 2.0963634922239936e-300],
            ["curve", "--n", "7", "--k", "3", "--sidedness", "two-sided", "--eps", "0,1,700,720"],
        ),
        ([0.5, 1e-200, 0.5], [1e-30, 0.5, 0.5], ["curve", "--n", "30", "--engine", "chernoff"]),
        ([1e-6, 1e-300, 1.0 - 1e-6], [0.2, 0.3, 0.5], ["simulate", "--n", "7", "--k", "2", "--reps", "50"]),
        pytest.param(
            [0.10236762542866434, 1.3251385367679741e-100, 0.8976323745713357],
            [0.7832185554972343, 0.2167814445027657, 1e-323],
            ["simulate", "--n", "30", "--k", "10", "--reps", "64", "--seed", "10"],
            marks=UNDERFLOWED_ALT,
        ),
    ],
    ids=["report-m20", "report-rr-beyond-square", "curve-two-sided", "curve-chernoff", "simulate", "simulate-underflowed-alt"],
)
def test_cli_on_extreme_inputs(tmp_path, W0, W1, argv):
    # a fresh process, warnings as errors: an input error (2) or the cap (3)
    # at most, and never a nan or inf token
    path = tmp_path / "channel.json"
    path.write_text(channel_to_json(validate_channel(W0, W1)))
    out = _run_cli(argv[0], "--channel", str(path), *argv[1:])
    assert out.returncode in (0, 2, 3), out.stderr
    text = out.stdout
    if text.startswith("{"):
        # strict JSON, whose "nonfinite" object names each null "inf", "-inf" or "nan"
        payload = json.loads(text, parse_constant=_refuse_token)
        payload.pop("nonfinite", None)
        text = json.dumps(payload)
    tokens = {token.strip('"').lower() for token in re.split(r"[\s,:\[\]{}]+", text)}
    assert not tokens & {"nan", "inf", "-inf", "infinity", "-infinity"}, out.stdout
