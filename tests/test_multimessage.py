import itertools
import math
import re
import warnings

import numpy as np
import pytest

from shuffledp import (
    Composition,
    EnumerationCapError,
    Sidedness,
    ValidationError,
    lr_atoms,
    mm_gdp_compare,
    privacy_curve,
    rr_channel,
    score_stats,
    unbundled_lr,
    unbundled_lr_atoms,
    validate_channel,
)
from shuffledp.exact_dist import DEFAULT_ATOM_CAP, MIN_NULL_MASS, TIE_REL_TOL, _affine_lr, _relabelling
from shuffledp.multimessage import _mm_cells, _renormalized, _times
from conftest import brute_force_lr, full_channel

RR3 = rr_channel(math.log(3.0))


def _histograms(total, d):
    for combo in itertools.combinations_with_replacement(range(d), total):
        h = [0] * d
        for y in combo:
            h[y] += 1
        yield tuple(h)


def test_unbundled_lr_at_one_message_is_the_affine_ratio_correctly_rounded():
    # `_affine_lr`, the package's k = 0 ratio (the atoms, the sampler and the
    # table), adds the d nonnegative terms fl(fl(N_y / n) w(y)) in d - 1 additions,
    # so each term meets at most d + 1 roundings and the sum is within
    # gamma = (d + 1) u / (1 - (d + 1) u) of L relative, u = 2^-53.  `unbundled_lr`
    # at m = 1 is L correctly rounded (within u of it), so the two differ by at
    # most (gamma + u)(1 + u) times it, below d + 2 ulps.  Measured on these 8,000
    # multinomial histograms: 2,269 differ, by at most 2 ulps.
    u, n = 2.0**-53, 30
    differ, worst = 0, 0.0
    for d in (2, 3, 4, 5):
        for seed in range(4):
            ch = full_channel(np.random.default_rng(70 + 10 * d + seed), d)
            hists = np.random.default_rng(seed).multinomial(n, ch.W0, size=500)
            for h, got in zip(hists.tolist(), _affine_lr(hists.T, n, *_relabelling(ch)).tolist()):
                exact = unbundled_lr(ch, n, 1, h)
                gamma = (d + 1) * u / (1.0 - (d + 1) * u)
                assert abs(got - exact) <= (gamma + u) * (1.0 + u) * exact, (d, seed, h)
                differ += got != exact
                worst = max(worst, abs(got - exact) / math.ulp(exact))
    assert (differ, worst) == (2269, 2.0)


@pytest.mark.parametrize("m", [1, 2, 7, 64, 65, 200])
def test_coefficient_product_is_the_nested_sum_bit_for_bit(m):
    # degree k of the product adds a[k - i] b[i] in the order i = 0..k, as the
    # nested loop does; the columns span many binades, and some coefficients are 0
    rng = np.random.default_rng(m)
    a, b = (rng.random((m + 1, 40)) * 2.0 ** rng.integers(-60, 60, (m + 1, 40)) for _ in range(2))
    a[rng.random(a.shape) < 0.1] = 0.0
    ea, eb = rng.integers(-50, 50, 40), rng.integers(-50, 50, 40)
    nested = np.zeros_like(b)
    for k in range(m + 1):
        for i in range(k + 1):
            nested[k] += a[k - i] * b[i]
    got, want = _times(a, ea, b, eb), _renormalized(nested, ea + eb)
    for x, y in zip(got, want):
        assert np.array_equal(x, y)


def test_unbundled_anchors():
    assert unbundled_lr(RR3, 2, 1, (1, 1)) == pytest.approx(5 / 3, rel=1e-12)
    assert unbundled_lr(RR3, 2, 2, (4, 0)) == pytest.approx(1 / 9, rel=1e-12)
    assert unbundled_lr(RR3, 2, 2, (2, 2)) == pytest.approx(59 / 27, rel=1e-12)


def test_unbundled_m1_is_single_message_ratio():
    ch = full_channel(np.random.default_rng(41), 3)
    w = score_stats(ch).w
    n = 5
    for h in _histograms(n, 3):
        expected = float(np.dot(h, w)) / n
        assert unbundled_lr(ch, n, 1, h) == pytest.approx(expected, rel=1e-10)


def test_unbundled_matches_brute_force():
    rng = np.random.default_rng(43)
    for d, n, m in [(2, 3, 2), (3, 2, 2), (2, 2, 3)]:
        ch = full_channel(rng, d)
        for h in _histograms(n * m, d):
            direct = unbundled_lr(ch, n, m, h)
            brute = brute_force_lr(ch, n, m, h)
            assert direct == pytest.approx(brute, rel=1e-10)


def test_brute_force_checks_its_histogram_like_unbundled_lr():
    # a negative count that keeps the sum, and a histogram longer than d
    for bad, match in (((5, -1), "integer >= 0"), ((1, 1, 2), "cells")):
        for fn in (brute_force_lr, unbundled_lr):
            with pytest.raises(ValidationError, match=match):
                fn(RR3, 2, 2, bad)


@pytest.mark.parametrize("n, m", [(200, 4), (1000, 10), (250, 40)])
def test_unbundled_lr_is_the_correctly_rounded_exact_ratio(n, m):
    # d = 2 at K messages of symbol 1: L(K) = sum_j C(nm-K, j) C(K, m-j)
    # w0^j w1^(m-j) / C(nm, m), for the same double ratios w
    mpmath = pytest.importorskip("mpmath")
    total = n * m
    comb = math.comb
    for ch in (RR3, full_channel(np.random.default_rng(67), 2)):
        p1 = float(ch.W0[1])
        mean, sd = total * p1, math.sqrt(total * p1 * (1.0 - p1))
        mode = math.floor((total + 1) * p1)
        for K in (0, mode, round(mean - 3 * sd), round(mean + 3 * sd), total):
            with mpmath.workdps(50):
                w0, w1 = (mpmath.mpf(float(x)) for x in score_stats(ch).w)
                coef = mpmath.fsum(
                    comb(total - K, j) * comb(K, m - j) * w0**j * w1 ** (m - j)
                    for j in range(m + 1)
                )
                # float(mpf) truncates; round to the nearest double instead
                want = mpmath.libmp.to_float(
                    (coef / comb(total, m))._mpf_, rnd=mpmath.libmp.round_nearest
                )
            assert unbundled_lr(ch, n, m, (total - K, K)) == want, (n, m, K)


def test_unbundled_lr_underflows_and_zeros_exactly():
    ch = validate_channel([1 - 1e-3, 1e-3], [1e-3, 1 - 1e-3])
    # w0^m with w0 ~ 1e-3 is below the smallest subnormal at m = 110
    assert unbundled_lr(ch, 300, 110, (33000, 0)) == 0.0
    # W1 never sends symbol 0, so a histogram without symbol 1 has ratio 0
    never = validate_channel([0.5, 0.5], [0.0, 1.0])
    assert unbundled_lr(never, 3, 2, (6, 0)) == 0.0
    assert unbundled_lr(never, 3, 2, (4, 2)) == 4 / 15


def test_unbundled_lr_out_of_range_raises_validation_error():
    # w1 ~ 999, so L = w1^110 ~ 1e330 exceeds the double range
    ch = validate_channel([1 - 1e-3, 1e-3], [1e-3, 1 - 1e-3])
    with pytest.raises(ValidationError, match="double range"):
        unbundled_lr(ch, 300, 110, (0, 33000))


def test_unbundled_lr_validation():
    with pytest.raises(ValidationError):
        unbundled_lr(RR3, 2, 2, (3, 0))  # histogram sums to 3, not nm=4
    with pytest.raises(ValidationError):
        unbundled_lr(RR3, 2, 2, (4, 0, 0))
    with pytest.raises(ValidationError):
        unbundled_lr(RR3, 0, 2, (0, 0))
    singular = validate_channel([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValidationError):
        unbundled_lr(singular, 2, 2, (2, 2))


def test_unbundled_atoms_are_a_valid_atomization():
    atoms = unbundled_lr_atoms(RR3, 3, 2)
    assert float(atoms.p_null.sum()) == pytest.approx(1.0, abs=1e-9)
    assert float(np.dot(atoms.lr, atoms.p_null)) == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diff(atoms.lr) > 0)


@pytest.mark.parametrize(
    "ch, n, m, rtol",
    [
        (full_channel(np.random.default_rng(61), 3), 4, 2, 2e-15),
        (full_channel(np.random.default_rng(61), 2), 150, 4, 2e-15),
        (full_channel(np.random.default_rng(61), 3), 20, 3, 2e-15),
        # the dense fold this chain replaced was 4.2e-15 off here
        (rr_channel(1.1), 2000, 4, 2e-15),
    ],
)
def test_unbundled_atoms_are_the_coefficient_ratios(ch, n, m, rtol):
    # each atom is the exact per-histogram ratio to rtol.  At d = 2 the cells
    # dropped for a null mass below MIN_NULL_MASS are the extreme counts,
    # whose ratios lie outside the atoms' range; each histogram inside it has
    # an atom of its own, the tiny ratios too.
    lr = unbundled_lr_atoms(ch, n, m).lr
    ratios = np.array([unbundled_lr(ch, n, m, h) for h in _histograms(n * m, ch.d)])
    inside = ratios[(ratios >= lr[0] * (1 - rtol)) & (ratios <= lr[-1] * (1 + rtol))]
    assert inside.size == lr.size
    gap = np.abs(lr[None, :] - inside[:, None])
    assert np.all(gap.min(axis=1) <= rtol * inside)
    assert np.all(gap.min(axis=0) <= rtol * lr)


@pytest.mark.parametrize("n, m", [(3, 100), (2, 150)])
def test_unbundled_ratios_hold_4e_15_up_to_150_messages(n, m):
    # rr 1.1 at 15 counts spread over [0, nm] (the exact ratio costs O(m^2)
    # big-integer products): each ratio inside the atoms' range has its atom
    # within 4e-15
    ch = rr_channel(1.1)
    lr = unbundled_lr_atoms(ch, n, m).lr
    checked = 0
    for K in np.linspace(0, n * m, 15).astype(int).tolist():
        want = unbundled_lr(ch, n, m, (n * m - K, K))
        if lr[0] * (1 - 4e-15) <= want <= lr[-1] * (1 + 4e-15):
            assert np.abs(lr - want).min() <= 4e-15 * want, K
            checked += 1
    assert checked >= 10


def test_unbundled_m1_atoms_match_single_message():
    # at m = 1 both run the same closed-form chain: the same bits
    ch = full_channel(np.random.default_rng(53), 2)
    for n in (6, 950):
        a = unbundled_lr_atoms(ch, n, 1)
        b = lr_atoms(ch, Composition(n, 0))
        for name in ("lr", "p_null", "p_alt"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), (n, name)
        assert (a.dropped_null_mass, a.dropped_alt_mass) == (b.dropped_null_mass, b.dropped_alt_mass)


def test_unbundled_atoms_at_700_messages_per_user():
    # rr ln 3 at n = 2, m = 700, where 3^700 alone overflows a double: no
    # intermediate overflows or is invalid, nothing warns, and the atoms and
    # dropped masses are the dense fold's
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        atoms = unbundled_lr_atoms(RR3, 2, 700)
    # at d = 2 the ratio increases strictly with the count of symbol 1, so
    # the atoms are the kept cells, less the duplicates among the ratios
    # that underflow to 0.0: 1020 - 15 + 1 = 1006
    p_null, _, lr = (np.concatenate(column) for column in zip(*_mm_cells(RR3, 2, 700, DEFAULT_ATOM_CAP)))
    kept = lr[p_null >= MIN_NULL_MASS]
    zeros = int((kept == 0.0).sum())
    assert (kept.size, zeros) == (1020, 15)
    assert atoms.lr.size == kept.size - zeros + 1 == 1006
    # 23 kept ratios are subnormal, where the reversed pair's 1/L overflows
    # (inverting them refused the reverse curve, and merging ratios within
    # 1e-12 made one atom of them, which read 0): read from the bottom of the
    # atoms, the reverse curve at eps = 100 is 30-digit mpmath's 0.99999999929
    assert privacy_curve(atoms, [100.0], Sidedness.REVERSE).delta[0] == pytest.approx(0.99999999929, rel=1e-11)
    # far out, the reverse curve is the subnormal ratios below u = e^-eps.
    # Against a 50-digit sum over these atoms it holds to 1e-12, plus the
    # e^eps 2^-1074 that u's own rounding costs where u is subnormal
    # (from eps ~ 708.40; 2.6e-11 at eps = 720).  Summed unscaled, a step
    # between subnormal ratios times its mass underflows, and eps = 700
    # read 1.47e-114 for 1.88e-114
    mpmath = pytest.importorskip("mpmath")
    eps = [700.0, 709.0, 710.0, 720.0]
    got = privacy_curve(atoms, eps, Sidedness.REVERSE).delta
    with mpmath.workdps(50):
        for e, value in zip(eps, got):
            u = mpmath.exp(-e)
            terms = [mpmath.mpf(p) * (1 - mpmath.mpf(lr) / u) for lr, p in zip(atoms.lr, atoms.p_null)
                     if lr * (1 + TIE_REL_TOL) < u]
            assert value == pytest.approx(float(mpmath.fsum(terms)), rel=1e-12 + math.exp(e - 1074 * math.log(2))), e
    assert atoms.dropped_null_mass == pytest.approx(2.2313579461250587e-308, rel=1e-12)
    assert atoms.dropped_alt_mass == pytest.approx(1.7525529281398147e-88, rel=1e-11)


def test_unbundled_curve_matches_high_precision_sum():
    # d = 2: the count K of symbol 1 is Binomial(nm, W0[1]) under the null,
    # and L(K) = sum_j C(nm-K, j) C(K, m-j) w0^j w1^(m-j) / C(nm, m)
    mpmath = pytest.importorskip("mpmath")
    # REVERSE is sum p (1 - e^eps L)_+ over the same terms, on a grid up to
    # the reversed pair's top ratio 1/L(0) = 3^m, where the tie rule leaves
    # out the atom at it
    n, m = 200, 4
    eps = [0.0, 0.05, 0.1, 0.2, 0.3]
    atoms = unbundled_lr_atoms(RR3, n, m)
    got = privacy_curve(atoms, eps).delta
    eps_rev = np.linspace(0.0, m * math.log(3.0), 9)
    got_rev = privacy_curve(atoms, eps_rev, Sidedness.REVERSE).delta
    comb = math.comb
    with mpmath.workdps(50):
        w0, w1 = (mpmath.mpf(float(x)) for x in score_stats(RR3).w)
        p1 = mpmath.mpf(float(RR3.W0[1]))
        total = n * m
        terms = []
        for K in range(total + 1):
            coef = mpmath.fsum(
                comb(total - K, j) * comb(K, m - j) * w0**j * w1 ** (m - j)
                for j in range(m + 1)
            )
            mass = comb(total, K) * p1**K * (1 - p1) ** (total - K)
            terms.append((coef / comb(total, m), mass))
        want = []
        for e in eps:
            t = mpmath.exp(e)
            want.append(float(mpmath.fsum(p * (L - t) for L, p in terms if L > t)))
        want_rev = []
        for e in eps_rev:
            t = mpmath.exp(float(e))
            want_rev.append(float(mpmath.fsum(p * (1 - t * L) for L, p in terms if t * L * (1 + TIE_REL_TOL) < 1)))
    np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0)
    np.testing.assert_allclose(got_rev, want_rev, rtol=1e-11, atol=0.0)


def test_unbundled_atoms_cap():
    ch = full_channel(np.random.default_rng(3), 4)
    with pytest.raises(EnumerationCapError):
        unbundled_lr_atoms(ch, 40, 3, cap=100)
    # d = 3, n = 1, m = 100: 5,151 cells fit a cap of 6,000, but the m + 1
    # coefficients of each of the 101 counts of a window do not
    ch = full_channel(np.random.default_rng(3), 3)
    with pytest.raises(EnumerationCapError, match="coefficients has 10201 cells > cap 6000"):
        unbundled_lr_atoms(ch, 1, 100, cap=6000)


def test_unbundled_atoms_refuse_an_unscalable_subnormal_w0_at_d3():
    # w(y_0) = 1.7e-323 at the symbol of largest W0: scaling t to the saddle
    # point needs 2^-e below 2^-1022, which the d >= 3 recursion cannot step
    # by.  With e held at 1022, m = 20 lost 7.5e-9 of alt mass and raised
    # InternalInvariantError; now an input error.  At d = 2, whose
    # coefficients keep 2^-e as an exponent, a subnormal w(y_0) stays exact
    ch = validate_channel([0.5926060406577905, 0.2772124253296227, 0.1301815340125867], [1e-323, 0.8215420572056783, 0.17845794279432176])
    for m in (2, 20):
        with pytest.raises(ValidationError, match="at least about n 2\\^-1022"):
            unbundled_lr_atoms(ch, 7, m)
    ch = validate_channel([0.6, 0.4], [5e-324, 1.0])
    atoms = unbundled_lr_atoms(ch, 7, 20)
    for h in ((14, 126), (0, 140)):
        L = float(atoms.lr[np.argmin(np.abs(atoms.lr - unbundled_lr(ch, 7, 20, h)))])
        assert L == pytest.approx(unbundled_lr(ch, 7, 20, h), rel=4e-15)


def test_more_messages_leak_more():
    # the m=1 view is a function of the m=2 view, so every delta grows with m
    eps = np.array([0.0, 0.25, 0.5])
    d1 = privacy_curve(unbundled_lr_atoms(RR3, 3, 1), eps).delta
    d2 = privacy_curve(unbundled_lr_atoms(RR3, 3, 2), eps).delta
    assert np.all(d2 >= d1 - 1e-12)


def test_mm_compare_rr3():
    cmp2 = mm_gdp_compare(RR3, 2)
    assert cmp2.unbundled_mu2n == pytest.approx(8 / 3, rel=1e-12)
    assert cmp2.bundled_mu2n == pytest.approx(40 / 9, rel=1e-12)
    assert cmp2.ratio == pytest.approx(5 / 3, rel=1e-12)
    # m = 2 is the equality case of the lower bound
    assert cmp2.ratio == pytest.approx(cmp2.ratio_lower_bound, rel=1e-12)
    cmp3 = mm_gdp_compare(RR3, 3)
    assert cmp3.ratio == pytest.approx(79 / 27, rel=1e-12)
    assert cmp3.ratio > cmp3.ratio_lower_bound


def test_mm_compare_strict_inequality_random():
    rng = np.random.default_rng(59)
    for _ in range(10):
        ch = full_channel(rng, int(rng.integers(2, 5)))
        for m in (2, 3, 4):
            cmp_ = mm_gdp_compare(ch, m)
            assert cmp_.unbundled_mu2n < cmp_.bundled_mu2n
            assert cmp_.ratio >= cmp_.ratio_lower_bound - 1e-12


def test_mm_compare_degenerate_channel():
    cmp_ = mm_gdp_compare(rr_channel(0.0), 3)
    assert cmp_.degenerate
    assert cmp_.ratio == 1.0


def test_mm_compare_validation():
    with pytest.raises(ValidationError):
        mm_gdp_compare(RR3, 0)
    # the FULL-channel check and its message are simplex_linalg's, as for simulate
    message = "bundled comparison needs a FULL channel (all symbol masses positive); support is null_support"
    with pytest.raises(ValidationError, match=re.escape(message)):
        mm_gdp_compare(validate_channel([0.5, 0.5], [0.0, 1.0]), 2)


def test_mm_compare_refuses_m_beyond_the_double_range():
    # rr ln 3: chi2 = 4/3 and (7/3)^837 ~ 9.9e307 still fits a double; at
    # m = 838 and the m = 1000 that once raised OverflowError it is refused
    assert mm_gdp_compare(RR3, 837).bundled_mu2n == pytest.approx((7.0 / 3.0) ** 837, rel=1e-12)
    for m in (838, 1000):
        message = f"bundled comparison: (1 + chi2)^m overflows above m = 837, got m={m}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            mm_gdp_compare(RR3, m)
