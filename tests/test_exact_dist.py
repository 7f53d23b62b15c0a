import ast
import dis
import importlib
import math
import os
import pkgutil
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shuffledp
from shuffledp import diagnostics, exact_dist, fold
from shuffledp import (
    Composition,
    EnumerationCapError,
    Hypothesis,
    InternalInvariantError,
    LrAtomization,
    Sidedness,
    ValidationError,
    binomial_curve,
    binomial_lr_atoms,
    conditional_score,
    divergences,
    gdp_mu,
    histogram_law,
    kolmogorov_to_gaussian,
    law_to_csv,
    linearization_residual,
    lr_atoms,
    mean_histogram,
    parse_csv,
    privacy_curve,
    reverse_atomization,
    rr_channel,
    score_stats,
    tradeoff_curve,
    unbundled_lr,
    unbundled_lr_atoms,
    validate_channel,
)
from shuffledp.cli import DEFAULT_EPS_SPEC, parse_eps_grid
from shuffledp.exact_dist import (
    MIN_NULL_MASS,
    _affine_lr,
    _bd0,
    _binom_pmf,
    _canonical_cells,
    _check_atomization,
    _fsum,
    _jsd,
    _jsd_kernel,
    _relabelling,
    _sort_atoms,
    _spawned_cells,
    _stirlerr,
    _window_ends,
)
from shuffledp.diagnostics import _k0_rows
from shuffledp.records import DEFAULT_ATOM_CAP
from shuffledp.fold import HistogramLaw, _ratio_table
from shuffledp.multimessage import _mm_cells
from conftest import fold_atoms, full_channel

RR3 = rr_channel(math.log(3.0))
LN2 = math.log(2.0)
LN3 = math.log(3.0)


# ---------------------------------------------------------------------------
# histogram laws


def _law_dict(law):
    """The positive cells of a histogram law, as an ordered dict from tuples to masses."""
    counts, mass = law.cells()
    return dict(zip(map(tuple, counts.tolist()), mass.tolist()))


def test_histogram_law_rr3_n2():
    law = histogram_law(RR3, Composition(2, 0))
    atoms = _law_dict(law)
    assert atoms[(2, 0)] == pytest.approx(9 / 16, rel=1e-12)
    assert atoms[(1, 1)] == pytest.approx(6 / 16, rel=1e-12)
    assert atoms[(0, 2)] == pytest.approx(1 / 16, rel=1e-12)
    assert law.renormalized_by == pytest.approx(1.0, abs=1e-12)


def test_histogram_law_zero_users():
    law = histogram_law(RR3, Composition(0, 0))
    assert _law_dict(law) == {(0, 0): 1.0}


def test_histogram_law_masses_sum_to_one():
    ch = full_channel(np.random.default_rng(3), 4)
    atoms = _law_dict(histogram_law(ch, Composition(7, 3)))
    assert math.fsum(atoms.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(sum(h) == 7 for h in atoms)


def test_mean_histogram():
    m = mean_histogram(RR3, Composition(4, 1))
    assert m == pytest.approx(3 * np.asarray(RR3.W0) + np.asarray(RR3.W1), rel=1e-12)


def test_enumeration_cap_trips():
    ch = full_channel(np.random.default_rng(9), 5)
    with pytest.raises(EnumerationCapError, match="cells > cap"):
        histogram_law(ch, Composition(100, 0), cap=1000)
    # one check, naming the cells it counts: the built k = 0 cells or the dense law
    ch = full_channel(np.random.default_rng(9), 3)
    with pytest.raises(EnumerationCapError, match=r"k=0 law for n=100, d=3 has \d+ cells > cap 50$"):
        lr_atoms(ch, Composition(100, 0), cap=50)
    with pytest.raises(EnumerationCapError, match="dense histogram law for 100 messages, d=3 has 10201 cells > cap 50$"):
        lr_atoms(ch, Composition(100, 4), cap=50)


def test_k0_cap_counts_the_built_cells_not_the_window_box():
    # at n = 59 every window is [0, 59]: the box holds 60^3 = 216000 cells,
    # the simplex only C(62, 3) = 37820, and the cap is checked on those
    ch = full_channel(np.random.default_rng(9), 4)
    capped = lr_atoms(ch, Composition(59, 0), cap=100_000)
    full = lr_atoms(ch, Composition(59, 0))
    for name in ("lr", "p_null", "p_alt"):
        np.testing.assert_array_equal(getattr(capped, name), getattr(full, name))
    with pytest.raises(EnumerationCapError, match="k=0 law for n=59, d=4 has 37820 cells > cap 37819$"):
        lr_atoms(ch, Composition(59, 0), cap=37_819)


def test_spawned_cells_is_the_sum_over_the_parents():
    rng = np.random.default_rng(5)
    for _ in range(500):
        a, lo = rng.integers(0, 40, 2).tolist()
        b, hi = a + int(rng.integers(0, 40)), lo + int(rng.integers(0, 40))
        assert _spawned_cells(a, b, lo, hi) == sum(max(0, min(r, hi) - lo + 1) for r in range(a, b + 1))


def test_k0_refusal_builds_nothing_of_the_windows_size():
    # the first two levels are counted in closed form before any array is
    # built: refusing n = 4e6 peaked at 197 MB (the first window, its masses
    # and the stirlerr table over 0..n), and n = 1e29 asked numpy for 89.9 PiB
    ch = validate_channel([0.5, 0.3, 0.2], [0.2, 0.3, 0.5])

    def refuse(n):
        with pytest.raises(EnumerationCapError, match="cells > cap"):
            lr_atoms(ch, Composition(n, 0))

    for n in (4_000_000, 10**29):
        assert _peak_bytes(lambda: refuse(n)) < 1_000_000


# Reference engine: the histogram law as a dict, folded one message at a time
# over the histograms in insertion order.


def _dict_fold(law, W):
    support = [(y, float(p)) for y, p in enumerate(W) if p > 0.0]
    out = {}
    for h, mass in law.items():
        for y, p in support:
            h2 = h[:y] + (h[y] + 1,) + h[y + 1 :]
            out[h2] = out.get(h2, 0.0) + mass * p
    return out


def _dict_laws(ch, zeros, ones, m):
    """Renormalized base law of `zeros` W0- and `ones` W1-messages and the
    laws with m more W0- (null) or W1-messages (alt), as dicts."""
    base = {(0,) * ch.d: 1.0}
    for W in [ch.W0] * zeros + [ch.W1] * ones:
        base = _dict_fold(base, W)
    factor = 1.0 / math.fsum(base.values())
    base = {h: mass * factor for h, mass in base.items()}
    null = alt = base
    for _ in range(m):
        null, alt = _dict_fold(null, ch.W0), _dict_fold(alt, ch.W1)
    return base, null, alt


def _dict_atoms(null, alt):
    """Atoms and dropped (null, alt) masses of the dict laws."""
    tiny = MIN_NULL_MASS
    hists = [h for h, p in null.items() if p >= tiny]
    p_null = np.array([null[h] for h in hists])
    p_alt = np.array([alt.get(h, 0.0) for h in hists])
    dropped_null = np.array([p for p in null.values() if 0.0 < p < tiny])
    dropped_alt = np.array([p for h, p in alt.items() if p > 0.0 and null.get(h, 0.0) < tiny])
    return _sort_atoms([p_alt / p_null, p_null, p_alt]), _fsum(dropped_null), _fsum(dropped_alt)


def _dict_pair(ch, comp):
    """Renormalized base law T_{n-1,k} and the atoms of the pair."""
    base, null, alt = _dict_laws(ch, comp.n - 1 - comp.k, comp.k, 1)
    return base, _dict_atoms(null, alt)[0]


@pytest.mark.parametrize("d, n, k", [(2, 300, 100), (3, 60, 25), (4, 20, 7)])
def test_dense_engine_is_bit_identical_to_dict_fold(d, n, k):
    ch = full_channel(np.random.default_rng(100 + d), d)
    base, (lr, p_null, p_alt) = _dict_pair(ch, Composition(n, k))
    law = _law_dict(histogram_law(ch, Composition(n - 1, k)))
    # same histograms in the same (descending lexicographic) order, same bits
    assert list(law.items()) == [(h, m) for h, m in base.items() if m > 0.0]
    atoms = lr_atoms(ch, Composition(n, k))
    assert np.array_equal(atoms.lr, lr)
    assert np.array_equal(atoms.p_null, p_null)
    assert np.array_equal(atoms.p_alt, p_alt)


@pytest.mark.parametrize("d, n", [(2, 1900), (3, 60)])
def test_closed_form_k0_atoms_match_dict_fold(d, n):
    # the k = 0 atoms come from Mult(n, W0) in closed form, not from a fold:
    # the affine ratios agree to rounding, the masses to the pmf's 1e-11
    ch = full_channel(np.random.default_rng(100 + d), d)
    base, (lr, p_null, p_alt) = _dict_pair(ch, Composition(n, 0))
    law = _law_dict(histogram_law(ch, Composition(n - 1, 0)))
    assert list(law.items()) == [(h, m) for h, m in base.items() if m > 0.0]
    atoms = lr_atoms(ch, Composition(n, 0))
    np.testing.assert_allclose(atoms.lr, lr, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(atoms.p_null, p_null, rtol=1e-11, atol=0.0)
    np.testing.assert_allclose(atoms.p_alt, p_alt, rtol=1e-11, atol=0.0)


def test_closed_form_k0_handles_shares_below_rounding():
    # W0[0] is below an ulp of the other shares: a chain that left symbol 1
    # to be split from {0, 1} would get p = 0.5 / (0.5 + 1e-20) = 1.0 and
    # 1 - p = 0; the closed form leaves the largest share implied instead
    ch = validate_channel([1e-20, 0.5, 0.5], [0.3, 0.3, 0.4])
    eps = np.linspace(0.0, 50.0, 11)
    for n in (5, 40):
        np.testing.assert_allclose(
            privacy_curve(lr_atoms(ch, Composition(n, 0)), eps).delta,
            privacy_curve(fold_atoms(ch, Composition(n, 0)), eps).delta,
            rtol=1e-10,
            atol=0.0,
        )


def _box_cells(channel, n):
    """The histograms of `_canonical_cells` in its order: with symbols y_0,
    y_1, ... by decreasing W0, (N_{y_{d-1}}, ..., N_{y_1}) lexicographic over
    the box of windows, N_{y_0} what remains."""
    order = np.argsort(-channel.W0, kind="stable")
    cells = np.zeros((1, 0), dtype=np.int64)
    for y in order[:0:-1]:
        lo, hi = _window_ends(n, float(channel.W0[y]))
        window = np.arange(lo, hi + 1, dtype=np.int64)
        cells = np.column_stack(
            (np.repeat(cells, window.size, axis=0), np.tile(window, len(cells)))
        )
        cells = cells[cells.sum(axis=1) <= n]
    hist = np.empty((len(cells), channel.d), dtype=np.int64)
    hist[:, order[:0:-1]] = cells
    hist[:, order[0]] = n - cells.sum(axis=1)
    return hist


@pytest.mark.parametrize("d, n", [(3, 1000), (4, 100)])
def test_closed_form_masses_match_mpmath_out_to_the_tails(d, n):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    ch = full_channel(np.random.default_rng(40 + d), d)
    p_null = np.concatenate([block[0] for block in _canonical_cells(ch, n, DEFAULT_ATOM_CAP)])
    hists = _box_cells(ch, n)
    assert len(hists) == p_null.size
    kept = np.flatnonzero(p_null >= 1e-280)
    picks = set(np.random.default_rng(7).choice(kept, 40, replace=False).tolist())
    picks |= {int(kept[np.argmin(p_null[kept])]), int(np.argmax(p_null))}
    W = [mpmath.mpf(float(x)) for x in ch.W0]
    for i in sorted(picks):
        exact = mpmath.factorial(n) * mpmath.fprod(
            W[y] ** c / mpmath.factorial(c) for y, c in enumerate(hists[i].tolist())
        )
        assert float(abs(p_null[i] - exact) / exact) <= 1e-11, (hists[i], p_null[i], exact)


# k = 0 channels for the one ratio rule: seeded FULL channels, W0 with ties
# (the stable relabelling decides the order) and a skewed W0 whose tail cells
# the drop rule removes
AFFINE_CASES = [
    ("random", 2, 1000), ("random", 3, 100), ("random", 4, 30), ("random", 5, 12),
    ("ties", 4, 30), ("skewed", 3, 30),
]


def _affine_channel(name, d):
    if name == "ties":
        return validate_channel([0.3, 0.2, 0.3, 0.2], [0.1, 0.4, 0.2, 0.3])
    if name == "skewed":
        return _skewed_channel(d)
    return full_channel(np.random.default_rng(60 + d), d)


def _chain_sum(channel, hists, n):
    """L(N) = (1/n) sum_y N_y w(y) summed as the package's rule states it, apart from
    `_affine_lr`: symbols by a stable argsort of -W0, the last added first."""
    order, w = np.argsort(-channel.W0, kind="stable"), score_stats(channel).w
    lr = (hists[:, order[-1]] / n) * w[order[-1]]
    for y in order[-2::-1]:
        lr = lr + (hists[:, y] / n) * w[y]
    return lr


@pytest.mark.parametrize("name, d, n", AFFINE_CASES)
def test_affine_lr_is_the_chain_sum_on_every_cell(name, d, n):
    # the chain carries each cell's histogram through its levels, and its
    # ratio there is the one k = 0 rule bit for bit, at the histograms of
    # `_canonical_cells` rebuilt apart from the chain
    ch = _affine_channel(name, d)
    blocks = list(_canonical_cells(ch, n, DEFAULT_ATOM_CAP))
    hists = _box_cells(ch, n)
    counts = np.concatenate([np.column_stack(block[3]) for block in blocks])
    assert np.array_equal(counts, hists)
    lr = np.concatenate([block[2] for block in blocks])
    assert np.array_equal(_chain_sum(ch, hists, n).view(np.uint64), lr.view(np.uint64))
    assert np.array_equal(_affine_lr(hists.T, n, *_relabelling(ch)).view(np.uint64), lr.view(np.uint64))


@pytest.mark.parametrize("name, d, n", AFFINE_CASES)
def test_k0_rows_are_the_chain_cells_bit_for_bit(name, d, n):
    # the closed-form rows at every histogram the chain builds: its null mass
    # and ratio bit for bit, NaN exactly where the drop rule drops the cell,
    # and a score of that ratio minus 1 wherever it keeps it
    ch = _affine_channel(name, d)
    blocks = list(_canonical_cells(ch, n, DEFAULT_ATOM_CAP))
    hists = np.concatenate([np.column_stack(block[3]) for block in blocks]).astype(np.int64)
    p_null, lr = (np.concatenate([block[i] for block in blocks]) for i in (0, 2))
    mass, ratio = _k0_rows(ch, n, hists.tolist(), DEFAULT_ATOM_CAP)
    assert np.array_equal(mass.view(np.uint64), p_null.view(np.uint64))
    kept = p_null >= MIN_NULL_MASS
    assert np.array_equal(np.isnan(ratio), ~kept) and (name != "skewed" or not kept.all())
    assert np.array_equal(ratio[kept].view(np.uint64), lr[kept].view(np.uint64))
    score = conditional_score(ch, Composition(n, 0), hists[kept])
    assert np.array_equal(score.view(np.uint64), (lr[kept] - 1.0).view(np.uint64))


def test_k0_conditional_score_reads_no_fold(monkeypatch):
    # at k = 0 the table is the closed-form chain: no message is folded for
    # the score or the residual, and each score is its atom's ratio minus 1;
    # at k = 1 the fold runs
    def no_fold(*args):
        raise AssertionError("the k = 0 table folded a message")

    monkeypatch.setattr(fold, "_fold_block", no_fold)
    for d, n in ((2, 300), (3, 40), (4, 12), (5, 8)):
        ch = full_channel(np.random.default_rng(80 + d), d)
        comp = Composition(n, 0)
        mean = np.floor(mean_histogram(ch, comp)).astype(int)
        mean[-1] = n - mean[:-1].sum()
        assert conditional_score(ch, comp, mean.tolist()) == _affine_lr(mean[:, None], n, *_relabelling(ch))[0] - 1.0
        linearization_residual(ch, comp)
    with pytest.raises(AssertionError, match="folded"):
        conditional_score(ch, Composition(n, 1), mean.tolist())


def test_k0_score_and_residual_refuse_exactly_when_the_atoms_do(monkeypatch):
    # k = 0 pairs on either side of the drop rule's refusal: the cells with a
    # symbol-1 count hold null mass below MIN_NULL_MASS at W0[1] = 1e-310, and
    # alt mass about W1[1] there, so W1[1] = 1e-9 sits on the tolerance
    # (refused at n = 5 and 30 for 1.00000000000005e-9, kept at n = 2)
    chains = []
    real = diagnostics._canonical_cells
    monkeypatch.setattr(diagnostics, "_canonical_cells", lambda *args: chains.append(args) or real(*args))
    outcomes = set()
    for tiny, a in ((1e-155, 0.5), (1e-310, 1e-12), (1e-310, 1e-9), (1e-310, 1e-3), (5e-324, 1e-300)):
        ch = validate_channel([1.0 - tiny, tiny], [1.0 - a, a])
        for n in (2, 5, 30):
            said = []
            for build in (lr_atoms, lambda ch, comp: conditional_score(ch, comp, (comp.n, 0)), linearization_residual):
                try:
                    build(ch, Composition(n, 0))
                    said.append(None)
                except ValidationError as exc:
                    said.append(str(exc))
            assert said[0] == said[1] == said[2], (tiny, a, n)
            outcomes.add(said[0] is None)
    assert outcomes == {True, False}
    # the score builds the chain only where its bound cannot rule the refusal
    # out: w_max = 5e154 at W0[1] = 1e-155 keeps 2 w_max MIN_NULL_MASS (n+1)
    # far below _MASS_TOL, and w_max = 1e298 at W0[1] = 1e-310 does not
    for tiny, a, built in ((1e-155, 0.5, False), (1e-310, 1e-12, True)):
        chains.clear()
        conditional_score(validate_channel([1.0 - tiny, tiny], [1.0 - a, a]), Composition(30, 0), (30, 0))
        assert bool(chains) == built, tiny


def test_k0_score_reads_no_law_at_any_n(monkeypatch):
    # a k = 0 score builds neither the chain nor a dense array: at d = 3,
    # n = 20000 a dense table would hold 400,040,001 cells, and at d = 5,
    # n = 10^12 even one chain level would be refused
    def no_law(*args, **kwargs):
        raise AssertionError("a law was built")

    monkeypatch.setattr(exact_dist, "_null_levels", no_law)
    monkeypatch.setattr(fold, "_dense_shape", no_law)
    for d, n in ((3, 20000), (5, 10**12)):
        ch = full_channel(np.random.default_rng(90 + d), d)
        comp = Composition(n, 0)
        mean = np.floor(mean_histogram(ch, comp)).astype(np.int64)
        mean[-1] = n - mean[:-1].sum()
        score = conditional_score(ch, comp, mean.tolist())
        assert math.isfinite(score) and score == _affine_lr(mean[:, None], n, *_relabelling(ch))[0] - 1.0
    with pytest.raises(AssertionError, match="a law was built"):
        lr_atoms(ch, Composition(20, 0))


def test_ratio_table_checks_the_dense_cap_before_any_fold(monkeypatch):
    # the k > 0 table is refused by the cap on its dense array before a
    # message is folded
    def no_fold(*args):
        raise AssertionError("a message was folded")

    monkeypatch.setattr(fold, "_fold", no_fold)
    ch = full_channel(np.random.default_rng(3), 3)
    with pytest.raises(EnumerationCapError, match=r"^dense histogram law for 200 messages, d=3 has 40401 cells > cap 40400$"):
        _ratio_table(ch, Composition(200, 5), 40400)
    with pytest.raises(AssertionError, match="folded"):
        _ratio_table(ch, Composition(200, 5), 40401)


def _code_objects(module):
    """The code of every function and method that `module` defines, nested code (lambdas, comprehensions) too."""
    stack = []
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        members = vars(value).values() if isinstance(value, type) else [value]
        stack += [member.__code__ for member in members if hasattr(member, "__code__")]
    while stack:
        code = stack.pop()
        yield code
        stack += [const for const in code.co_consts if hasattr(const, "co_names")]


def _imports_at_call_time(code, target: str, name: str) -> bool:
    """Whether `code` runs `from .<target> import <name>`, which reads the attribute when it runs."""
    module = None
    for op in dis.get_instructions(code):
        if op.opname == "IMPORT_NAME":
            module = op.argval
        elif op.opname == "IMPORT_FROM" and module in (target, f"shuffledp.{target}") and op.argval == name:
            return True
    return False


def test_every_monkeypatch_of_a_package_module_is_read_by_that_module():
    # a patch on a module whose code no longer reads the name (it moved to
    # another module) would pass vacuously: each `monkeypatch.setattr(module,
    # "name", ...)` in the tests needs a function of that module reading `name`,
    # or a function of the package importing `name` from that module when it runs
    readers = [importlib.import_module(f"shuffledp.{info.name}") for info in pkgutil.iter_modules(shuffledp.__path__)]
    patches = set()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "setattr" and getattr(node.func.value, "id", None) == "monkeypatch"
                    and isinstance(node.args[0], ast.Name) and isinstance(node.args[1], ast.Constant)):
                patches.add((path.name, node.args[0].id, node.args[1].value))
    assert len(patches) >= 9
    for where, target, name in sorted(patches):
        module = importlib.import_module(f"shuffledp.{target}")
        read = any(name in code.co_names for code in _code_objects(module))
        imported = any(_imports_at_call_time(code, target, name) for reader in readers for code in _code_objects(reader))
        assert read or imported, (where, target, name)


def test_dense_engine_matches_dict_fold_on_null_support_channel():
    # W1 misses symbol 2: the dict adds the terms of a cell in another order
    ch = validate_channel([0.3, 0.3, 0.4], [0.5, 0.5, 0.0])
    comp = Composition(40, 9)
    base, (lr, p_null, p_alt) = _dict_pair(ch, comp)
    law = _law_dict(histogram_law(ch, Composition(39, 9)))
    assert law.keys() == base.keys()
    np.testing.assert_allclose(
        [law[h] for h in base], list(base.values()), rtol=1e-15, atol=0.0
    )
    atoms = lr_atoms(ch, comp)
    for got, want in ((atoms.lr, lr), (atoms.p_null, p_null), (atoms.p_alt, p_alt)):
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


# Block sizes that put block boundaries everywhere: one cell (every block one
# axis-0 slab), odd sizes that split the slabs unevenly, and the default.
BLOCK_SIZES = (1, 7, 100, 1009, fold._FOLD_BLOCK)


def _skewed_channel(d):
    """A FULL channel whose far-tail cells underflow at small n, so some are dropped."""
    W0 = np.full(d, 1e-12)
    W0[0] = 1.0 - W0[1:].sum()
    return validate_channel(W0, np.full(d, 1.0 / d))


def _assert_atoms_equal(atoms, reference):
    (lr, p_null, p_alt), dropped_null, dropped_alt = reference
    assert np.array_equal(atoms.lr, lr)
    assert np.array_equal(atoms.p_null, p_null)
    assert np.array_equal(atoms.p_alt, p_alt)
    assert (atoms.dropped_null_mass, atoms.dropped_alt_mass) == (dropped_null, dropped_alt)


@pytest.mark.parametrize(
    "d, n, k, skewed",
    [
        (2, 40, 39, False), (2, 31, 9, False), (2, 30, 1, True),
        (3, 14, 13, False), (3, 17, 6, False), (3, 30, 2, True),
        (4, 9, 8, False), (4, 11, 4, False), (4, 30, 1, True),
        (5, 6, 5, False), (5, 8, 3, False),
    ],
)
def test_block_boundaries_keep_the_dict_fold_bits(monkeypatch, d, n, k, skewed):
    # the fold, the pair's streamed last message and the ratio table give the
    # dict fold's bits, whatever the block size; the skewed channels drop cells
    ch = _skewed_channel(d) if skewed else full_channel(np.random.default_rng(100 + d), d)
    base, null, alt = _dict_laws(ch, n - 1 - k, k, 1)
    reference = _dict_atoms(null, alt)
    assert (reference[1] > 0.0) == skewed
    comp = Composition(n, k)
    for block in BLOCK_SIZES:
        monkeypatch.setattr(fold, "_FOLD_BLOCK", block)
        law = _law_dict(histogram_law(ch, Composition(n - 1, k)))
        assert list(law.items()) == [(h, m) for h, m in base.items() if m > 0.0], block
        _assert_atoms_equal(lr_atoms(ch, comp), reference)
        table, ratio = _ratio_table(ch, comp, DEFAULT_ATOM_CAP)
        assert _law_dict(HistogramLaw(n=n, d=d, mass=table)) == {h: m for h, m in null.items() if m > 0.0}
        kept = [h for h, p in null.items() if p >= MIN_NULL_MASS]
        assert np.array_equal(ratio[tuple(np.array(kept).T[:-1])], [alt[h] / null[h] for h in kept])
        assert int(np.isnan(ratio).sum()) == ratio.size - len(kept)


@pytest.mark.parametrize(
    "d, n, m, skewed",
    [(2, 13, 2, False), (2, 9, 3, False), (2, 15, 2, True), (3, 7, 2, False), (3, 5, 3, False), (4, 4, 3, False), (5, 3, 2, False)],
)
def test_unbundled_atoms_are_the_exact_ratios_on_the_dict_fold_cells(d, n, m, skewed):
    # the closed-form chain keeps the dict fold's cells: the same atoms and
    # dropped cells, masses to rounding, and each ratio within 2e-15 of the
    # exact per-histogram ratio.  A dropped cell's alt mass comes from the
    # logs of its null mass (4.06e-321 in the skewed case) and of L
    ch = _skewed_channel(d) if skewed else full_channel(np.random.default_rng(300 + d), d)
    _, null, alt = _dict_laws(ch, (n - 1) * m, 0, m)
    (lr, p_null, p_alt), dropped_null, dropped_alt = _dict_atoms(null, alt)
    assert (dropped_null > 0.0) == skewed
    atoms = unbundled_lr_atoms(ch, n, m)
    assert atoms.lr.size == lr.size
    np.testing.assert_allclose(atoms.p_null, p_null, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(atoms.p_alt, p_alt, rtol=1e-12, atol=0.0)
    assert atoms.dropped_null_mass == pytest.approx(dropped_null, rel=1e-12, abs=0.0)
    assert atoms.dropped_alt_mass == pytest.approx(dropped_alt, rel=1e-12, abs=0.0)
    kept = [h for h, p in null.items() if p >= MIN_NULL_MASS]
    exact = [unbundled_lr(ch, n, m, h) for h in kept]
    want = _sort_atoms([exact, [null[h] for h in kept], [alt[h] for h in kept]])[0]
    np.testing.assert_allclose(atoms.lr, want, rtol=2e-15, atol=0.0)



def _mm_columns(ch, n, m):
    """p_null, p_alt and lr of the cells of `_mm_cells`, its blocks joined."""
    return [np.concatenate(column) for column in zip(*_mm_cells(ch, n, m, DEFAULT_ATOM_CAP))]


@pytest.mark.parametrize("W1_1", [1e-5, 0.5])
def test_unbundled_dropped_alt_mass_beyond_the_double_range(W1_1):
    # W0_1 = 1e-100 at n = 2, m = 4: the cells with 4 or more symbol-1
    # messages hold null mass below 1e-396 and ratios above 1e300 (5e99^4 /
    # C(8, 4)).  Their alt masses come from logs, so nothing overflows or
    # warns, and the dropped alt mass is the dict fold's: about 1e-20 with
    # W1_1 = 1e-5, where the atoms pass their check, and 1/16 with W1_1 = 1/2,
    # where the pair is refused as an input the doubles cannot hold
    ch = validate_channel([1.0 - 1e-100, 1e-100], [1.0 - W1_1, W1_1])
    dropped_alt = _dict_atoms(*_dict_laws(ch, 4, 0, 4)[1:])[2]
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        p_null, p_alt, _ = _mm_columns(ch, 2, 4)
        dropped = p_null < MIN_NULL_MASS
        assert _fsum(p_alt[dropped]) == pytest.approx(dropped_alt, rel=1e-12, abs=0.0)
        if W1_1 < 1e-3:
            assert unbundled_lr_atoms(ch, 2, 4).dropped_alt_mass == pytest.approx(dropped_alt, rel=1e-12, abs=0.0)
        else:
            assert dropped_alt == pytest.approx(1 / 16, rel=1e-12)
            with pytest.raises(ValidationError, match="alt law puts mass 0.0624"):
                unbundled_lr_atoms(ch, 2, 4)



def test_unbundled_ratios_at_d3_with_many_more_messages_than_users():
    # d = 3, n = 2, m = 60, where an O(m^2) product per cell loses to the
    # dense fold's O(nm): the last two symbols' factors are built once per
    # (count left, N_1) and shared, O(m) a cell.  Sampled kept cells hold the
    # exact ratio within 4e-15, and a dropped cell's alt mass matches L P
    # wherever both are normal doubles
    ch, n, m = full_channel(np.random.default_rng(5), 3), 2, 60
    p_null, p_alt, lr = _mm_columns(ch, n, m)
    hists = _box_cells(ch, n * m)
    kept = np.flatnonzero(p_null >= MIN_NULL_MASS)
    assert hists.shape[0] == p_null.size and kept.size > 5000
    for i in np.random.default_rng(8).choice(kept, 60, replace=False).tolist():
        assert lr[i] == pytest.approx(unbundled_lr(ch, n, m, hists[i].tolist()), rel=4e-15, abs=0.0)
    assert np.array_equal(p_alt[kept], lr[kept] * p_null[kept])


@pytest.mark.parametrize(
    "ch, n, m, few",
    [
        (rr_channel(1.1), 1000, 96, None),
        (rr_channel(1.1), 1000, 150, None),
        (validate_channel([0.6, 0.3, 0.1], [0.01, 0.3, 0.69]), 3, 150, 10),
        (validate_channel([0.5, 0.3, 0.2], [1e-300, 0.5, 0.5]), 5, 3, None),
        (validate_channel([0.6, 0.4], [5e-324, 1.0]), 10000, 2, None),
    ],
    ids=["rr-1000-96", "rr-1000-150", "d3-3-150", "d3-tiny-w0", "d2-subnormal-w0"],
)
def test_unbundled_ratios_hold_beyond_the_unscaled_range(ch, n, m, few):
    # with t scaled only by tau = w(y_0), the terms that carry the degree-m
    # coefficient sat about (n / tau)^(-m share) below their column's
    # largest and fell below 2^-1074 of it once m log10(n / tau) reached
    # about 300: rr 1.1 at n = 1000 was off by up to 3e-8 at m = 96 and
    # refused at m >= 97, the d = 3 channel off by up to 6e-6 at cells with
    # few y_0 messages, and a W1 that almost never sends y_0 was refused at
    # d = 3.  Scaled by 2^-e ~ tau / n (2^-e kept a normal double, and n /
    # tau not formed, since it overflows at a subnormal tau), t sits near
    # the saddle point 1/n, and sampled kept ratios hold within 4e-15
    p_null, _, lr = _mm_columns(ch, n, m)
    unbundled_lr_atoms(ch, n, m)  # passes its mass checks
    hists = _box_cells(ch, n * m)
    kept = np.flatnonzero(p_null >= MIN_NULL_MASS)
    if few:
        kept = kept[hists[kept, 0] <= few]
    for i in np.random.default_rng(8).choice(kept, 12 if few else 8, replace=False).tolist():
        assert lr[i] == pytest.approx(unbundled_lr(ch, n, m, hists[i].tolist()), rel=4e-15, abs=0.0)


def test_unbundled_memory_at_many_messages_per_user_is_linear_in_cells():
    # d = 3, n = 2, m = 100: C(202, 2) = 20,301 cells.  Only the last
    # window's m + 1 coefficients a count and a block of 64 counts left are
    # held besides the cells' own arrays; a coefficient array per cell, as
    # the O(m^2) chain held, would alone take 8 (m + 1) B a cell
    ch, n, m = full_channel(np.random.default_rng(7), 3), 2, 100
    cells = math.comb(n * m + 2, 2)
    assert _peak_bytes(lambda: unbundled_lr_atoms(ch, n, m)) < 200 * cells + 64 * (m + 1) * (n * m + 1)


def test_sort_joins_only_equal_ratios():
    # cells whose ratios are one double become one atom, their masses
    # summed; ratios 3 ulps apart stay apart, below and above 1 and at the
    # tiny ratios (9e-20 to 9e-14) that a merge within an absolute 1e-12
    # made one atom
    rng = np.random.default_rng(17)
    base = np.concatenate((np.exp(rng.uniform(-3.0, 3.0, 1000)), [9e-20, 4.5e-14, 9e-14]))
    apart = np.nextafter(np.nextafter(np.nextafter(base, np.inf), np.inf), np.inf)
    ratios = np.concatenate((base, base, apart))
    masses = rng.dirichlet(np.ones(ratios.size))
    order = rng.permutation(ratios.size)
    lr, p_null, p_alt = _sort_atoms([ratios[order], masses[order], (ratios * masses)[order]])
    want = {}
    for r, p in zip(ratios.tolist(), masses.tolist()):
        null, alt = want.get(r, (0.0, 0.0))
        want[r] = (null + p, alt + r * p)
    keys = sorted(want)
    assert len(keys) == 2 * base.size and lr.tolist() == keys
    assert p_null.tolist() == [want[r][0] for r in keys]
    assert p_alt.tolist() == [want[r][1] for r in keys]
    assert (lr < 1.0).sum() > 100 and (lr > 1.0).sum() > 100
    # all ratios distinct: the sorted arrays as they are; no cells: no atoms
    distinct = sorted(base.tolist())
    got = _sort_atoms([rng.permutation(base)] * 3)
    assert [a.tolist() for a in got] == [distinct] * 3
    assert all(a.size == 0 for a in _sort_atoms([ratios[:0], masses[:0], ratios[:0]]))


def test_composition_validation():
    with pytest.raises(ValidationError):
        Composition(-1, 0)
    with pytest.raises(ValidationError):
        Composition(3, 4)
    with pytest.raises(ValidationError):
        Composition(3.0, 1)


def test_composition_accepts_numpy_integers():
    comp = Composition(np.int64(5), np.uint8(2))
    assert comp == Composition(5, 2)
    assert type(comp.n) is int and type(comp.k) is int
    with pytest.raises(ValidationError):
        Composition(True, 0)
    with pytest.raises(ValidationError):
        Composition(3, np.bool_(False))


_SMALL_RUN = shuffledp.SimConfig(seed=0, reps=2)
COUNT_ARGUMENTS = {
    "gdp_mu-n": lambda v: shuffledp.gdp_mu(RR3, v),
    "gdp_mu-m": lambda v: shuffledp.gdp_mu(RR3, 10, m=v),
    "jsd_canonical_asymptotic-n": lambda v: shuffledp.jsd_canonical_asymptotic(RR3, v),
    "leading_divergence-n": lambda v: shuffledp.leading_divergence(RR3, v, 0.0),
    "chernoff_delta-n": lambda v: shuffledp.chernoff_delta(RR3, v, 0.5),
    "unbundled_hoeffding_delta-n": lambda v: shuffledp.unbundled_hoeffding_delta(RR3, v, 2, 0.5),
    "unbundled_hoeffding_delta-m": lambda v: shuffledp.unbundled_hoeffding_delta(RR3, 10, v, 0.5),
    "rr_boundary-n": lambda v: shuffledp.rr_boundary(shuffledp.rr_channel(1.0), v),
    "frequency_mse-n": lambda v: shuffledp.frequency_mse(shuffledp.rr_channel(1.0), v, 0.5, _SMALL_RUN),
    "unbundled_lr-m": lambda v: shuffledp.unbundled_lr(RR3, 1, v, (v, 0)),
    "unbundled_lr_atoms-m": lambda v: shuffledp.unbundled_lr_atoms(RR3, 2, v),
    "mm_gdp_compare-m": lambda v: shuffledp.mm_gdp_compare(RR3, v),
}


@pytest.mark.parametrize("call", COUNT_ARGUMENTS.values(), ids=COUNT_ARGUMENTS)
def test_counts_must_be_integers(call):
    for bad in (math.nan, 2.5, True, 10**400):
        with pytest.raises(ValidationError):
            call(bad)
    call(np.int64(3))
    call(np.uint8(3))


# ---------------------------------------------------------------------------
# likelihood-ratio atoms


def test_lr_atoms_rr3_n2_exact():
    atoms = lr_atoms(RR3, Composition(2, 0))
    assert atoms.lr == pytest.approx([1 / 3, 5 / 3, 3.0], rel=1e-12)
    assert atoms.p_null == pytest.approx([9 / 16, 6 / 16, 1 / 16], rel=1e-12)
    assert atoms.p_alt == pytest.approx([3 / 16, 10 / 16, 3 / 16], rel=1e-12)
    assert atoms.alt_singular_mass == 0.0


def test_lr_atoms_n1():
    atoms = lr_atoms(RR3, Composition(1, 0))
    assert atoms.lr == pytest.approx([1 / 3, 3.0], rel=1e-12)
    assert atoms.p_null == pytest.approx([0.75, 0.25], rel=1e-12)


def test_lr_atoms_martingale_general_k():
    ch = full_channel(np.random.default_rng(11), 3)
    atoms = lr_atoms(ch, Composition(9, 4))
    assert float(atoms.p_null.sum()) == pytest.approx(1.0, abs=1e-9)
    assert float(atoms.p_alt.sum()) == pytest.approx(1.0, abs=1e-9)
    assert float(np.dot(atoms.lr, atoms.p_null)) == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diff(atoms.lr) > 0)  # atoms are strictly sorted


def test_lr_atoms_rejects_k_equal_n():
    with pytest.raises(ValidationError, match="k <= n-1"):
        lr_atoms(RR3, Composition(3, 3))


def test_lr_atoms_rejects_singular():
    ch = validate_channel([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValidationError, match="SINGULAR"):
        lr_atoms(ch, Composition(2, 0))


def test_null_support_channel_gets_zero_ratio_atoms():
    # W1 puts no mass on symbol 0, so histograms that need it have ratio 0
    ch = validate_channel([0.5, 0.5], [0.0, 1.0])
    atoms = lr_atoms(ch, Composition(2, 0))
    assert atoms.lr[0] == 0.0
    assert atoms.alt_singular_mass == 0.0
    # reversing moves that null mass into singular mass
    rev = reverse_atomization(atoms)
    assert rev.alt_singular_mass == pytest.approx(float(atoms.p_null[0]), rel=1e-12)


def test_reverse_twice_is_identity():
    ch = validate_channel([0.5, 0.5], [0.0, 1.0])
    atoms = lr_atoms(ch, Composition(3, 0))
    back = reverse_atomization(reverse_atomization(atoms))
    assert back.lr == pytest.approx(atoms.lr, rel=1e-12)
    assert back.p_null == pytest.approx(atoms.p_null, rel=1e-12)
    assert back.p_alt == pytest.approx(atoms.p_alt, rel=1e-12)
    assert back.alt_singular_mass == atoms.alt_singular_mass


def test_reverse_refuses_a_ratio_whose_inverse_overflows():
    # W1/W0 = 2.1e-323 at symbol 0: 1/L overflows a double, where the reverse
    # curve read delta = 1 (n = 1) or nan (n = 30); the forward curve stands
    ch = validate_channel([0.7018249685416487, 0.29817503145835145], [1.5e-323, 1.0])
    for n in (1, 30):
        atoms = lr_atoms(ch, Composition(n, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="1/L overflows a double"):
                reverse_atomization(atoms)
    assert privacy_curve(lr_atoms(ch, Composition(1, 0)), [0.0]).delta[0] == 0.70182496854164844


def _sorted_reversal(atoms):
    """Arrays of `reverse_atomization` as a sort of the reversed atoms orders them."""
    keep = atoms.lr != 0.0
    lr, p_null, p_alt = 1.0 / atoms.lr[keep], atoms.p_alt[keep], atoms.p_null[keep]
    if atoms.alt_singular_mass > 0.0:
        lr = np.append(lr, 0.0)
        p_null = np.append(p_null, atoms.alt_singular_mass)
        p_alt = np.append(p_alt, 0.0)
    order = np.argsort(lr)
    return lr[order], p_null[order], p_alt[order]


@pytest.mark.parametrize("k", [0, 5])
def test_reverse_atomization_orders_as_a_sort_would(k):
    # with and without zero-ratio atoms and alt-singular mass
    for ch in (validate_channel([0.5, 0.5], [0.0, 1.0]), full_channel(np.random.default_rng(3), 3)):
        atoms = lr_atoms(ch, Composition(12, k))
        for source in (atoms, reverse_atomization(atoms)):
            got = reverse_atomization(source)
            for array, expected in zip((got.lr, got.p_null, got.p_alt), _sorted_reversal(source)):
                assert np.array_equal(array, expected)
            assert got.alt_singular_mass == float(source.p_null[source.lr == 0.0].sum())


def test_binomial_atoms_match_generic():
    ch = full_channel(np.random.default_rng(21), 2)
    a = binomial_lr_atoms(ch, 12)
    b = fold_atoms(ch, Composition(12, 0))
    assert a.lr == pytest.approx(b.lr, rel=1e-12)
    assert a.p_null == pytest.approx(b.p_null, rel=1e-12)


def test_generic_atoms_stay_finite_where_masses_underflow():
    # at n=600 the far-tail histogram masses of the fold underflow below the
    # smallest normal double; those cells are dropped instead of dividing 0 by 0
    atoms = fold_atoms(RR3, Composition(600, 0))
    assert np.all(np.isfinite(atoms.lr))
    assert divergences(atoms).jsd == pytest.approx(
        divergences(binomial_lr_atoms(RR3, 600)).jsd, rel=1e-12
    )


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The fold's scratch: at most three flat buffers of _FOLD_BLOCK float64 cells
# (at these sizes no axis-0 slab is larger).
BLOCK_SCRATCH = 3 * 8 * fold._FOLD_BLOCK


def test_lr_atoms_memory_is_linear_in_cells():
    ch = full_channel(np.random.default_rng(7), 3)
    n = 400
    assert _peak_bytes(lambda: lr_atoms(ch, Composition(n, 0))) < 100 * (n + 1) ** 2
    # k > 0: one float64 array of the dense cells (the base law, from which
    # the last message is folded block by block), 32 bytes for each of the
    # C(n+3, 3) cells that can hold mass (the kept masses, and the sort's
    # copies once the dense array is freed) and the block scratch
    ch, n = full_channel(np.random.default_rng(7), 4), 59
    cells = math.comb(n + 3, 3)
    bound = 8 * (n + 1) ** 3 + 32 * cells + BLOCK_SCRATCH + 500_000
    assert _peak_bytes(lambda: lr_atoms(ch, Composition(n, 20))) < bound


def test_lr_atoms_merge_peak_holds_no_unsorted_ratios():
    # k > 0 at d = 3: the peak is the sort's, once the dense law is freed:
    # the kept masses and ratios (24 bytes a cell), the sort order (8) and
    # one sorted copy (8).  The sort owns the three arrays and frees each
    # unsorted one once its sorted copy is made (40 bytes a cell, 3.23 MB
    # here); holding the unsorted masses too was 48, the ratios too 56
    # (4.60 MB)
    ch, n = full_channel(np.random.default_rng(7), 3), 400
    cells = math.comb(n + 2, 2)
    assert _peak_bytes(lambda: lr_atoms(ch, Composition(n, 133))) < 48 * cells + 200_000


# The k = 0 chain's and the per-atom sums' scratch: `_binom_pmf`'s
# temporaries on one block of _CELL_BLOCK entries take about 70 B an entry.
CELL_SCRATCH = 128 * exact_dist._CELL_BLOCK


# The k = 0 byte-budget pins: channel and n by case.  On "d3-ties" many
# cells share one mathematical ratio, which rounding splits into distinct
# doubles: its 485,195 built cells hold 168,815 atoms, where joining ratios
# within 1e-12 left 86,768.
K0_CASES = {
    2: (rr_channel(1.1), 950_000),
    3: (full_channel(np.random.default_rng(7), 3), 1000),
    "d3-ties": (validate_channel([0.5, 0.3, 0.2], [0.2, 0.35, 0.45]), 1000),
}


def _k0_case(case):
    """The channel and n of a k = 0 byte-budget pin, and the cells its chain builds."""
    ch, n = K0_CASES[case]
    cells = sum(block[0].size for block in _canonical_cells(ch, n, DEFAULT_ATOM_CAP))
    return ch, n, cells


@pytest.mark.parametrize("d", list(K0_CASES))
def test_k0_lr_atoms_peak_is_bounded_per_built_cell(d):
    # the last level streams into `_atomize` in blocks, with no temporary of
    # its size: the peak is the sort, the kept ratios and masses, the
    # permutation and one sorted copy (40 B a kept cell).  The cell-sized
    # chain peaked at about 93 B a cell at d = 2 and 100 at d = 3
    ch, n, cells = _k0_case(d)
    assert _peak_bytes(lambda: lr_atoms(ch, Composition(n, 0))) < 48 * cells + CELL_SCRATCH


@pytest.mark.parametrize("d", list(K0_CASES))
def test_jsd_and_kolmogorov_hold_one_array_of_the_atoms(d):
    # the per-atom terms, _CELL_BLOCK at a time: the JSD's terms, which
    # `_fsum` sorts in place (8 B an atom; 16 B with a sorted copy), the
    # Kolmogorov distance's CDF (8 B); each took 48-64 B an atom with
    # atoms-sized temporaries
    ch, n, _ = _k0_case(d)
    atoms = lr_atoms(ch, Composition(n, 0))
    mu = gdp_mu(ch, n).mu
    assert _peak_bytes(lambda: _jsd(atoms)) < 8 * atoms.lr.size + CELL_SCRATCH
    assert _peak_bytes(lambda: kolmogorov_to_gaussian(atoms, mu, Hypothesis.ALT)) < 16 * atoms.lr.size + CELL_SCRATCH


@pytest.mark.parametrize("d", [2, 3])
def test_divergences_hold_one_array_of_the_atoms(d):
    # each of the five sums writes its terms _CELL_BLOCK atoms at a time into
    # one array, which `_fsum` sorts in place (8 B an atom; 16 B with a
    # sorted copy); with TV's and KL's masks and the squared and powered
    # terms taken over all atoms at once the peak was 26 B an atom (11.1 MB
    # at d = 3)
    ch, n, _ = _k0_case(d)
    atoms = lr_atoms(ch, Composition(n, 0))
    assert _peak_bytes(lambda: divergences(atoms, renyi_orders=(2.0, 3.5))) < 8 * atoms.lr.size + CELL_SCRATCH


def _chain_bits():
    """The outputs of the blocked k = 0 kernels: pmfs, k = 0 and m-message atoms, JSD and Kolmogorov distances."""
    out = []
    K = np.arange(602.0)
    counts = np.floor(np.random.default_rng(9).uniform(K, 602.0))  # one binomial of >= K trials per entry
    table = _stirlerr(np.arange(602.0))
    for log in (False, True):
        out += [_binom_pmf(K, 601, p, log=log) for p in (0.05, 0.5)]
        out += [_binom_pmf(K, counts, 0.3, table, log=log), _binom_pmf(K[:0], 601, 0.3, log=log)]
    cases = [(rr_channel(1.1), 3000), (full_channel(np.random.default_rng(7), 3), 60), (_skewed_channel(3), 30)]
    cases.append((full_channel(np.random.default_rng(7), 4), 14))
    for ch, n in cases:
        atoms = lr_atoms(ch, Composition(n, 0))
        mu = gdp_mu(ch, n).mu
        out += [atoms.lr, atoms.p_null, atoms.p_alt, atoms.dropped_null_mass, atoms.dropped_alt_mass, _jsd(atoms)]
        out += [kolmogorov_to_gaussian(atoms, mu, hypothesis) for hypothesis in Hypothesis]
    mm_cases = [
        (full_channel(np.random.default_rng(300 + d), d), n, m) for d, n, m in ((2, 40, 3), (3, 12, 1), (3, 8, 2))
    ]
    # a d = 2 level of two default blocks: the window at nm = 15000 holds 4,899 cells
    mm_cases.append((rr_channel(1.1), 5000, 3))
    for ch, n, m in mm_cases:
        atoms = unbundled_lr_atoms(ch, n, m)
        out += [atoms.lr, atoms.p_null, atoms.p_alt, atoms.dropped_null_mass]
    return out


@pytest.mark.parametrize("block", [1, 7])
def test_cell_blocks_keep_the_bits(monkeypatch, block):
    # every blocked kernel is elementwise or an order-free sum, so any block
    # size gives the default's bits, with blocks ending inside a parent's run
    # of cells and cells dropped within a block (the skewed channel)
    reference = _chain_bits()
    monkeypatch.setattr(exact_dist, "_CELL_BLOCK", block)
    for got, want in zip(_chain_bits(), reference, strict=True):
        assert np.array_equal(got, want), (got, want)


def _bd0_until_converged(x, mean):
    """`_bd0` as it was, summing its series until the sum stopped changing."""
    out = x * np.log(x / mean) + mean - x
    near = np.abs(x - mean) < 0.1 * (x + mean)
    xs = x[near]
    if np.ndim(mean):
        mean = mean[near]
    v = (xs - mean) / (xs + mean)
    s = (xs - mean) * v
    ej = 2.0 * xs * v
    v *= v
    for j in range(1, 1000):
        ej *= v
        nxt = s + ej / (2 * j + 1)
        if np.array_equal(nxt, s):
            break
        s = nxt
    out[near] = s
    return out


def test_bd0_fixed_series_has_the_converged_bits():
    # a fixed 9 terms after the first give the bits of summing until the sum
    # stops changing, with v = (x - mean) / (x + mean) up to just below 0.1
    # in both signs, for scalar and array means, and on integer counts
    v = np.concatenate((np.linspace(-0.0999999, 0.0999999, 4001), [-0.09999999999, 0.09999999999, 0.0]))
    for mean in (0.37, 12.5, 3.3e4, 7.1e8):
        x = mean * (1.0 + v) / (1.0 - v)
        assert np.array_equal(_bd0(x, mean), _bd0_until_converged(x, mean))
    means = np.random.default_rng(25).uniform(0.5, 1e6, v.size)
    x = means * (1.0 + v) / (1.0 - v)
    assert np.array_equal(_bd0(x, means), _bd0_until_converged(x, means))
    K = np.arange(1.0, 2001.0)
    for mean in (1000.3, 1500.0, 900.0):
        assert np.array_equal(_bd0(K, mean), _bd0_until_converged(K, mean))
    assert np.array_equal(_bd0(K, K[::-1].copy()), _bd0_until_converged(K, K[::-1].copy()))


def test_bd0_and_binom_pmf_at_a_subnormal_mean():
    # n p = 1e-323: x / mean overflows a double, its log does not; no warning,
    # and the log masses are log C(2, K) + K log p + (2 - K) log1p(-p)
    p, log_p = 5e-324, math.log(5e-324)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _binom_pmf(np.array([0.0, 1.0, 2.0]), 2, p, log=True)
        x, means = np.array([1.0, 2.0, 3.0]), np.array([1e-323, 1e-323, 2.5])
        deviance = _bd0(x, means)
    assert got[0] == 2.0 * math.log1p(-p)
    assert got[1:] == pytest.approx([math.log(2.0) + log_p, 2.0 * log_p], rel=1e-14)
    assert deviance[:2] == pytest.approx(x[:2] * (np.log(x[:2]) - math.log(1e-323)) - x[:2], rel=1e-14)
    assert deviance[2] == _bd0(x[2:], 2.5)[0]


def test_histogram_law_memory_is_the_dense_fold():
    # the law is one dense array, folded in place, with no per-histogram
    # objects: the peak is that array and the block scratch
    ch, n = full_channel(np.random.default_rng(5), 3), 400
    assert _peak_bytes(lambda: histogram_law(ch, Composition(n, 133))) < 8 * (n + 1) ** 2 + BLOCK_SCRATCH + 500_000


def test_ratio_table_memory_is_two_dense_arrays():
    # the null law in place in the base law's array, the alt law and then the
    # ratio in one more
    ch, n = full_channel(np.random.default_rng(7), 4), 59
    peak = _peak_bytes(lambda: _ratio_table(ch, Composition(n, 20), DEFAULT_ATOM_CAP))
    assert peak < 2 * 8 * (n + 1) ** 3 + BLOCK_SCRATCH + 500_000


def test_unbundled_memory_is_linear_in_cells():
    # the m-message chain over nm = 400 messages builds every one of the
    # C(402, 2) = 80,601 cells; each holds its m + 1 coefficients only while
    # its level is built.  The last level comes in blocks, joined once into
    # its counts, parents and log masses, and the peak is about 109 B a
    # cell (125 B when the level came whole and its log masses were held
    # twice; the dense fold it replaced peaked at 54 B)
    ch, n, m = full_channel(np.random.default_rng(7), 3), 100, 4
    assert _peak_bytes(lambda: unbundled_lr_atoms(ch, n, m)) < 120 * math.comb(n * m + 2, 2)


def test_atomization_check_rejects_nan():
    atoms = lr_atoms(RR3, Composition(2, 0))
    atoms.lr[1] = np.nan
    with pytest.raises(InternalInvariantError, match="non-finite"):
        _check_atomization(atoms)


def test_import_leaves_scipy_stats_unloaded():
    # every public path that once called a scipy kernel runs, and no scipy
    # module (scipy.stats included) is loaded afterwards
    code = (
        "import sys, numpy as np, shuffledp as s\n"
        "ch = s.rr_channel(1.1)\n"
        "s.binomial_curve(ch, 100_000, [0.01, 0.1])\n"
        "s.jsd_canonical_asymptotic(ch, 100_000)\n"
        "mu = s.gdp_mu(ch, 400).mu\n"
        "s.gdp_delta(0.5, mu)\n"
        "s.gaussian_tradeoff(mu, np.linspace(0.0, 1.0, 5))\n"
        "s.kolmogorov_to_gaussian(s.binomial_lr_atoms(ch, 400), mu, s.Hypothesis.NULL)\n"
        "s.unbundled_lr(ch, 30, 2, (20, 40))\n"
        "s.chernoff_delta(ch, 400, 0.2)\n"
        "lam = s.sample_privacy_loss(ch, s.Composition(40, 7), s.Hypothesis.ALT,"
        " s.SimConfig(seed=1, reps=100))\n"
        "s.kolmogorov_to_gaussian(lam, mu, s.Hypothesis.ALT)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
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


PMF_EPS0 = [0.05, 1.1, 3.0, 8.0]
PMF_N = [1, 2, 57, 2001, 950_000, 2_000_000]


def _kept_window(eps0, n):
    p0 = float(rr_channel(eps0).W0[1])
    lo, hi = _window_ends(n, p0)
    K = np.arange(lo, hi + 1, dtype=np.float64)
    return p0, K, _binom_pmf(K, n, p0)


@pytest.mark.parametrize("eps0", PMF_EPS0)
@pytest.mark.parametrize("n", PMF_N)
def test_pmf_matches_mpmath_at_the_mode_and_in_the_tails(eps0, n):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    p0, K, pmf = _kept_window(eps0, n)
    kept = K[pmf >= MIN_NULL_MASS]
    lo, hi = int(kept[0]), int(kept[-1])
    mean, sd = n * p0, math.sqrt(n * p0 * (1.0 - p0))
    points = {math.floor((n + 1) * p0), lo, hi}
    points |= {round(mean + z * sd) for z in (-8, -3, 3, 8)}
    p = mpmath.mpf(p0)
    for k in sorted(min(max(x, lo), hi) for x in points):
        exact = mpmath.binomial(n, k) * p**k * (1 - p) ** (n - k)
        got = pmf[k - int(K[0])]
        assert float(abs(got - exact) / exact) <= 1e-11, (k, got, exact)


@pytest.mark.parametrize("eps0", PMF_EPS0)
@pytest.mark.parametrize("n", PMF_N)
def test_boost_pmf_is_binom_pmf_on_the_window_and_zero_outside(eps0, n):
    # scipy.stats.binom.pmf evaluates Boost's binomial pmf: _binom_pmf agrees
    # with it to 1e-10 relative on the window, and Boost's mass outside is 0
    binom = pytest.importorskip("scipy.stats").binom  # the oracle only
    p0, K, pmf = _kept_window(eps0, n)
    full = binom.pmf(np.arange(n + 1), n, p0)
    inside = K.astype(np.int64)
    oracle = full[inside]
    big = oracle >= 1e-300
    assert np.all(np.abs(pmf[big] - oracle[big]) <= 1e-10 * oracle[big])
    assert abs(math.fsum(pmf) - 1.0) <= 1e-14
    outside = np.ones(n + 1, dtype=bool)
    outside[inside] = False
    assert not np.any(full[outside])


@pytest.mark.parametrize(
    "W0",
    [rr_channel(eps0).W0 for eps0 in PMF_EPS0] + [[0.7, 0.2, 0.1], [0.05, 0.15, 0.8], [1e-20, 0.5, 0.5]],
    ids=[f"rr{eps0}" for eps0 in PMF_EPS0] + ["d3-skew", "d3-skew-low", "d3-tiny-share"],
)
def test_window_is_the_integer_rule_and_its_extra_counts_have_zero_mass(W0):
    # the window is [floor(n p0) - isqrt(400 n) - 1, ceil(n p0) + isqrt(400 n) + 1]
    # in [0, n] at every n: it holds Hoeffding's [n p0 - sqrt(400 n), n p0 +
    # sqrt(400 n)], and the counts it adds past that have mass exactly 0.0,
    # so the drop rule removes them with nothing dropped
    for p0 in map(float, W0):
        for n in (1, 2, 57, 400, 401, 2001, 100_000, 950_000, 3_000_000):
            exact, half = n * Fraction(p0), math.isqrt(400 * n) + 1
            lo, hi = _window_ends(n, p0)
            assert (lo, hi) == (max(0, math.floor(exact) - half), min(n, math.ceil(exact) + half))
            wide = math.sqrt(400.0 * n)
            inner_lo, inner_hi = max(0, math.floor(n * p0 - wide)), min(n, math.ceil(n * p0 + wide))
            assert lo <= inner_lo <= inner_hi <= hi
            added = np.array([*range(lo, inner_lo), *range(inner_hi + 1, hi + 1)], dtype=np.float64)
            assert not np.any(_binom_pmf(added, n, p0)), (p0, n)


def test_binomial_atoms_drop_subnormal_null_mass():
    # at rr eps0=3, n=30000 the far tail holds ~70 counts of subnormal null
    # mass; merged, their ratios came out as 0.0, 1/6, 2.125, ... instead of
    # the affine L(K) in [e^-3, e^3]
    eps0 = 3.0
    atoms = binomial_lr_atoms(rr_channel(eps0), 30_000)
    assert np.all(atoms.p_null >= np.finfo(np.float64).tiny)
    assert np.all(np.diff(atoms.lr) > 0.0)
    assert atoms.lr[0] >= math.exp(-eps0) * (1.0 - 1e-12)
    assert atoms.lr[-1] <= math.exp(eps0) * (1.0 + 1e-12)
    assert reverse_atomization(atoms).alt_singular_mass == 0.0
    assert math.isfinite(divergences(atoms, renyi_orders=(2.0,)).renyi[2.0])


def test_dropped_mass_is_recorded():
    # rr eps0=3, n=30000 drops 67 counts of subnormal null mass; each holds
    # null mass below MIN_NULL_MASS and alt mass below max w times that
    ch = rr_channel(3.0)
    atoms = binomial_lr_atoms(ch, 30_000)
    bound = 67 * MIN_NULL_MASS * float(score_stats(ch).w.max())
    assert 0.0 < atoms.dropped_null_mass <= bound
    assert 0.0 < atoms.dropped_alt_mass <= bound
    rev = reverse_atomization(atoms)
    assert (rev.dropped_null_mass, rev.dropped_alt_mass) == (
        atoms.dropped_alt_mass,
        atoms.dropped_null_mass,
    )
    # the generic engine: at most n+1 cells, ratios at most max w = 3
    generic = lr_atoms(RR3, Composition(2000, 500))
    assert 0.0 < generic.dropped_null_mass <= 2001 * MIN_NULL_MASS
    assert 0.0 < generic.dropped_alt_mass <= 3 * 2001 * MIN_NULL_MASS
    assert lr_atoms(RR3, Composition(30, 0)).dropped_null_mass == 0.0


def test_atomization_check_rejects_unsorted_ratios():
    atoms = lr_atoms(RR3, Composition(3, 0))
    atoms.lr[[0, 1]] = atoms.lr[[1, 0]]
    with pytest.raises(InternalInvariantError, match="strictly increasing"):
        _check_atomization(atoms)


def test_binomial_atoms_reject_d3():
    ch = full_channel(np.random.default_rng(1), 3)
    with pytest.raises(ValidationError, match="d=2"):
        binomial_lr_atoms(ch, 5)


def test_binomial_atoms_pair_preconditions():
    with pytest.raises(ValidationError, match="k <= n-1"):
        binomial_lr_atoms(RR3, 0)
    with pytest.raises(ValidationError, match="SINGULAR"):
        binomial_lr_atoms(validate_channel([0.0, 1.0], [0.5, 0.5]), 3)


# ---------------------------------------------------------------------------
# privacy curves


def test_curve_anchors_rr3_n2():
    atoms = lr_atoms(RR3, Composition(2, 0))
    curve = privacy_curve(atoms, [0.0, LN2, LN3], Sidedness.FORWARD)
    assert curve.delta == pytest.approx([3 / 8, 1 / 16, 0.0], abs=1e-15)


def test_curve_reverse_and_two_sided():
    atoms = lr_atoms(RR3, Composition(2, 0))
    fwd = privacy_curve(atoms, [LN2], Sidedness.FORWARD).delta[0]
    rev = privacy_curve(atoms, [LN2], Sidedness.REVERSE).delta[0]
    two = privacy_curve(atoms, [LN2], Sidedness.TWO_SIDED).delta[0]
    assert fwd == pytest.approx(1 / 16, abs=1e-15)
    assert rev == pytest.approx(3 / 16, abs=1e-15)
    assert two == max(fwd, rev)


def test_curve_delta_zero_equals_tv():
    atoms = lr_atoms(RR3, Composition(5, 0))
    tv = divergences(atoms).tv
    assert privacy_curve(atoms, [0.0]).delta[0] == pytest.approx(tv, rel=1e-12)


def test_curve_beyond_the_exp_range_is_the_singular_mass_without_a_warning():
    # above eps = log(DBL_MAX) ~ 709.78 the threshold e^eps is infinite: no
    # atom lies above it, and delta is the alt-singular mass (0 forward; the
    # zero-ratio atom's null mass in reverse)
    atoms = lr_atoms(validate_channel([0.5, 0.5], [0.0, 1.0]), Composition(6, 0))
    eps = [709.0, 710.0, 800.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        forward = privacy_curve(atoms, eps).delta
        reverse = privacy_curve(atoms, eps, Sidedness.REVERSE).delta
        two_sided = privacy_curve(atoms, eps, Sidedness.TWO_SIDED).delta
    assert forward.tolist() == [0.0, 0.0, 0.0]
    singular = reverse_atomization(atoms).alt_singular_mass
    assert singular == pytest.approx(1 / 64, rel=1e-12)
    assert reverse.tolist() == two_sided.tolist() == [singular] * 3


def test_curve_monotone_and_bounded():
    ch = full_channel(np.random.default_rng(2), 3)
    atoms = lr_atoms(ch, Composition(8, 3))
    curve = privacy_curve(atoms, np.linspace(0.0, 3.0, 40))
    assert np.all(np.diff(curve.delta) <= 1e-15)
    assert np.all((curve.delta >= 0.0) & (curve.delta <= 1.0))


def test_curve_rejects_bad_grid():
    atoms = lr_atoms(RR3, Composition(2, 0))
    with pytest.raises(ValidationError):
        privacy_curve(atoms, [-0.5])
    with pytest.raises(ValidationError):
        privacy_curve(atoms, [])


def test_curve_refuses_a_sidedness_that_is_not_a_sidedness():
    atoms = lr_atoms(RR3, Composition(2, 0))
    with pytest.raises(ValidationError, match="unknown sidedness 'forward'"):
        privacy_curve(atoms, [0.5], "forward")


def test_binomial_curve_matches_exact_enumeration():
    # at n=600 the generic enumeration drops underflowed cells
    ch = full_channel(np.random.default_rng(31), 2)
    eps = np.geomspace(1e-3, 5.0, 40)
    for n in (160, 600):
        direct = privacy_curve(fold_atoms(ch, Composition(n, 0)), eps).delta
        binomial = binomial_curve(ch, n, eps).delta
        np.testing.assert_allclose(binomial, direct, rtol=1e-10, atol=1e-300)


def test_binomial_curve_deep_tail_value():
    v = binomial_curve(RR3, 1000, np.array([0.5])).delta[0]
    assert v == pytest.approx(2.917049432432106e-64, rel=1e-10)


def test_binomial_curve_large_n_pins():
    # reference values: the binomial sum in 40-digit arithmetic (mpmath)
    delta = binomial_curve(rr_channel(1.1), 950_000, [0.002, 0.0045]).delta
    np.testing.assert_allclose(
        delta, [2.2400965128680424e-5, 2.0308922909592553e-8], rtol=1e-11
    )


def _brute_hockey_stick(p, q, singular, t):
    """sum_x (p(x) - t q(x))_+ plus mass p puts where q has none."""
    return math.fsum(max(a - t * b, 0.0) for a, b in zip(p, q)) + singular


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_curve_matches_brute_force_sum(seed):
    rng = np.random.default_rng(seed)
    eps = np.concatenate(([0.0, math.log(2.0)], rng.uniform(0.0, 2.0, 30)))
    thresholds = np.exp(eps)
    assert thresholds[1] == 2.0
    # ratios include 0, exact thresholds (2 forward, 1/2 reversed) and ties
    lr = np.sort(np.concatenate(
        (rng.uniform(0.0, 8.0, 60), [0.0, 0.5, 2.0], thresholds[2:6])
    ))
    p_null = rng.uniform(0.0, 1.0, lr.size)
    p_null /= p_null.sum()
    singular = 0.05
    p_alt = lr * p_null
    atoms = LrAtomization(n=1, k=0, lr=lr, p_null=p_null, p_alt=p_alt, alt_singular_mass=singular)
    fwd = [min(1.0, _brute_hockey_stick(p_alt, p_null, singular, t)) for t in thresholds]
    rev = [min(1.0, _brute_hockey_stick(p_null, p_alt, 0.0, t)) for t in thresholds]
    expected = {
        Sidedness.FORWARD: fwd,
        Sidedness.REVERSE: rev,
        Sidedness.TWO_SIDED: np.maximum(fwd, rev),
    }
    for sidedness, want in expected.items():
        got = privacy_curve(atoms, eps, sidedness).delta
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def test_curve_memory_is_linear_in_atoms_and_grid():
    rng = np.random.default_rng(5)
    lr = np.sort(rng.uniform(0.0, 3.0, 200_000))
    p_null = rng.uniform(0.0, 1.0, lr.size)
    p_null /= p_null.sum()
    atoms = LrAtomization(n=1, k=0, lr=lr, p_null=p_null, p_alt=lr * p_null)
    eps = np.linspace(0.0, 1.2, 64)
    assert _peak_bytes(lambda: privacy_curve(atoms, eps, Sidedness.TWO_SIDED)) < 32 * 2**20


def test_reverse_and_two_sided_curves_hold_no_more_than_the_forward_one():
    # both directions read the one ascending atom array, from either end; a
    # reversed atomization (three more arrays, with 1/L) peaked at 9.34 MiB
    # on "d3-ties" against 5.15 MiB forward, on the CLI's default grid
    ch, n = K0_CASES["d3-ties"]
    atoms = lr_atoms(ch, Composition(n, 0))
    eps = parse_eps_grid(DEFAULT_EPS_SPEC)
    forward = _peak_bytes(lambda: privacy_curve(atoms, eps))
    for sidedness in (Sidedness.REVERSE, Sidedness.TWO_SIDED):
        assert _peak_bytes(lambda: privacy_curve(atoms, eps, sidedness)) <= 1.1 * forward, sidedness


# ---------------------------------------------------------------------------
# divergences and trade-off


def test_divergences_n1_oracles():
    report = divergences(binomial_lr_atoms(RR3, 1), renyi_orders=(2.0,))
    assert report.jsd == pytest.approx(0.13081203594113695913, abs=1e-15)
    assert report.chi2 == pytest.approx(4 / 3, rel=1e-12)
    assert report.renyi[2.0] == pytest.approx(math.log(7 / 3), rel=1e-12)
    assert report.tv == pytest.approx(0.5, rel=1e-12)  # (3-1)*0.25


def test_divergences_match_per_atom_sums():
    atoms = binomial_lr_atoms(rr_channel(1.1), 950_000)
    pairs = list(zip(atoms.lr.tolist(), atoms.p_null.tolist()))
    report = divergences(atoms, renyi_orders=(1.5, 2.0))

    def jsd_term(t):
        if t == 0.0:
            return 0.5 * LN2
        u = (t - 1.0) / (t + 1.0)
        if abs(u) <= 0.5:
            return (2.0 * u * math.atanh(u) + math.log1p(-u * u)) * (1.0 + t) / 4.0
        return 0.5 * math.log(2.0 / (1.0 + t)) + 0.5 * t * math.log(2.0 * t / (1.0 + t))

    want = {
        "jsd": math.fsum(p * jsd_term(l) for l, p in pairs),
        "tv": math.fsum(p * (l - 1.0) for l, p in pairs if l > 1.0),
        "chi2": math.fsum(p * (l - 1.0) ** 2 for l, p in pairs),
        "kl": math.fsum(p * l * math.log(l) for l, p in pairs if l > 0.0),
    }
    for name, value in want.items():
        assert getattr(report, name) == pytest.approx(value, rel=1e-13), name
    for alpha in (1.5, 2.0):
        moment = math.fsum(p * l**alpha for l, p in pairs)
        assert report.renyi[alpha] == pytest.approx(
            math.log(moment) / (alpha - 1.0), rel=1e-13
        )


def test_jsd_kernel_matches_mpmath_near_and_far_from_ratio_one():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    rng = np.random.default_rng(12)
    t = np.concatenate(
        [
            [0.0, 1.0, 1.0 / 3.0, 3.0],
            1.0 + rng.uniform(-1e-6, 1e-6, 100),
            1.0 + rng.uniform(-1e-3, 1e-3, 100),
            1.0 + rng.uniform(-0.5, 0.5, 100),
            10.0 ** rng.uniform(-8.0, 8.0, 200),
        ]
    )
    got = _jsd_kernel(t)
    for ti, gi in zip(t.tolist(), got.tolist()):
        x = mpmath.mpf(ti)
        want = mpmath.log(2) / 2 if x == 0 else (mpmath.log(2 / (1 + x)) + x * mpmath.log(2 * x / (1 + x))) / 2
        assert gi == (0.0 if want == 0 else pytest.approx(float(want), rel=4e-15)), ti


@pytest.mark.parametrize(
    "make_atoms",
    [
        lambda: binomial_lr_atoms(rr_channel(1.1), 950_000),
        lambda: lr_atoms(full_channel(np.random.default_rng(3), 3), Composition(60, 0)),
    ],
    ids=["binomial-950k", "d3-n60"],
)
def test_divergences_equal_fsum_of_unsorted_terms(make_atoms):
    # math.fsum is exactly rounded, so summing in decreasing order changes
    # no bit of any divergence
    atoms = make_atoms()
    lr, p = atoms.lr, atoms.p_null
    report = divergences(atoms, renyi_orders=(1.5, 2.0))
    above, pos = lr > 1.0, lr > 0.0
    assert report.jsd == math.fsum(p * _jsd_kernel(lr))
    assert report.tv == math.fsum(p[above] * (lr[above] - 1.0))
    assert report.chi2 == math.fsum(p * (lr - 1.0) ** 2)
    assert report.kl == math.fsum(p[pos] * lr[pos] * np.log(lr[pos]))
    for alpha in (1.5, 2.0):
        assert report.renyi[alpha] == math.log(math.fsum(p * lr**alpha)) / (alpha - 1.0)


def test_fsum_is_the_exact_sum_in_any_order():
    # mixed signs over 600 decades, with exact cancellations: every order
    # gives the correctly rounded sum, which Fraction arithmetic computes
    rng = np.random.default_rng(11)
    mags = 10.0 ** rng.uniform(-300.0, 300.0, 400)
    terms = np.concatenate([mags * rng.choice([-1.0, 1.0], mags.size), -mags[:50], [0.0, -0.0]])
    exact = float(sum(map(Fraction, terms.tolist()), Fraction(0)))
    assert _fsum(terms) == exact
    assert _fsum(np.sort(terms)) == exact
    assert _fsum(np.sort(terms)[::-1]) == exact
    for _ in range(5):
        assert _fsum(rng.permutation(terms)) == exact
    assert _fsum(np.array([])) == 0.0


def test_fsum_beyond_the_double_range_is_its_signed_infinity():
    # math.fsum refuses a partial sum beyond the double range (a bare
    # OverflowError); the rescaled sum comes back into range when the true
    # sum does, and is +-inf when it does not
    assert _fsum(np.array([1e308, 1e308, -1e308])) == 1e308
    assert _fsum(np.array([1e308, 1e308])) == math.inf
    assert _fsum(np.array([-1e308, -1e308, 1.0])) == -math.inf


def test_chi2_contracts_exactly_like_one_over_n():
    # the chi-square of the k=0 pair is exactly the channel chi-square / n
    chan_chi2 = score_stats(RR3).chi2
    for n in (1, 2, 5, 17):
        atoms = binomial_lr_atoms(RR3, n)
        assert divergences(atoms).chi2 == pytest.approx(chan_chi2 / n, rel=1e-12)


def test_divergences_chi2_beyond_the_square_range():
    # ratios up to 4.6e199 square beyond the double range, but each term
    # p (lr - 1)^2 is finite when its mass multiplies first
    ch = validate_channel([1e-200, 1.0], [0.4576165114985846, 0.5423834885014154])
    atoms = lr_atoms(ch, Composition(200, 173))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert divergences(atoms).chi2 == 1.4336109135173833e139


def test_renyi_moment_where_the_ratio_power_overflows():
    # the top ratio L = 2.0e199 squares beyond the double range, but its term
    # p L^2 = 2.0e199 does not; 50-digit mpmath over the same atoms gives
    # 458.92265623719494 (the direct L^2 made it inf, with an overflow warning)
    ch = validate_channel([1.231296895499659e-200, 1.0], [1.0, 2.0963634922239936e-300])
    atoms = lr_atoms(ch, Composition(7, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        renyi = divergences(atoms, renyi_orders=(2.0,)).renyi[2.0]
    assert renyi == pytest.approx(458.92265623719494, rel=1e-12)


@pytest.mark.parametrize("w0, w1, comp, alpha, expected", [
    # the moment is beyond the double range: at 3.062 fsum's partial sum overflowed (a bare
    # OverflowError), from 3.064 a term did (inf, with an overflow warning); 50-digit mpmath
    ([1e-150, 1e-150, 1 - 2e-150], [0.4, 0.39, 0.21], Composition(1, 0), 3.062, 344.34482235692463),
    ([1e-150, 1e-150, 1 - 2e-150], [0.4, 0.39, 0.21], Composition(1, 0), 3.1, 344.34689399803422),
    ([1e-150, 1e-150, 1 - 2e-150], [0.4, 0.39, 0.21], Composition(1, 0), 4.0, 344.38064063992174),
    # at a large order every L^alpha above 1 overflows (50-digit mpmath over the same atoms)
    ([0.7310585786300049, 0.2689414213699951], [0.2689414213699951, 0.7310585786300049], Composition(10, 0),
     2000.0, 0.99393065689085442),
])
def test_renyi_divergence_beyond_the_moments_double_range(w0, w1, comp, alpha, expected):
    atoms = lr_atoms(validate_channel(w0, w1), comp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        renyi = divergences(atoms, renyi_orders=(alpha,)).renyi[alpha]
    assert renyi == pytest.approx(expected, rel=1e-12)


def test_kl_is_clipped_at_zero_where_the_ratios_round_to_one():
    # the ratios near 1 round to 1 (1 - 1.45e-30 is 1 in a double), so only
    # the atoms below 1 keep a KL term, and the sum read -1.4e-30
    ch = validate_channel([1.4529865522842032e-30, 1.0], [2.882070142324612e-100, 1.0])
    report = divergences(lr_atoms(ch, Composition(30, 10)), renyi_orders=(2.0,))
    assert (report.kl, report.renyi[2.0]) == (0.0, 0.0)
    assert report.chi2 > 0.0


def test_divergences_with_support_loss():
    ch = validate_channel([0.5, 0.5], [0.0, 1.0])
    atoms = lr_atoms(ch, Composition(2, 0))
    rev = reverse_atomization(atoms)
    report = divergences(rev, renyi_orders=(2.0,))
    assert math.isinf(report.chi2)
    assert math.isinf(report.kl)
    assert report.renyi[2.0] == math.inf
    assert report.tv <= 1.0
    # forward, L is the count of symbol 1 ~ Bin(2, 1/2): the zero ratio adds
    # 0^2 = 0 to the moment 0/4 + 1/2 + 4/4 = 1.5
    assert atoms.lr.tolist() == [0.0, 1.0, 2.0]
    assert divergences(atoms, renyi_orders=(2.0,)).renyi[2.0] == math.log(1.5)


def test_renyi_order_validation():
    atoms = lr_atoms(RR3, Composition(2, 0))
    with pytest.raises(ValidationError, match="exceed 1"):
        divergences(atoms, renyi_orders=(1.0,))
    for order in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="finite"):
            divergences(atoms, renyi_orders=(order,))


def test_tradeoff_vertices_n1():
    curve = tradeoff_curve(lr_atoms(RR3, Composition(1, 0)))
    assert curve.alpha == pytest.approx([0.0, 0.25, 1.0], rel=1e-12)
    assert curve.beta == pytest.approx([1.0, 0.25, 0.0], abs=1e-15)
    assert curve.beta_at(0.25) == pytest.approx(0.25, rel=1e-12)


def test_tradeoff_n2_oracle():
    curve = tradeoff_curve(lr_atoms(RR3, Composition(2, 0)))
    assert curve.beta_at(1 / 16) == pytest.approx(13 / 16, rel=1e-12)
    assert curve.beta_at(0.0) == 1.0
    assert curve.beta_at(1.0) == 0.0


def test_tradeoff_is_convex():
    ch = full_channel(np.random.default_rng(13), 3)
    curve = tradeoff_curve(lr_atoms(ch, Composition(7, 2)))
    slopes = np.diff(curve.beta) / np.diff(curve.alpha)
    assert np.all(np.diff(slopes) >= -1e-9)


def test_tradeoff_alpha_stays_monotone_when_its_sum_rounds_above_one():
    # the cumulative null mass of this pair reaches 1 + 2 ulps before its last
    # vertex; pinning only the last alpha to 1 made alpha step down there and
    # beta_at(1) read 1.1e-15
    ch = validate_channel(
        [0.31913179660069385, 0.3654704442577032, 0.31539775914160306],
        [0.31584039905427663, 0.3260063280713544, 0.35815327287436904],
    )
    curve = tradeoff_curve(lr_atoms(ch, Composition(40, 13)))
    assert np.all(np.diff(curve.alpha) >= 0.0)
    assert np.all(np.diff(curve.beta) <= 0.0)
    assert curve.beta_at(1.0) == 0.0


def test_tradeoff_singular_starts_below_one():
    ch = validate_channel([0.5, 0.5], [0.0, 1.0])
    rev = reverse_atomization(lr_atoms(ch, Composition(2, 0)))
    curve = tradeoff_curve(rev)
    assert curve.alpha[0] == 0.0
    assert curve.beta[0] == pytest.approx(1.0 - rev.alt_singular_mass, rel=1e-12)


# ---------------------------------------------------------------------------
# conditional score and linearization


def test_conditional_score_affine_at_k0():
    ch = full_channel(np.random.default_rng(17), 3)
    w = score_stats(ch).w
    comp = Composition(6, 0)
    for h in [(6, 0, 0), (2, 2, 2), (0, 1, 5)]:
        expected = float(np.dot(h, w)) / 6.0 - 1.0
        assert conditional_score(ch, comp, h) == pytest.approx(expected, abs=1e-12)


def test_conditional_score_is_martingale_increment():
    # E_null[U(N)] = 0 summed over the whole support
    ch = full_channel(np.random.default_rng(19), 3)
    comp = Composition(6, 2)
    counts, mass = histogram_law(ch, comp).cells()
    total = math.fsum(mass * conditional_score(ch, comp, counts))
    assert total == pytest.approx(0.0, abs=1e-10)


def test_conditional_score_batch_is_bit_identical_to_single_calls():
    ch = full_channel(np.random.default_rng(23), 3)
    comp = Composition(12, 5)
    counts, _ = histogram_law(ch, comp).cells()
    batch = conditional_score(ch, comp, counts)
    assert isinstance(batch, np.ndarray) and batch.shape == (len(counts),)
    singles = [conditional_score(ch, comp, h) for h in counts.tolist()]
    assert all(isinstance(x, float) for x in singles)
    assert np.array_equal(batch, singles)
    # a list of tuples is a batch too, and an empty batch scores nothing
    assert np.array_equal(conditional_score(ch, comp, list(map(tuple, counts.tolist()))), batch)
    assert conditional_score(ch, comp, np.zeros((0, 3), dtype=np.int64)).shape == (0,)
    assert conditional_score(ch, Composition(12, 0), np.zeros((0, 3), dtype=np.int64)).shape == (0,)


def test_conditional_score_validation():
    with pytest.raises(ValidationError, match="cells"):
        conditional_score(RR3, Composition(4, 1), (2, 1, 1))
    with pytest.raises(ValidationError, match="count vector"):
        conditional_score(RR3, Composition(4, 1), (2, 1))
    with pytest.raises(ValidationError, match="k <= n-1"):
        conditional_score(RR3, Composition(4, 4), (2, 2))
    with pytest.raises(ValidationError, match="count"):
        conditional_score(RR3, Composition(4, 1), (2.5, 1.5))
    # the null mass of (0, 2) is W0[1]^2 ~ 1e-310, a subnormal
    tiny = validate_channel([1.0 - 1e-155, 1e-155], [0.5, 0.5])
    with pytest.raises(ValidationError, match="MIN_NULL_MASS"):
        conditional_score(tiny, Composition(2, 0), (0, 2))


def test_conditional_score_batch_validation_names_the_row():
    tiny = validate_channel([1.0 - 1e-155, 1e-155], [0.5, 0.5])
    with pytest.raises(ValidationError, match=r"batch row 2: histogram \(0, 2\) has null mass .* below MIN_NULL_MASS"):
        conditional_score(tiny, Composition(2, 0), [(2, 0), (1, 1), (0, 2)])
    with pytest.raises(ValidationError, match="batch row 1: histogram has 3 cells, channel has d=2"):
        conditional_score(RR3, Composition(4, 1), [(2, 2), (2, 1, 1)])
    with pytest.raises(ValidationError, match=r"batch row 1: histogram \(3, 0\) is not a size-4 count vector"):
        conditional_score(RR3, Composition(4, 1), np.array([[2, 2], [3, 0], [1, 3]]))


def test_linearization_residual_shrinks():
    r8 = linearization_residual(RR3, Composition(8, 4), window_mult=0.8)
    r16 = linearization_residual(RR3, Composition(16, 8), window_mult=0.8)
    assert r16.max_abs < r8.max_abs
    assert r16.rms < r8.rms
    assert 0.0 <= r8.outside_mass < 1.0


def test_linearization_residual_validation():
    with pytest.raises(ValidationError, match="n >= 2"):
        linearization_residual(RR3, Composition(1, 0))
    for pi in (1.5, -0.1, float("nan"), "half"):
        with pytest.raises(ValidationError, match=r"pi must lie in \[0, 1\]"):
            linearization_residual(RR3, Composition(8, 4), pi=pi)
    with pytest.raises(ValidationError, match="window"):
        # k=3 keeps the mean histogram off the integer lattice, so a tiny
        # window really is empty (at k=4 the mean (4,4) is itself an atom)
        linearization_residual(RR3, Composition(8, 3), window_mult=1e-9)
    for window_mult in (0.0, -1.0, float("nan")):
        with pytest.raises(ValidationError, match="window_mult must be positive"):
            linearization_residual(RR3, Composition(8, 4), window_mult=window_mult)


def test_linearization_pi_defaults_to_the_pairs_and_takes_a_value():
    a = linearization_residual(RR3, Composition(9, 4))
    b = linearization_residual(RR3, Composition(9, 4), pi=4 / 9)
    assert a.pi == 0.5 and a == linearization_residual(RR3, Composition(9, 4), pi=0.5)
    assert b.pi == 4 / 9 and b != a


# ---------------------------------------------------------------------------
# CSV round trips


def test_curve_csv_round_trip():
    atoms = lr_atoms(RR3, Composition(3, 0))
    curve = privacy_curve(atoms, np.geomspace(1e-3, 2.0, 9))
    cols, vals = parse_csv(curve.to_csv(header_lines=("a comment",)))
    assert cols == ["epsilon", "delta"]
    np.testing.assert_array_equal(vals[:, 0], curve.eps)
    np.testing.assert_array_equal(vals[:, 1], curve.delta)


def test_tradeoff_csv_round_trip():
    curve = tradeoff_curve(lr_atoms(RR3, Composition(4, 1)))
    cols, vals = parse_csv(curve.to_csv(header_lines=("# a comment",)))
    assert cols == ["alpha", "beta"]
    np.testing.assert_array_equal(vals[:, 0], curve.alpha)
    np.testing.assert_array_equal(vals[:, 1], curve.beta)


def test_law_csv_round_trip():
    law = histogram_law(RR3, Composition(2, 0))
    cols, vals = parse_csv(law_to_csv(law))
    assert cols == ["h_0", "h_1", "prob"]
    assert vals.shape == (3, 3)
    assert math.fsum(vals[:, 2]) == pytest.approx(1.0, abs=1e-12)
    # the rows are the positive cells in ascending order, exactly
    counts, mass = law.cells()
    np.testing.assert_array_equal(vals[::-1], np.column_stack((counts, mass)))


@pytest.mark.parametrize("d, n, k", [(2, 30, 10), (3, 12, 4), (4, 6, 2)])
def test_law_csv_lists_the_dict_fold_law_in_ascending_order(d, n, k):
    ch = full_channel(np.random.default_rng(110 + d), d)
    base, _ = _dict_pair(ch, Composition(n + 1, k))
    want = [",".join([f"h_{i}" for i in range(d)] + ["prob"])]
    want += [",".join(map(str, h)) + ",%.17g" % m for h, m in sorted(base.items()) if m > 0.0]
    assert law_to_csv(histogram_law(ch, Composition(n, k)), ("x",)) == "# x\n" + "\n".join(want) + "\n"


def test_parse_csv_requires_header():
    with pytest.raises(ValidationError):
        parse_csv("# only a comment\n")


# ---------------------------------------------------------------------------
# randomized cross-checks


@settings(max_examples=10)
@given(st.floats(0.5, 2.0), st.integers(1, 3000))
@example(0.5, 3000)
@example(2.0, 3000)
@example(1.0, 2)
def test_generic_matches_binomial_in_underflow_regime(eps0, n):
    ch = rr_channel(eps0)
    atoms = fold_atoms(ch, Composition(n, 0))
    for arr in (atoms.lr, atoms.p_null, atoms.p_alt):
        assert np.all(np.isfinite(arr))
    eps = np.linspace(0.0, eps0, 64)
    forward = privacy_curve(atoms, eps).delta
    np.testing.assert_allclose(
        forward, binomial_curve(ch, n, eps).delta, rtol=1e-10, atol=1e-300
    )
    assert np.all(privacy_curve(atoms, eps, Sidedness.TWO_SIDED).delta >= forward)


@pytest.mark.parametrize("eps0, n", [(1.0, 2), (0.5, 3), (2.0, 40)])
def test_delta_is_zero_at_the_largest_ratio_of_rr(eps0, n):
    # the top atom is e^eps0 up to a few ulps in the fold and in the closed
    # form; its excess over the threshold e^eps0 is a tie, not a positive delta
    ch = rr_channel(eps0)
    for atoms in (fold_atoms(ch, Composition(n, 0)), binomial_lr_atoms(ch, n)):
        assert atoms.lr[-1] == pytest.approx(math.exp(eps0), rel=1e-15)
        assert privacy_curve(atoms, [eps0]).delta[0] == 0.0
        assert privacy_curve(atoms, [0.999 * eps0]).delta[0] > 0.0


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 7))
def test_atomization_invariants(seed, d, n):
    rng = np.random.default_rng(seed)
    ch = full_channel(rng, d)
    k = int(rng.integers(0, n))
    atoms = lr_atoms(ch, Composition(n, k))
    assert float(atoms.p_null.sum()) == pytest.approx(1.0, abs=1e-9)
    assert float(np.dot(atoms.lr, atoms.p_null)) == pytest.approx(1.0, abs=1e-9)
    assert np.all(atoms.lr >= 0.0)
    # forward delta at eps=0 equals total variation, both computed from atoms
    report = divergences(atoms)
    assert privacy_curve(atoms, [0.0]).delta[0] == pytest.approx(report.tv, abs=1e-12)
