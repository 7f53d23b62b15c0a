import ast
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from shuffledp import Composition, channel_to_json, lr_atoms, parse_csv, rr_channel, validate_channel
from shuffledp.cli import (
    DEFAULT_EPS_SPEC,
    canonical_channel_json,
    channel_fingerprint,
    main,
    parse_eps_grid,
)
from shuffledp.svg import svg_line_chart
from conftest import mp_hockey_stick, mp_pair_masses

LN3 = math.log(3.0)


@pytest.fixture
def rr3_file(tmp_path):
    path = tmp_path / "rr3.json"
    path.write_text(channel_to_json(rr_channel(LN3)))
    return str(path)


# ---------------------------------------------------------------------------
# epsilon grid parsing


def test_parse_eps_grid_log_default():
    grid = parse_eps_grid(DEFAULT_EPS_SPEC)
    assert grid.size == 64
    assert grid[0] == pytest.approx(1e-3) and grid[-1] == pytest.approx(10.0)
    assert np.all(np.diff(grid) > 0)


def test_parse_eps_grid_lin_and_list():
    assert parse_eps_grid("lin:0:1:5") == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    assert parse_eps_grid("2,0.5,1") == pytest.approx([0.5, 1.0, 2.0])  # sorted
    assert parse_eps_grid("0") == pytest.approx([0.0])


@pytest.mark.parametrize(
    "spec, message",
    [
        *((spec, None) for spec in ["log:0:1:5", "log:1:2", "log:1:2:0", "lin:-1:1:3", "", "a,b", "1,-2"]),
        ("log:a:1:3", "bad grid spec 'log:a:1:3'"),
        ("lin:0:1:2.5", "bad grid spec 'lin:0:1:2.5'"),
        ("lin:2:1:3", "grid needs count >= 0 and lo <= hi, got 'lin:2:1:3'"),
        ("log:1:2:-1", "grid needs count >= 0 and lo <= hi, got 'log:1:2:-1'"),
    ],
)
def test_parse_eps_grid_rejects(spec, message):
    from shuffledp import ValidationError

    with pytest.raises(ValidationError, match=message and re.escape(message)):
        parse_eps_grid(spec)


@pytest.mark.parametrize("spec", ["lin:0:inf:8", "lin:0:inf:1", "log:1e-3:inf:8", "log:1:inf:1", "lin:nan:1:3"])
def test_parse_eps_grid_refuses_an_infinite_bound(spec):
    from shuffledp import ValidationError

    with pytest.raises(ValidationError, match=re.escape(f"grid bounds must be finite, got {spec!r}")):
        parse_eps_grid(spec)


def test_a_log_grid_up_to_the_largest_double_parses_and_gdp_refuses_it(rr3_file, capsys):
    # no e^x is taken at the ends, so an end at DBL_MAX overflows nothing; the
    # Gaussian curve then refuses the eps beyond log(DBL_MAX) with its message
    spec = "log:1e-3:1.7976931348623157e308:8"
    grid = parse_eps_grid(spec)
    assert grid[0] == 1e-3 and grid[-1] == sys.float_info.max and np.all(np.diff(grid) > 0)
    assert main(["curve", "--channel", rr3_file, "--n", "100", "--engine", "gdp", "--eps", spec]) == 2
    assert "error: gdp_delta needs eps <= 709.782712893384" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["lin:0:12:40", "lin:0:3:13", "lin:0:1:5", "lin:0.25:0.25:4", "lin:0:1:1",
                                  "lin:1e-3:3:256", "lin:0:1e-320:7", "lin:0:1.7976931348623157e308:9"])
def test_a_lin_grid_is_np_linspace_bit_for_bit(spec):
    _, lo, hi, count = spec.split(":")
    want = np.linspace(float(lo), float(hi), int(count))
    assert parse_eps_grid(spec).tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", ["log:1e-3:10:64", "log:1e-3:3:256", "log:0.5:0.5:3", "log:2:5:1", "log:2:5:2"])
def test_a_log_grid_is_e_to_a_lin_grid_of_the_logs_with_exact_ends(spec):
    _, lo, hi, count = spec.split(":")
    lo, hi, count = float(lo), float(hi), int(count)
    grid = parse_eps_grid(spec).tolist()
    assert len(grid) == count and grid[0] == lo and (count == 1 or grid[-1] == hi)
    logs = np.linspace(math.log(lo), math.log(hi), count).tolist()
    assert grid[1:-1] == [math.exp(x) for x in logs[1:-1]]
    assert grid == pytest.approx(np.geomspace(lo, hi, count).tolist(), rel=4e-15)


# ---------------------------------------------------------------------------
# curve


def test_curve_anchor_rows(rr3_file, capsys):
    assert main(["curve", "--channel", rr3_file, "--n", "2", "--k", "0", "--eps", "0"]) == 0
    out = capsys.readouterr().out
    assert "0,0.375" in out.splitlines()
    assert main(
        ["curve", "--channel", rr3_file, "--n", "2", "--eps", "1.0986122886681098"]
    ) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith(",0")


def test_curve_exact_vs_binomial_payload(rr3_file, tmp_path):
    for engine, name in (("exact", "a.csv"), ("binomial", "b.csv")):
        assert main(
            [
                "curve", "--channel", rr3_file, "--n", "15", "--eps", "log:0.01:2:33",
                "--engine", engine, "--out", str(tmp_path / name),
            ]
        ) == 0
    # both engines take the one k=0 path: only the manifest's engine line differs
    a = (tmp_path / "a.csv").read_text().splitlines()
    b = (tmp_path / "b.csv").read_text().splitlines()
    assert [x for x, y in zip(a, b) if x != y] == ["# engine: exact"]
    assert len(a) == len(b)


def test_curve_binomial_and_exact_share_the_cap(tmp_path, capsys):
    # binomial is the exact engine at d = 2, k = 0: the same cap refuses both
    path = tmp_path / "rr.json"
    path.write_text(channel_to_json(rr_channel(1.1)))
    for engine in ("exact", "binomial"):
        args = ["curve", "--channel", str(path), "--n", "2000", "--engine", engine]
        assert main(args + ["--cap", "10"]) == 3
        assert "cells > cap 10" in capsys.readouterr().err
    # and binomial still refuses a channel with more than two symbols
    path.write_text(channel_to_json(validate_channel([0.5, 0.3, 0.2], [0.2, 0.3, 0.5])))
    assert main(["curve", "--channel", str(path), "--n", "20", "--engine", "binomial"]) == 2
    assert "needs d=2, got d=3" in capsys.readouterr().err


def test_curve_gdp_reports_mu(rr3_file, capsys):
    assert main(
        ["curve", "--channel", rr3_file, "--n", "100", "--engine", "gdp", "--eps", "0.1,1"]
    ) == 0
    out = capsys.readouterr().out
    assert "# gdp-mu: 0.11547005383792515" in out
    assert "# gdp-source: canonical" in out


@pytest.mark.parametrize(
    "W0, W1",
    [([0.75, 0.25], [0.25, 0.75]), ([0.2, 0.3, 0.5], [0.5, 0.3, 0.2]), ([1.0, 1e-308], [0.5, 0.5]), ([0.1] * 10, [0.0, 0.2] + [0.1] * 8)],
)
def test_channel_fingerprint_is_hashlib_sha256(W0, W1):
    # the lean built-in SHA-256 gives hashlib's digest of the canonical JSON
    channel = validate_channel(W0, W1)
    text = canonical_channel_json(channel).encode("ascii")
    assert channel_fingerprint(channel) == hashlib.sha256(text).hexdigest()


def test_curve_manifest_and_round_trip(rr3_file, capsys):
    assert main(["curve", "--channel", rr3_file, "--n", "4", "--eps", "lin:0:1:7"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# shuffledp-version:")
    assert f"# channel-sha256: {channel_fingerprint(rr_channel(LN3))}" in out
    assert "timestamp" not in out  # stamps are opt-in
    cols, vals = parse_csv(out)
    assert cols == ["epsilon", "delta"]
    assert vals.shape == (7, 2)


def test_curve_json_format_matches_csv(rr3_file, tmp_path):
    args = ["curve", "--channel", rr3_file, "--n", "6", "--eps", "log:0.05:1:9"]
    assert main(args + ["--out", str(tmp_path / "c.csv")]) == 0
    assert main(args + ["--format", "json", "--out", str(tmp_path / "c.json")]) == 0
    _, vals = parse_csv((tmp_path / "c.csv").read_text())
    payload = json.loads((tmp_path / "c.json").read_text())
    np.testing.assert_array_equal(vals[:, 0], payload["epsilon"])
    np.testing.assert_array_equal(vals[:, 1], payload["delta"])
    assert payload["manifest"]["command"] == "curve"


def test_curve_svg(rr3_file, tmp_path):
    svg = tmp_path / "curve.svg"
    assert main(
        ["curve", "--channel", rr3_file, "--n", "5", "--eps", "log:0.01:1:16",
         "--svg", str(svg)]
    ) == 0
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    assert any(child.tag.endswith("polyline") for child in root)


def test_curve_engine_restrictions(rr3_file, capsys):
    # every engine but exact is forward only; binomial and chernoff are k=0 only
    for extra, message in (
        (["--engine", "binomial", "--sidedness", "reverse"], "forward curve only"),
        (["--engine", "gdp", "--sidedness", "reverse"], "forward curve only"),
        (["--engine", "chernoff", "--sidedness", "two-sided"], "forward curve only"),
        (["--engine", "binomial", "--k", "1"], "k=0 only"),
        (["--engine", "chernoff", "--k", "1"], "k=0 only"),
    ):
        assert main(["curve", "--channel", rr3_file, "--n", "5"] + extra) == 2
        err = capsys.readouterr().err
        assert "error:" in err and message in err, (extra, err)


def test_exit_codes(rr3_file, tmp_path, capsys):
    assert main(["curve", "--channel", str(tmp_path / "missing.json"), "--n", "2"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"d": 2, "W0": [0.9, 0.2], "W1": [0.5, 0.5]}')
    assert main(["curve", "--channel", str(bad), "--n", "2"]) == 2
    assert main(["curve", "--channel", rr3_file, "--n", "200", "--cap", "10"]) == 3
    capsys.readouterr()


def _run_cli(*argv, flags=()) -> subprocess.CompletedProcess:
    """`python *flags -m shuffledp.cli *argv` in a fresh process that imports this checkout's src."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    return subprocess.run(
        [sys.executable, *flags, "-m", "shuffledp.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))},
        timeout=120,
    )


def test_curve_refuses_alt_mass_on_underflowed_cells(tmp_path):
    # W0 = [1, 1e-308] at n = 1: the alt law puts 1/2 on the cell whose null
    # mass is subnormal, so no ratio exists for it; an input error (exit 2)
    path = tmp_path / "tiny.json"
    path.write_text(channel_to_json(validate_channel([1.0, 1e-308], [0.5, 0.5])))
    out = _run_cli("curve", "--channel", str(path), "--n", "1")
    assert (out.returncode, out.stdout) == (2, "")
    # the score w = 5e307 overflows its square and cube in `score_stats`:
    # the one line is the error, with no numpy RuntimeWarning ahead of it
    assert "RuntimeWarning" not in out.stderr
    [line] = out.stderr.splitlines()
    assert line.startswith("error: the alt law puts mass 0.4999")


def test_simulate_refuses_alt_mass_on_underflowed_cells(tmp_path):
    # the pair (3, 1) of W0 = [1, 1e-308] puts alt mass 0.096 on a cell whose
    # null mass is subnormal: the sampler refuses it as `curve` does (exit 2),
    # under either law
    path = tmp_path / "tiny.json"
    path.write_text(channel_to_json(validate_channel([1.0, 1e-308], [0.6901211876677521, 0.30987881233224784])))
    for argv in (["simulate", "--hypothesis", "alt"], ["simulate"], ["curve"]):
        out = _run_cli(*argv, "--channel", str(path), "--n", "3", "--k", "1")
        assert (out.returncode, out.stdout) == (2, "")
        [line] = out.stderr.splitlines()
        assert line.startswith("error: the alt law puts mass 0.0960")


@pytest.mark.parametrize("engine, code", [("exact", 0), ("binomial", 0), ("gdp", 2), ("chernoff", 0)])
def test_curve_beyond_the_exp_range(engine, code, rr3_file):
    # e^eps overflows a double above eps = log(DBL_MAX) ~ 709.78: the exact
    # and Chernoff curves are exactly 0 there, with no warning, and the
    # Gaussian curve, whose two terms cannot be formed, is refused (exit 2)
    argv = ["curve", "--channel", rr3_file, "--n", "100", "--engine", engine, "--eps", "1,800"]
    out = _run_cli(*argv)
    assert out.returncode == code
    if engine == "gdp":
        assert (out.stdout, out.stderr) == (
            "",
            "error: gdp_delta needs eps <= 709.782712893384 (the log of the largest double), got 800.0\n",
        )
    else:
        assert out.stderr == ""
        _, table = parse_csv(out.stdout)
        assert table[:, 0].tolist() == [1.0, 800.0]
        assert table[0, 1] > 0.0 and table[1, 1] == 0.0


# ---------------------------------------------------------------------------
# report


def test_report_refuses_m_beyond_the_double_range(tmp_path):
    # the bundled comparison's (1 + chi2)^m overflows a double at m = 2000 on
    # rr 1.1: exit 2 and one error line, not an OverflowError traceback
    path = tmp_path / "rr.json"
    path.write_text(channel_to_json(rr_channel(1.1)))
    out = _run_cli("report", "--channel", str(path), "--n", "100", "--m", "2000")
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == "error: bundled comparison: (1 + chi2)^m overflows above m = 836, got m=2000\n"


def test_report_refuses_a_count_beyond_the_double_range(rr3_file):
    # m = 10^400 does not convert to a double: exit 2 and one error line
    out = _run_cli("report", "--channel", rr3_file, "--n", "100", "--m", str(10**400))
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == f"error: m must be at most 1.7976931348623157e+308, got {10**400}\n"


def test_reverse_curve_on_a_subnormal_ratio_matches_the_oracle(tmp_path):
    # W1/W0 = 2.1e-323 at symbol 0, where the reversed ratio 1/L overflows a
    # double.  Reverse and two-sided curves printed delta = 1 at n = 1 and nan
    # at n = 30, with exit 0; inverting the ratios then refused them (exit 2).
    # Read from the bottom of the atoms, no ratio is inverted: exit 0, and
    # every delta within 64 ulps of S of the 50-digit oracle (two-sided: of
    # the larger side).  Past eps = 709.78, where e^eps overflows, the ratio
    # 2.1e-323 still lies below e^-eps (up to eps ~ 744.44).  That ratio, and
    # e^-eps from eps ~ 708.40, are subnormal, held to 2^-1074 rather than
    # to an ulp, which allows e^eps 2^-1074 of S more (2.6e-11 at 720).  The
    # forward curve is unchanged
    path = tmp_path / "sub.json"
    channel = validate_channel([0.7018249685416487, 0.29817503145835145], [1.5e-323, 1.0])
    path.write_text(channel_to_json(channel))
    eps = [0.0, 1.0, 10.0, 710.0, 720.0]
    for n in (1, 30):
        null, alt = mp_pair_masses(channel, Composition(n, 0))
        forward, reverse = mp_hockey_stick(null, alt, eps), mp_hockey_stick(alt, null, eps)
        for sidedness in ("reverse", "two-sided"):
            out = _run_cli("curve", "--channel", str(path), "--n", str(n), "--sidedness", sidedness, "--eps",
                           ",".join(map(str, eps)))
            assert (out.returncode, out.stderr) == (0, ""), (n, sidedness)
            _, table = parse_csv(out.stdout)
            for i, value in enumerate(table[:, 1]):
                sides = [reverse[i]] if sidedness == "reverse" else [forward[i], reverse[i]]
                delta, tie, scale = max(sides, key=lambda side: side[0])
                assert tie == 0
                slack = (64 * np.finfo(np.float64).eps + math.exp(eps[i] - 1074 * math.log(2))) * float(scale)
                assert abs(value - float(delta)) <= slack, (n, sidedness, i)
    out = _run_cli("curve", "--channel", str(path), "--n", "1", "--eps", "0,1,10")
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.endswith("epsilon,delta\n0,0.70182496854164844\n1,0.18947623028655916\n10,0\n")


def _strict_json(text: str):
    def refuse(token):
        raise AssertionError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_report_on_masses_far_below_one(tmp_path):
    # W0 = [1, 1e-88, 1e-288]: I_0 = 1.0041e287 and chi2 (its value at
    # pi = 0) are finite; mu3 and the expansion's higher terms exceed the
    # double range, and so does their sum, -8.858545e572 with 60 digits, so
    # each prints as null and "nonfinite" names it.  Exit 0, with no warning
    # and no Infinity or NaN token
    path = tmp_path / "far.json"
    path.write_text(channel_to_json(validate_channel(
        [1.0, 1e-88, 1e-288], [0.40271150782609794, 0.28041299037314577, 0.31687550180075624]
    )))
    out = _run_cli("report", "--channel", str(path), "--n", "1", flags=("-W", "error"))
    assert (out.returncode, out.stderr) == (0, "")
    payload = _strict_json(out.stdout)
    assert payload["fisher"]["I_pi"] == 1.0041008364148107e287
    assert payload["score"]["chi2"] == 1.0041008364148107e287
    assert payload["gdp"]["mu_canonical"] == math.sqrt(1.0041008364148107e287)
    assert payload["score"]["mu3"] is None
    assert payload["jsd_canonical"]["terms"] == [1.2551260455185133e286, None, None]
    assert list(payload)[-1] == "nonfinite"
    assert payload["nonfinite"] == {
        "score.mu3": "inf",
        "jsd_canonical.terms[1]": "-inf",
        "jsd_canonical.terms[2]": "inf",
        "jsd_canonical.asymptotic": "-inf",
        "jsd_canonical.residual": "inf",
    }


def test_report_chi2_beyond_the_square_range(tmp_path):
    # w = 2.9e223 squares beyond the double range; chi2 = 4.26e123 does not.
    # At n = 2 the exact JSD's binomial mean is 1e-323, where x / mean
    # overflows a double
    path = tmp_path / "sq.json"
    path.write_text(channel_to_json(validate_channel([5e-324, 1.0], [1.45e-100, 1.0])))
    for n in ("1", "2"):
        out = _run_cli("report", "--channel", str(path), "--n", n, flags=("-W", "error"))
        assert (out.returncode, out.stderr) == (0, "")
        payload = _strict_json(out.stdout)
        assert payload["score"]["chi2"] == 4.255507375786205e123
        assert payload["nonfinite"] == {
            "score.mu3": "inf",
            "jsd_canonical.terms[1]": "-inf",
            "jsd_canonical.asymptotic": "-inf",
            "jsd_canonical.residual": "inf",
        }


def test_report_contents(rr3_file, capsys):
    assert main(
        ["report", "--channel", rr3_file, "--n", "100", "--pi", "0.5", "--m", "2"]
    ) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["fisher"]["I_pi"] == pytest.approx(4 / 3, rel=1e-12)
    assert payload["gdp"]["mu_unbundled"] == pytest.approx(0.1632993161855452, rel=1e-12)
    assert payload["multimessage"]["ratio"] == pytest.approx(5 / 3, rel=1e-12)
    # the documented decimal renderings appear verbatim in the JSON text
    assert "1.333333" in out and "0.163299" in out and "1.666666" in out
    assert payload["rr_boundary"]["regime"] == "sub-critical"
    # one score: the boundary block prints the channel's chi2 and r, not a second derivation
    assert payload["rr_boundary"]["sigma2"] == payload["score"]["chi2"] == 4 / 3
    assert (payload["rr_boundary"]["x_plus"], payload["rr_boundary"]["x_minus"]) == (2.0, -2 / 3)


def test_report_jsd_block(rr3_file, capsys):
    assert main(["report", "--channel", rr3_file, "--n", "10", "--k", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    block = payload["jsd_canonical"]
    assert block["asymptotic"] == pytest.approx(0.0175, abs=1e-12)
    assert block["exact"] is not None and block["residual"] is not None


def test_reverse_curve_keeps_tiny_ratios_apart(tmp_path, capsys):
    # W1 = [3e-14, 3e-20, ...] against a uniform W0 at n = 2: the cells'
    # ratios 9e-20, 4.5e-14 and 9e-14 are atoms of their own (a merge within
    # an absolute 1e-12 made them one, and the curve read 0.2307..., 0, 0).
    # The values are an enumeration of the 6 histograms in exact rationals;
    # each must lie within 64 ulps of the reversed pair's mass above e^eps
    path = tmp_path / "tiny.json"
    channel = validate_channel([1 / 3] * 3, [3e-14, 3e-20, 1 - 3e-14 - 3e-20])
    path.write_text(channel_to_json(channel))
    args = ["curve", "--channel", str(path), "--n", "2", "--sidedness", "reverse", "--eps", "30,36.8,40"]
    assert main(args) == 0
    _, table = parse_csv(capsys.readouterr().out)
    atoms = lr_atoms(channel, Composition(2, 0))
    for (eps, delta), want in zip(table, (0.23071473908446352, 0.11101516288850798, 0.1087572584427409)):
        scale = float(atoms.p_null[atoms.lr * math.exp(eps) < 1.0].sum())
        assert abs(delta - want) <= 64 * np.finfo(np.float64).eps * scale, (eps, delta)


def test_huge_n_is_refused_before_the_window_is_built(rr3_file, capsys):
    # n = 1e29: the k = 0 chain's window of about 1.3e16 counts is counted
    # before it is built (it was an 89.9 PiB allocation error, exit 1)
    n = str(10**29)
    assert main(["curve", "--channel", rr3_file, "--n", n]) == 3
    assert "cells > cap" in capsys.readouterr().err
    assert main(["report", "--channel", rr3_file, "--n", n]) == 0
    assert json.loads(capsys.readouterr().out)["jsd_canonical"]["exact"] is None


def test_report_perfect_privacy_note(tmp_path, capsys):
    path = tmp_path / "flat.json"
    path.write_text(channel_to_json(rr_channel(0.0)))
    assert main(["report", "--channel", str(path), "--n", "5"]) == 0
    assert "perfect privacy: v = 0" in capsys.readouterr().out


def test_report_non_rr_channel_has_no_boundary_block(tmp_path, capsys):
    path = tmp_path / "tri.json"
    path.write_text(channel_to_json(validate_channel([0.2, 0.3, 0.5], [0.5, 0.3, 0.2])))
    assert main(["report", "--channel", str(path), "--n", "20"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "rr_boundary" not in payload
    assert payload["fisher"] is not None


def test_report_rejects_both_k_and_pi(rr3_file, capsys):
    assert main(
        ["report", "--channel", rr3_file, "--n", "10", "--k", "1", "--pi", "0.5"]
    ) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["curve", "--engine", "gdp", "--n", "100", "--k", "100"], "the pair (k, k+1) needs k <= n-1; got k=100, n=100"),
        (["report", "--n", "100", "--k", "100"], "the pair (k, k+1) needs k <= n-1; got k=100, n=100"),
        (["report", "--n", "100", "--k", "-1"], "the pair (k, k+1) needs k <= n-1; got k=-1, n=100"),
        (["report", "--n", "0"], "the pair (k, k+1) needs k <= n-1; got k=0, n=0"),
        # every subcommand refuses the pair at n = 0 with the one message of `_pair_pi`
        *((["curve", "--engine", engine, "--n", "0"], "the pair (k, k+1) needs k <= n-1; got k=0, n=0")
          for engine in ("exact", "binomial", "gdp", "chernoff")),
        (["report", "--n", "0", "--pi", "0.5"], "the pair (k, k+1) needs k <= n-1; got k=0, n=0"),
        (["simulate", "--n", "0"], "the pair (k, k+1) needs k <= n-1; got k=0, n=0"),
        (["report", "--n", "10", "--m", "0"], "m must be an integer >= 1, got 0"),
        (["report", "--n", "10", "--m", "-3"], "m must be an integer >= 1, got -3"),
    ],
)
def test_out_of_range_k_and_m_exit_2(rr3_file, capsys, argv, message):
    assert main([argv[0], "--channel", rr3_file, *argv[1:]]) == 2
    assert message in capsys.readouterr().err


def test_report_single_user_has_pi_zero(rr3_file, capsys):
    assert main(["report", "--channel", rr3_file, "--n", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["fisher"]["pi"] == 0.0


# ---------------------------------------------------------------------------
# simulate


def test_simulate_deterministic_across_workers(rr3_file, tmp_path):
    out1, out4 = str(tmp_path / "w1.csv"), str(tmp_path / "w4.csv")
    base = ["simulate", "--channel", rr3_file, "--n", "30", "--seed", "3",
            "--reps", "4000"]
    assert main(base + ["--workers", "1", "--out", out1]) == 0
    assert main(base + ["--workers", "4", "--out", out4]) == 0
    b1 = open(out1, "rb").read()
    assert b1 == open(out4, "rb").read()
    assert b"workers" not in b1  # concurrency must not mark the artifact


def test_simulate_csv_bytes_are_pinned(tmp_path, monkeypatch):
    # SHA-256 of the CSV written by the sampler that drew symbols with
    # searchsorted on float uniforms (h >> 11) 2^-53, on x86-64 (AVX-512)
    # with numpy 2.4; the channel path is relative so the header is fixed
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ch.json").write_text(
        channel_to_json(validate_channel([0.5, 0.3, 0.2], [0.22, 0.33, 0.45]))
    )
    for workers in ("1", "2"):
        assert main(
            ["simulate", "--channel", "ch.json", "--n", "190", "--k", "70", "--hypothesis", "alt",
             "--seed", "11", "--reps", "10000", "--workers", workers, "--out", "lam.csv"]
        ) == 0
        digest = hashlib.sha256((tmp_path / "lam.csv").read_bytes()).hexdigest()
        assert digest == "78e71167b5f05409209c2ca3ea30bd2687097e482d329a6863744c163a278a0d"


def test_simulate_summary_and_samples(rr3_file, tmp_path, capsys):
    out = str(tmp_path / "s.csv")
    assert main(
        ["simulate", "--channel", rr3_file, "--n", "50", "--reps", "20000",
         "--workers", "2", "--out", out]
    ) == 0
    summary = json.loads(capsys.readouterr().out)
    assert abs(summary["mean_exp_lambda"] - 1.0) <= 4 * summary["se_exp_lambda"]
    assert summary["kolmogorov_to_gaussian"] > 0
    cols, vals = parse_csv(open(out).read())
    assert cols == ["lambda"]
    assert vals.shape == (20000, 1)


def test_simulate_zero_reps(rr3_file, capsys):
    assert main(["simulate", "--channel", rr3_file, "--n", "10", "--reps", "0"]) == 0
    out = capsys.readouterr().out
    assert out.rstrip().endswith("lambda")
    assert "summary" not in out


def test_simulate_one_rep_has_no_standard_error(rr3_file, capsys):
    assert main(["simulate", "--channel", rr3_file, "--n", "10", "--reps", "1", "--format", "json"]) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["reps"] == 1 and summary["se_exp_lambda"] is None
    assert math.isfinite(summary["mean_exp_lambda"])


def test_simulate_stamp_adds_metadata(rr3_file, tmp_path):
    out = str(tmp_path / "stamped.csv")
    assert main(
        ["simulate", "--channel", rr3_file, "--n", "10", "--reps", "5",
         "--workers", "2", "--out", out, "--stamp"]
    ) == 0
    text = open(out).read()
    assert "# workers: 2" in text
    assert "# timestamp: " in text


def test_stamped_csv_header_and_json_manifest_list_the_same_fields(rr3_file, tmp_path):
    base = ["simulate", "--channel", rr3_file, "--n", "10", "--reps", "5", "--workers", "2", "--stamp"]
    assert main(base + ["--out", str(tmp_path / "s.csv")]) == 0
    assert main(base + ["--format", "json", "--out", str(tmp_path / "s.json")]) == 0
    csv_keys = [
        line[2:].split(": ", 1)[0]
        for line in (tmp_path / "s.csv").read_text().splitlines()
        if line.startswith("# ") and not line.startswith("# summary ")
    ]
    json_keys = list(json.loads((tmp_path / "s.json").read_text())["manifest"])
    assert csv_keys == ["shuffledp-version", "command", "channel-sha256", "channel", "n", "k",
                        "hypothesis", "seed", "reps", "workers", "timestamp"]
    assert json_keys == ["version", "command", "channel_sha256"] + csv_keys[3:]


def test_json_default_refuses_unknown_objects():
    from shuffledp import cli

    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._strict_json({"x": object()})


def test_simulate_requires_full_channel(tmp_path, capsys):
    path = tmp_path / "ns.json"
    path.write_text(channel_to_json(validate_channel([0.5, 0.5], [0.0, 1.0])))
    assert main(["simulate", "--channel", str(path), "--n", "5", "--reps", "10"]) == 2
    assert "simulate needs a FULL channel" in capsys.readouterr().err


def test_simulate_json_format(rr3_file, capsys):
    assert main(
        ["simulate", "--channel", rr3_file, "--n", "8", "--reps", "50",
         "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["lambda"]) == 50
    assert payload["summary"]["reps"] == 50


# ---------------------------------------------------------------------------
# strict JSON on channels with values beyond the double range

# rr460: not randomized response (its ratios are 8.1e199 and 2.1e-300, not
# w and 1/w), so `report` prints no rr_boundary block; mu3 and two JSD terms
# are beyond the double range; alt-underflow: 12 of
# the 64 sampled histograms have an alt mass that underflows to 0, so their
# log ratio is -inf (ROADMAP item 3's lost alt mass)
EXTREME_CHANNELS = {
    "rr460.json": ([1.231296895499659e-200, 1.0], [1.0, 2.0963634922239936e-300]),
    "alt-underflow.json": (
        [0.10236762542866434, 1.3251385367679741e-100, 0.8976323745713357],
        [0.7832185554972343, 0.2167814445027657, 1e-323],
    ),
}


@pytest.mark.parametrize("channel", sorted(EXTREME_CHANNELS))
def test_every_json_output_is_strict(channel, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / channel).write_text(channel_to_json(validate_channel(*EXTREME_CHANNELS[channel])))
    base = ["--channel", channel, "--n", "30", "--k", "10"]
    sample = ["simulate", *base, "--reps", "64", "--seed", "10"]
    nonfinite = {}
    for argv in (
        ["report", "--channel", channel, "--n", "7"],
        ["curve", *base, "--sidedness", "two-sided", "--format", "json"],
        sample + ["--format", "json"],
        sample + ["--out", "lam.csv"],
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        out = capsys.readouterr().out
        assert code in (0, 2), argv
        if code == 0:
            nonfinite[argv[0] + argv[-1]] = _strict_json(out).get("nonfinite")
        if code == 0 and "--out" in argv:
            summary = (tmp_path / "lam.csv").read_text().splitlines()[-1]
            assert _strict_json(summary.removeprefix("# summary ")) == _strict_json(out)
    if channel == "rr460.json":
        assert nonfinite["report7"] == {
            "score.mu3": "inf",
            "jsd_canonical.terms[1]": "-inf",
            "jsd_canonical.terms[2]": "inf",
            "jsd_canonical.asymptotic": "inf",
            "jsd_canonical.residual": "-inf",
        }
    else:
        assert set(nonfinite["simulatejson"].values()) == {"-inf"}
        assert len(nonfinite["simulatejson"]) == 12
        assert nonfinite["simulatelam.csv"] is None


# ---------------------------------------------------------------------------
# svg helper


def test_svg_handles_log_axes_and_zeros():
    chart = svg_line_chart([0.0, 0.1, 1.0], [0.5, 0.2, 0.0], log_x=True, log_y=True)
    root = ET.fromstring(chart)
    assert root.tag.endswith("svg")  # zero points dropped, chart still valid


# ---------------------------------------------------------------------------
# pinned output bytes

# SHA-256 of each call's exit code, stdout, stderr and every file it writes,
# on x86-64 with numpy 2.4.  Channel paths are relative so the manifests are
# fixed; no call passes --stamp, so every byte is a function of the inputs.
PINNED_CHANNELS = {
    "rr.json": ([0.75, 0.25], [0.25, 0.75]),
    "d3.json": ([0.5, 0.3, 0.2], [0.22, 0.33, 0.45]),
    "ns.json": ([0.5, 0.5], [0.0, 1.0]),
}
PINNED = {
    "curve-exact-csv": (
        ["curve", "--channel", "rr.json", "--n", "2000"],
        "22259b3797933806e2677e8f0079dfa2a492d32471bed16b2adf58a6d77227e0",
    ),
    "curve-exact-json": (
        ["curve", "--channel", "rr.json", "--n", "2000", "--format", "json"],
        "27b36b0705a41b929490b964521a1d4596d509a2d4803a0608f5f781b4173307",
    ),
    "curve-binomial-csv": (
        ["curve", "--channel", "rr.json", "--n", "950000", "--engine", "binomial"],
        "b5c0cbc076523ed1b10dbfc5759fd7709cf21ec9d035bb70dcb76e4e04b40e31",
    ),
    "curve-binomial-json": (
        ["curve", "--channel", "rr.json", "--n", "2000", "--engine", "binomial", "--format",
         "json"],
        "fd6dcc7ff938d3ced36ccfe0583f95a0d296c09053ccf5c88cc121d1c0595734",
    ),
    "curve-gdp-csv": (
        ["curve", "--channel", "d3.json", "--n", "950000", "--engine", "gdp"],
        "55ac7f80736727118eff311282077832bf7cf9b7cf36f1a5e14b485b26964db0",
    ),
    "curve-gdp-json": (
        ["curve", "--channel", "rr.json", "--n", "2000", "--k", "600", "--engine", "gdp",
         "--eps", "lin:0:12:40", "--format", "json"],
        "e3b7fb18044470988911c8b7d8bc49654b26c8e6851c04c16c064cd9775df81b",
    ),
    "curve-gdp-out": (
        ["curve", "--channel", "rr.json", "--n", "2000", "--engine", "gdp", "--out", "gdp.csv"],
        "b329aee6315f9ec903ed150175d918792201255f137e974003b09ca684a19a31",
    ),
    "curve-chernoff-csv": (
        ["curve", "--channel", "rr.json", "--n", "950000", "--engine", "chernoff"],
        "3238d39911d9d48a53bcb69b21215eb783631636b0c2bfbccf67385a48fced37",
    ),
    "curve-chernoff-json": (
        ["curve", "--channel", "d3.json", "--n", "2000", "--engine", "chernoff", "--format",
         "json"],
        "9f07e0254384386e7e65c06e09ce98465cc824a0ef2d0b5d2f00c09c542e65da",
    ),
    "curve-reverse-null-support": (
        ["curve", "--channel", "ns.json", "--n", "6", "--sidedness", "reverse", "--eps",
         "lin:0:3:13"],
        "af7dcdcae5c0ec3fe4f26ae1b8413f26dc55907d4f38ae032f2dd65418972984",
    ),
    "curve-two-sided-d3": (
        ["curve", "--channel", "d3.json", "--n", "40", "--k", "7", "--sidedness", "two-sided",
         "--format", "json"],
        "987e16737e903628bfe1578932624d7cace0e697e73fb1e67ff107975d0324ee",
    ),
    "curve-svg": (
        ["curve", "--channel", "rr.json", "--n", "200", "--out", "c.csv", "--svg", "c.svg",
         "--svg-log", "xy"],
        "8b31b108e1282b7a3f33065ffb3d9ce1f4c9ba3c145143a9dbebe433e5b74857",
    ),
    "report-rr": (
        ["report", "--channel", "rr.json", "--n", "100", "--pi", "0.5", "--m", "2"],
        "2fe3e65d0d32de70baef31eabd8e69557ade02c4ef1fb882f0d36049e3b22e29",
    ),
    "report-d3": (
        ["report", "--channel", "d3.json", "--n", "190", "--k", "63", "--m", "4"],
        "08cf805488719ea62fc8958a1883b52c5aa911ce3381da77c6c2554c7080bb5e",
    ),
    "report-null-support": (
        ["report", "--channel", "ns.json", "--n", "20"],
        "956960ad5fcbb0035a8ff070ec8f3eea02239bd3f2ee286dd2380f81d8b27bf8",
    ),
    "report-pi-out-of-range": (
        ["report", "--channel", "rr.json", "--n", "20", "--pi", "1.5"],
        "1548a30957dda9b8e4041b47a6ee15ca32a0095ef229469d8a382d62bccdcadb",
    ),
    "simulate-json": (
        ["simulate", "--channel", "d3.json", "--n", "30", "--k", "9", "--seed", "3", "--reps",
         "300", "--format", "json"],
        "39981b363e844fc8b8bb6b9427fb6acd9963a1f5949f5327e579393eb0d5d254",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_cli_output_bytes_are_pinned(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for file, (w0, w1) in PINNED_CHANNELS.items():
        (tmp_path / file).write_text(channel_to_json(validate_channel(w0, w1)))
    argv, digest = PINNED[name]
    code = main(argv)
    captured = capsys.readouterr()
    written = [a for flag, a in zip(argv, argv[1:]) if flag in ("--out", "--svg")]
    blob = f"{code}\0{captured.out}\0{captured.err}".encode()
    blob += b"".join(b"\0" + (tmp_path / f).read_bytes() for f in written)
    assert hashlib.sha256(blob).hexdigest() == digest


# The closed-form curves run on Python floats and load no numpy, so their
# pins cannot depend on numpy's SIMD dispatch or on the BLAS kernel: each is
# rerun in a fresh interpreter told to use other kernels, which asserts that
# numpy stays unloaded and prints the digest the pin test takes.
PIN_PROBE = """
import contextlib, hashlib, io, json, sys
from shuffledp.cli import main
argv = json.loads(sys.argv[1])
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main(argv)
written = [a for flag, a in zip(argv, argv[1:]) if flag in ("--out", "--svg")]
blob = f"{code}\\0{out.getvalue()}\\0{err.getvalue()}".encode()
blob += b"".join(b"\\0" + open(f, "rb").read() for f in written)
assert "numpy" not in sys.modules
print(hashlib.sha256(blob).hexdigest())
"""
OTHER_KERNELS = {
    "avx2": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
}


@pytest.mark.parametrize("kernels", sorted(OTHER_KERNELS))
@pytest.mark.parametrize("name", sorted(n for n in PINNED if "-gdp-" in n or "-chernoff-" in n))
def test_closed_form_pins_hold_under_other_simd_and_blas_kernels(name, kernels, tmp_path):
    for file, (w0, w1) in PINNED_CHANNELS.items():
        (tmp_path / file).write_text(channel_to_json(validate_channel(w0, w1)))
    argv, digest = PINNED[name]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, **OTHER_KERNELS[kernels], "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", PIN_PROBE, json.dumps(argv)], capture_output=True, text=True,
                         cwd=tmp_path, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == digest


# The residual's linear prediction is summed elementwise in symbol order, so its
# bytes cannot depend on the BLAS kernel either (a dgemv's order is the kernel's).
RESIDUAL_PROBE = """
import json, sys
from shuffledp import Composition, linearization_residual, validate_channel
for w0, w1, n, k in json.loads(sys.argv[1]):
    summary = linearization_residual(validate_channel(w0, w1), Composition(n, k))
    print(repr(summary.rms), repr(summary.max_abs))
"""
RESIDUAL_CASES = [
    (*PINNED_CHANNELS["d3.json"], 190, 0),
    ([0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4], 59, 19),
    (*PINNED_CHANNELS["d3.json"], 120, 40),
]


@pytest.mark.parametrize("kernels", sorted(OTHER_KERNELS))
def test_linearization_residual_holds_under_other_simd_and_blas_kernels(kernels):
    from shuffledp import linearization_residual

    here = [linearization_residual(validate_channel(w0, w1), Composition(n, k)) for w0, w1, n, k in RESIDUAL_CASES]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, **OTHER_KERNELS[kernels], "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", RESIDUAL_PROBE, json.dumps(RESIDUAL_CASES)], capture_output=True,
                         text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [f"{r.rms!r} {r.max_abs!r}" for r in here]


# The rate fit is a closed-form slope in exactly rounded sums, so no LAPACK
# kernel shows: np.polyfit (dgelsd) gave each of these fits a different last
# digit under the default kernels, the AVX2 dispatch and OpenBLAS Prescott.
RATE_PROBE = """
import json, sys
from shuffledp import rate_exponent
for points in json.loads(sys.argv[1]):
    print(repr(rate_exponent(points)))
"""
RATE_FITS = [
    [[132701, 0.7025357816695172], [297842, 0.4777530224833099], [350696, 0.631944718379331],
     [639669, 0.4845484490616072], [800272, 0.9249291679537233], [880506, 0.04553882008767756]],
    [[74291, 0.8933714186545587], [115142, 0.4112768052992979], [233828, 0.5131198946524727],
     [303210, 0.8003569704001788], [383184, 0.4018315633496731], [817992, 0.3629176633771561],
     [884333, 0.9548437325498204], [885305, 0.12713308935109227]],
    [[43332, 0.4531994464439644], [511745, 0.38688685088197394], [527247, 0.31689961289707647],
     [606599, 0.4396214669439343], [614869, 0.9261503957601116], [695129, 0.7470115882405789],
     [802760, 0.05167411335025476]],
]


@pytest.mark.parametrize("kernels", sorted(OTHER_KERNELS))
def test_rate_exponent_holds_under_other_simd_and_blas_kernels(kernels):
    from shuffledp import rate_exponent

    here = [repr(rate_exponent(points)) for points in RATE_FITS]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, **OTHER_KERNELS[kernels], "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", RATE_PROBE, json.dumps(RATE_FITS)], capture_output=True,
                         text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == here


# numpy routes these to BLAS or LAPACK, whose summation order is the kernel's;
# the package sums its dots with math.fsum and fits its slope in closed form.
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "linalg", "polyfit", "lstsq"}


def _blas_calls(tree) -> list:
    """Where a module's syntax tree uses `@`, names a BLAS or LAPACK routine as an attribute, or imports one."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            for name in modules + [alias.name for alias in node.names]:
                found += [(node.lineno, part) for part in name.split(".") if part in BLAS_NAMES]
    return found


def test_the_package_makes_no_blas_or_lapack_call():
    src = Path(__file__).resolve().parent.parent / "src" / "shuffledp"
    found = {path.name: _blas_calls(ast.parse(path.read_text(), str(path))) for path in sorted(src.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {}
    # the scan sees each spelling
    probe = "a @ b\na @= b\nnp.dot(a, b)\nnp.linalg.solve(a, b)\nfrom numpy.linalg import lstsq\nfrom numpy import vdot\n"
    assert sorted(_blas_calls(ast.parse(probe))) == [
        (1, "@"), (2, "@"), (3, "dot"), (4, "linalg"), (5, "linalg"), (5, "lstsq"), (6, "vdot")]


def _overflow_catches(node, owner=None) -> set:
    """The innermost functions of a syntax tree that catch OverflowError, by `except` or `suppress`."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ExceptHandler):
            caught = [] if child.type is None else ast.walk(child.type)
        elif isinstance(child, ast.Call) and getattr(child.func, "attr", getattr(child.func, "id", "")) == "suppress":
            caught = child.args
        else:
            caught = []
        if any(isinstance(c, ast.Name) and c.id == "OverflowError" for c in caught):
            found.add(owner)
        found |= _overflow_catches(child, child.name if isinstance(child, ast.FunctionDef) else owner)
    return found


def _public_eps0(tree) -> list:
    """The public functions and methods of a module that take a parameter named eps0."""
    defs = [*tree.body, *(f for c in tree.body if isinstance(c, ast.ClassDef) for f in c.body)]
    return [f.name for f in defs if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
            and "eps0" in [a.arg for a in (*f.args.posonlyargs, *f.args.args, *f.args.kwonlyargs)]]


def test_one_rule_at_the_top_of_the_double_range():
    # a sum beyond the double range is `_exact_sum`'s, e^x's limit is _MAX_EPS,
    # and eps0 becomes a channel in `rr_channel` alone; the other two catches
    # turn an overflow into the caller's refusal
    src = Path(__file__).resolve().parent.parent / "src" / "shuffledp"
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    catches = {(name, func) for name, tree in trees.items() for func in _overflow_catches(tree)}
    eps0 = {(name, func) for name, tree in trees.items() for func in _public_eps0(tree)}
    assert (catches, eps0) == (
        {("channels.py", "_exact_sum"), ("asymptotics.py", "mm_gdp_compare"), ("multimessage.py", "unbundled_lr")},
        {("channels.py", "rr_channel")},
    )
    # the scans see each spelling
    probe = ast.parse(
        "def a():\n    try:\n        pass\n    except (ValueError, OverflowError):\n        pass\n"
        "def b():\n    def c(eps0):\n        with contextlib.suppress(OverflowError):\n            pass\n"
        "def d():\n    with suppress(OverflowError, ValueError):\n        pass\n"
        "class E:\n    def f(self, *, eps0):\n        pass\n"
        "def g(eps0, /):\n    try:\n        pass\n    except ValueError:\n        pass\n"
    )
    assert _overflow_catches(probe) == {"a", "c", "d"}
    assert sorted(_public_eps0(probe)) == ["f", "g"]


# ---------------------------------------------------------------------------
# one spelling per closed form: the array APIs and the CLI read the same floats


def _random_full_channel(rng, d: int):
    raw = rng.uniform(0.05, 1.0, (2, d))
    return validate_channel(*(raw / raw.sum(axis=1, keepdims=True)))


def test_chi2_and_i0_are_one_double(tmp_path, capsys):
    # the score's r = v / W0 is the Fisher kernel's q at pi = 0, and both dots
    # are `_fdot`, so chi2 and I_0 cannot differ by a rounding
    from shuffledp.channels import _score
    from shuffledp.simplex_linalg import _fisher

    rng = np.random.default_rng(42)
    channels = [_random_full_channel(rng, d) for d in range(2, 9) for _ in range(150)]
    differ = [ch for ch in channels if _score(ch)[3] != _fisher(ch, 0.0)[-1]]
    assert not differ, f"{len(differ)} of {len(channels)} channels"
    path = tmp_path / "ch.json"
    for ch in channels[::75]:
        n = int(rng.integers(5, 16))
        path.write_text(channel_to_json(ch))
        assert main(["report", "--channel", str(path), "--n", str(n), "--k", "0", "--m", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        chi2 = report["score"]["chi2"]
        assert chi2 == report["multimessage"]["chi2"] == report["fisher"]["I_pi"]
        assert report["gdp"]["mu_canonical"] == math.sqrt(chi2 / n)
        assert report["jsd_canonical"]["terms"][0] == chi2 / (8.0 * n)


CLOSED_FORM_CHANNELS = {"rr": ([0.75, 0.25], [0.25, 0.75]), "d3": ([0.5, 0.3, 0.2], [0.22, 0.33, 0.45])}


def _cli_delta(tmp_path, capsys, channel: str, *args) -> tuple:
    path = tmp_path / f"{channel}.json"
    path.write_text(channel_to_json(validate_channel(*CLOSED_FORM_CHANNELS[channel])))
    assert main(["curve", "--channel", str(path), *args]) == 0
    _, table = parse_csv(capsys.readouterr().out)
    return table[:, 0], table[:, 1]


@pytest.mark.parametrize("channel, n, spec", [("rr", 950000, DEFAULT_EPS_SPEC), ("d3", 2000, "lin:0:0.9:31"),
                                              ("rr", 3, "0,0.3,1.0986122886681098,2")])
def test_chernoff_curve_delta_and_cli_agree_bit_for_bit(channel, n, spec, tmp_path, capsys):
    from shuffledp import chernoff_curve, chernoff_delta

    ch = validate_channel(*CLOSED_FORM_CHANNELS[channel])
    grid = parse_eps_grid(spec)
    curve = chernoff_curve(ch, n, grid).delta
    one = np.array([chernoff_delta(ch, n, e).bound for e in grid.tolist()])
    eps, cli = _cli_delta(tmp_path, capsys, channel, "--n", str(n), "--engine", "chernoff", "--eps", spec)
    assert eps.tobytes() == grid.tobytes()
    assert curve.tobytes() == one.tobytes() == cli.tobytes()


@pytest.mark.parametrize("channel, n, k, spec", [("d3", 950000, 0, DEFAULT_EPS_SPEC), ("rr", 2000, 600, "lin:0:12:40"),
                                                 ("rr", 1, 0, "0,0.5,700")])
def test_gdp_delta_on_a_grid_on_each_eps_and_the_cli_agree_bit_for_bit(channel, n, k, spec, tmp_path, capsys):
    from shuffledp import gdp_delta, gdp_mu

    ch = validate_channel(*CLOSED_FORM_CHANNELS[channel])
    grid = parse_eps_grid(spec)
    mu = gdp_mu(ch, n, pi=k / (n - 1) if n > 1 else 0.0).mu
    on_grid = gdp_delta(grid, mu)
    one = np.array([gdp_delta(e, mu) for e in grid.tolist()])
    eps, cli = _cli_delta(tmp_path, capsys, channel, "--n", str(n), "--k", str(k), "--engine", "gdp", "--eps", spec)
    assert eps.tobytes() == grid.tobytes()
    assert on_grid.tobytes() == one.tobytes() == cli.tobytes()
