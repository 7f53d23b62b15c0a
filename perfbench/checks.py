"""Output checks: every job's output is checked, and a failed check fails the job.

The checks read only what the job wrote (its output file and stdout).  The
cross-engine checks compare against another engine of the same library
(`binomial_curve`, `chernoff_delta`), loaded by `Oracle` after the timed part
of a run.
"""

import json
import math
import sys
from dataclasses import dataclass

# Below the smallest normal double the mantissa loses bits, so two engines
# cannot agree to a relative tolerance there; this is the absolute floor of
# the exact-vs-binomial comparison.
_NORMAL_MIN = sys.float_info.min
# Slack on slopes of delta against e^eps; rounding in delta (~1e-16) divided
# by the finest grid spacing used (~3e-5) stays far below it.
_SLOPE_TOL = 1e-9


@dataclass
class JobResult:
    rc: int
    stdout: str
    stderr: str
    out_text: str | None


class Oracle:
    """Reference engines from the library under test, imported on first use."""

    def __init__(self):
        self._lib = None

    def _shuffledp(self):
        if self._lib is None:
            if "src" not in sys.path:
                sys.path.insert(0, "src")
            import shuffledp

            self._lib = shuffledp
        return self._lib

    def _channel(self, payload: dict):
        return self._shuffledp().validate_channel(payload["W0"], payload["W1"])

    def binomial(self, payload: dict, n: int, eps: list) -> list:
        return self._shuffledp().binomial_curve(self._channel(payload), n, eps).delta.tolist()

    def chernoff(self, payload: dict, n: int, eps: list) -> list:
        ch = self._channel(payload)
        return [self._shuffledp().chernoff_delta(ch, n, e).bound for e in eps]


# ---------------------------------------------------------------------------
# parsers


def parse_table(text: str) -> tuple[list, list]:
    """(column names, rows of floats) from a '#'-commented CSV."""
    columns, rows = None, []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if columns is None:
            columns = line.split(",")
        else:
            rows.append([float(tok) for tok in line.split(",")])
    if columns is None:
        raise ValueError("no header row")
    return columns, rows


def _summary_line(text: str) -> dict:
    for line in reversed(text.splitlines()):
        if line.startswith("# summary "):
            return json.loads(line[len("# summary "):])
    raise ValueError("no summary line")


# ---------------------------------------------------------------------------
# single-output checks; each returns a list of failure reasons


def curve_shape(eps: list, delta: list, hockey_stick: bool) -> list:
    """delta finite, in [0, 1] and non-increasing; a hockey-stick curve is
    also convex in t = e^eps with slope in [-1, 0].

    The Chernoff engine returns an upper bound, which need not be convex, so
    only the first three properties apply to it.
    """
    if len(eps) != len(delta) or not delta:
        return ["empty or ragged curve"]
    if not all(math.isfinite(d) for d in delta):
        return ["non-finite delta"]
    reasons = []
    if any(d < 0.0 or d > 1.0 for d in delta):
        reasons.append("delta outside [0, 1]")
    if any(b > a for a, b in zip(delta, delta[1:])):
        reasons.append("delta increases with eps")
    if hockey_stick:
        t = [math.exp(e) for e in eps]
        slopes = [(d1 - d0) / (t1 - t0) for d0, d1, t0, t1 in zip(delta, delta[1:], t, t[1:])
                  if t1 > t0]
        if any(s < -1.0 - _SLOPE_TOL or s > _SLOPE_TOL for s in slopes):
            reasons.append("slope in e^eps outside [-1, 0]")
        if any(s1 < s0 - _SLOPE_TOL for s0, s1 in zip(slopes, slopes[1:])):
            reasons.append("delta not convex in e^eps")
    return reasons


def nonfinite_paths(obj, path: str = "") -> list:
    """JSON paths of numbers that are NaN or infinite (None is allowed)."""
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in nonfinite_paths(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in nonfinite_paths(v, f"{path}[{i}]")]
    if isinstance(obj, float) and not math.isfinite(obj):
        return [path or "."]
    return []


def rel_close(a: float, b: float, rel: float, floor: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + floor


def check_report(text: str) -> list:
    report = json.loads(text)
    reasons = [f"non-finite {p}" for p in nonfinite_paths(report)]
    fisher = report.get("fisher")
    if fisher is not None and not rel_close(fisher["I_pi"], fisher["I_pi_mixture_form"], 1e-9):
        reasons.append("I_pi differs from I_pi_mixture_form by more than 1e-9 relative")
    return reasons


def check_simulation(text: str, hypothesis: str) -> list:
    """Martingale checks: E_null[e^lambda] = 1 and E_alt[e^-lambda] = 1,
    each to within 6 standard errors."""
    _, rows = parse_table(text)
    lam = [r[0] for r in rows]
    if not lam or not all(math.isfinite(v) for v in lam):
        return ["empty or non-finite lambda column"]
    if hypothesis == "null":
        summary = _summary_line(text)
        mean, se = summary["mean_exp_lambda"], summary["se_exp_lambda"]
        label = "mean of e^lambda under null"
    else:
        vals = [math.exp(-v) for v in lam]
        mean = math.fsum(vals) / len(vals)
        var = math.fsum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
        se = math.sqrt(var / len(vals))
        label = "mean of e^-lambda under alt"
    if not abs(mean - 1.0) <= 6.0 * se:
        return [f"{label} is {mean!r}, more than 6 SE ({se!r}) from 1"]
    return []


def check_rate_study(text: str) -> list:
    rows, slopes = [], []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0].isdigit():
            rows.append([float(x) for x in parts])
        elif line.startswith("fitted slope"):
            slopes.append(float(parts[-1]))
    if len(rows) < 3 or len(slopes) != 2:
        return ["rate-study table incomplete"]
    vals = [v for r in rows for v in r] + slopes
    if not all(math.isfinite(v) for v in vals):
        return ["non-finite value in rate-study table"]
    if any(not 0.0 <= v <= 1.0 for r in rows for v in r[2:]):
        return ["Kolmogorov distance outside [0, 1]"]
    return []


def check_gap_table(text: str) -> list:
    """Chernoff must bound the exact delta; the bundled ratio must reach its
    lower bound.  Both columns are printed with the same rounding, which
    keeps the order of the printed values."""
    reasons, deltas, ratios = [], 0, 0
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 5 and not line.startswith("#") and parts[0][0].isdigit():
            vals = [float(x) for x in parts]
            if "." in parts[0] and "e" in parts[1]:
                deltas += 1
                eps, exact, chern, gdp, _ = vals
                if not all(math.isfinite(v) for v in (eps, exact, chern, gdp)):
                    reasons.append(f"non-finite entry at eps={parts[0]}")
                elif chern < exact:
                    reasons.append(f"Chernoff below exact at eps={parts[0]}")
            else:
                ratios += 1
                if vals[3] < vals[4]:
                    reasons.append(f"bundled ratio below its lower bound at m={parts[0]}")
    if deltas == 0 or ratios == 0:
        reasons.append("bound-gap tables incomplete")
    return reasons


# ---------------------------------------------------------------------------
# group checks


def _curve_checks(job, result, channel, oracle) -> tuple:
    """Reasons, and (eps, delta) for the cross-job checks."""
    columns, rows = parse_table(result.out_text)
    if columns != ["epsilon", "delta"]:
        return [f"unexpected columns {columns}"], None
    eps, delta = [r[0] for r in rows], [r[1] for r in rows]
    meta = job.meta
    reasons = curve_shape(eps, delta, hockey_stick=meta["engine"] != "chernoff")
    if reasons:
        return reasons, (eps, delta)
    canonical = meta["k"] == 0 and meta["sidedness"] == "forward"
    if canonical and meta["engine"] in ("exact", "binomial"):
        bound = oracle.chernoff(channel, meta["n"], eps)
        if any(d > c + 1e-12 for d, c in zip(delta, bound)):
            reasons.append("delta exceeds the Chernoff bound by more than 1e-12")
    if canonical and meta["engine"] == "exact" and meta["d"] == 2:
        ref = oracle.binomial(channel, meta["n"], eps)
        if not all(rel_close(d, r, 1e-9, _NORMAL_MIN) for d, r in zip(delta, ref)):
            reasons.append("exact delta differs from the binomial engine by more than 1e-9 relative")
    if meta["engine"] == "chernoff" and meta["d"] == 2:
        ref = oracle.binomial(channel, meta["n"], eps)
        if any(r > c + 1e-12 for r, c in zip(ref, delta)):
            reasons.append("Chernoff bound below the binomial engine's delta")
    return reasons, (eps, delta)


def _check_one(job, result, channel, oracle) -> tuple:
    if result.rc != 0:
        last = result.stderr.strip().splitlines()[-1:] or [""]
        return [f"exit code {result.rc}: {last[0][:200]}"], None
    cmd = job.meta["cmd"]
    if cmd == "curve":
        return _curve_checks(job, result, channel, oracle)
    if cmd == "report":
        return check_report(result.stdout), None
    if cmd == "simulate":
        return check_simulation(result.out_text, job.meta["hypothesis"]), None
    if cmd == "unbundled":
        out = json.loads(result.out_text)
        reasons = curve_shape(out["epsilon"], out["delta"], hockey_stick=True)
        for key in ("p_null_sum", "p_alt_sum"):
            if not abs(out[key] - 1.0) <= 1e-9:
                reasons.append(f"atomization {key} is {out[key]!r}, off 1 by more than 1e-9")
        return reasons, None
    if cmd == "gdp_rate_study":
        return check_rate_study(result.stdout), None
    if cmd == "bound_gap_table":
        return check_gap_table(result.stdout), None
    raise ValueError(f"no check for {cmd!r}")


def check_group(group, results: list, oracle: Oracle) -> list:
    """Failure reasons per job of the group (an empty list means it passed)."""
    reasons, curves = [], []
    for job, result in zip(group.jobs, results):
        try:
            rs, curve = _check_one(job, result, group.channel, oracle)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            rs, curve = [f"unreadable output: {exc!r}"], None
        reasons.append(rs)
        curves.append(curve)
    # two-sided >= forward on the same input
    forward = [c for j, c, r in zip(group.jobs, curves, reasons)
               if c and not r and j.meta.get("sidedness") == "forward"]
    for i, (job, curve) in enumerate(zip(group.jobs, curves)):
        if curve and job.meta.get("sidedness") == "two-sided" and forward:
            if any(t < f for t, f in zip(curve[1], forward[0][1])):
                reasons[i].append("two-sided delta below the forward delta")
    # simulate output must not depend on the worker count
    sims = [(i, r.out_text) for i, (j, r) in enumerate(zip(group.jobs, results))
            if j.meta["cmd"] == "simulate" and r.rc == 0 and r.out_text is not None]
    if len({text for _, text in sims}) > 1:
        for i, _ in sims[1:]:
            reasons[i].append("simulate output differs between worker counts")
    return reasons
