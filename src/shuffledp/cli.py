"""Command-line front end: curve, report, and simulate subcommands.

Every emitted file starts with a '#'-prefixed manifest (tool version,
command, resolved parameters, channel fingerprint) so results are traceable
to their inputs.  Worker count and wall-clock time are deliberately left
out of the default manifest: files produced with the same seed must be
byte-identical no matter how the work was parallelized (pass --stamp to
record them anyway).

Run as a program, the module imports with the cyclic garbage collector off
and freezes the import heap (`gc.freeze`) before the command runs; importing
it, or calling `main(argv)`, leaves the collector as it is.
"""

import gc

if __name__ == "__main__":
    # No collections while the stdlib, numpy and the engines load: their
    # objects live until exit, so a pass over them finds nothing.
    gc.disable()

import argparse
import dataclasses
import enum
import json
import math
import sys

import numpy as np

# hashlib loads OpenSSL (about 3.6 MB of RSS) to hash one short JSON; the
# interpreter's built-in SHA-256 gives the same digest, as random.py does it
try:
    from _sha256 import sha256 as _sha256  # CPython 3.10, 3.11
except ImportError:
    try:
        from _sha2 import sha256 as _sha256  # CPython 3.12 and later
    except ImportError:
        from hashlib import sha256 as _sha256

# Only what every subcommand needs is imported here; each subcommand imports
# the engines it calls, so a job loads no module it does not run.
from . import __version__
from .channels import Channel, Support, channel_from_json, score_stats
from .errors import EnumerationCapError, InternalInvariantError, ValidationError
from .exact_dist import (
    DEFAULT_ATOM_CAP,
    Composition,
    PrivacyCurve,
    Sidedness,
    _check_count,
    _check_eps_grid,
    _fmt,
    _table_to_csv,
    lr_atoms,
    privacy_curve,
)

DEFAULT_EPS_SPEC = "log:1e-3:10:64"

# manifest keys the CSV header spells differently from the JSON manifest
_CSV_KEYS = {"version": "shuffledp-version", "channel_sha256": "channel-sha256"}


def _manifest(args, channel: Channel, *keys: str) -> list:
    """Provenance of one output file as ordered (key, value) pairs.

    `keys` name the result-determining arguments of the command.  The worker
    count and the clock change bytes run to run, so they are recorded only
    with --stamp.  A CSV file carries the pairs as `# key: value` lines, a
    JSON file as its "manifest" object (`_write_table`).
    """
    fields = [
        ("version", __version__),
        ("command", args.command),
        ("channel_sha256", channel_fingerprint(channel)),
    ]
    fields += [(key, getattr(args, key)) for key in keys]
    if args.stamp:
        if "workers" in args:
            fields.append(("workers", args.workers))
        fields.append(("timestamp", _now()))
    return fields


def canonical_channel_json(channel: Channel) -> str:
    """Whitespace-free channel JSON; the fingerprint hashes exactly this."""
    payload = {"d": channel.d, "W0": channel.W0.tolist(), "W1": channel.W1.tolist()}
    return json.dumps(payload, separators=(",", ":"))


def channel_fingerprint(channel: Channel) -> str:
    """SHA-256 hex digest of `canonical_channel_json`.

    Taken from the interpreter's lean built-in module (`_sha256`, or
    `_sha2` from 3.12), falling back to `hashlib`: importing `hashlib` loads
    OpenSSL, which every CLI process would carry for one ~100-byte digest.
    The digest is the same either way.
    """
    return _sha256(canonical_channel_json(channel).encode("ascii")).hexdigest()


def parse_eps_grid(spec: str) -> np.ndarray:
    """Parse an epsilon-grid spec: 'log:lo:hi:count', 'lin:lo:hi:count', or
    a comma-separated list (sorted ascending).  `_check_eps_grid` refuses an
    empty grid and any entry that is not finite and nonnegative."""
    spec = spec.strip()
    kind, *bounds = spec.split(":")
    if kind not in ("log", "lin"):
        try:
            values = [float(tok) for tok in spec.split(",") if tok.strip()]
        except ValueError as exc:
            raise ValidationError(f"bad epsilon list {spec!r}: {exc}") from None
        return _check_eps_grid(np.sort(values))
    if len(bounds) != 3:
        raise ValidationError(f"grid spec needs kind:lo:hi:count, got {spec!r}")
    try:
        lo, hi, count = float(bounds[0]), float(bounds[1]), int(bounds[2])
    except ValueError as exc:
        raise ValidationError(f"bad grid spec {spec!r}: {exc}") from None
    if count < 0 or hi < lo:
        raise ValidationError(f"grid needs count >= 0 and lo <= hi, got {spec!r}")
    if kind == "log" and not lo > 0.0:
        raise ValidationError("log grid needs lo > 0")
    # an infinite bound makes NaN entries, which the check refuses
    with np.errstate(all="ignore"):
        return _check_eps_grid((np.geomspace if kind == "log" else np.linspace)(lo, hi, count))


# ---------------------------------------------------------------------------
# minimal SVG line chart (no plotting dependency)


# the chart's fixed axis titles and size in pixels
_SVG_XLABEL, _SVG_YLABEL = "epsilon", "delta"
_SVG_WIDTH, _SVG_HEIGHT = 640, 440


def svg_line_chart(x, y, log_x: bool = False, log_y: bool = False) -> str:
    """Render one polyline with axes and tick labels as a standalone SVG.

    Log axes silently drop nonpositive points (a privacy curve hits exactly
    zero); an empty or single-point series still renders valid axes.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    keep = np.isfinite(x) & np.isfinite(y)
    if log_x:
        keep &= x > 0.0
    if log_y:
        keep &= y > 0.0
    x, y = x[keep], y[keep]
    tx = np.log10(x) if log_x else x
    ty = np.log10(y) if log_y else y
    left, right, top, bottom = 70.0, 20.0, 20.0, 50.0
    pw, ph = _SVG_WIDTH - left - right, _SVG_HEIGHT - top - bottom

    def span(t):
        if t.size == 0:
            return 0.0, 1.0
        lo, hi = float(t.min()), float(t.max())
        if hi == lo:
            lo, hi = lo - 0.5, hi + 0.5
        return lo, hi

    x0, x1 = span(tx)
    y0, y1 = span(ty)
    px = left + (tx - x0) / (x1 - x0) * pw
    py = top + (y1 - ty) / (y1 - y0) * ph
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        f'<line x1="{left}" y1="{_SVG_HEIGHT - bottom}" x2="{_SVG_WIDTH - right}" '
        f'y2="{_SVG_HEIGHT - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{_SVG_HEIGHT - bottom}" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        gx = left + frac * pw
        gy = top + (1.0 - frac) * ph
        vx = x0 + frac * (x1 - x0)
        vy = y0 + frac * (y1 - y0)
        lx = 10.0**vx if log_x else vx
        ly = 10.0**vy if log_y else vy
        parts.append(
            f'<line x1="{gx:.2f}" y1="{_SVG_HEIGHT - bottom}" x2="{gx:.2f}" '
            f'y2="{_SVG_HEIGHT - bottom + 5}" stroke="black"/>'
            f'<text x="{gx:.2f}" y="{_SVG_HEIGHT - bottom + 18}" font-size="11" '
            f'text-anchor="middle">{lx:.3g}</text>'
        )
        parts.append(
            f'<line x1="{left - 5}" y1="{gy:.2f}" x2="{left}" y2="{gy:.2f}" stroke="black"/>'
            f'<text x="{left - 8}" y="{gy + 4:.2f}" font-size="11" '
            f'text-anchor="end">{ly:.3g}</text>'
        )
    parts.append(
        f'<text x="{left + pw / 2:.2f}" y="{_SVG_HEIGHT - 10}" font-size="13" '
        f'text-anchor="middle">{_SVG_XLABEL}{" (log)" if log_x else ""}</text>'
    )
    parts.append(
        f'<text x="16" y="{top + ph / 2:.2f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {top + ph / 2:.2f})">'
        f'{_SVG_YLABEL}{" (log)" if log_y else ""}</text>'
    )
    if x.size >= 2:
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f5fa8" stroke-width="1.5"/>')
    elif x.size == 1:
        parts.append(f'<circle cx="{px[0]:.2f}" cy="{py[0]:.2f}" r="3" fill="#1f5fa8"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# shared plumbing


def _load_channel(path: str) -> Channel:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read channel file {path!r}: {exc}") from None
    return channel_from_json(text)


def _finite_json(obj, path: str, nonfinite: dict):
    """`obj` as plain JSON values, with each NaN or infinite number replaced
    by None and recorded in `nonfinite` as "nan", "inf" or "-inf" under its
    path: keys joined by ".", list indices as "[i]".  An enum gives its
    value, a numpy array or scalar its `tolist()` (an all-finite array in
    one call, with no walk over its entries), a result record its fields in
    declaration order."""
    if isinstance(obj, dict):
        return {k: _finite_json(v, f"{path}.{k}" if path else k, nonfinite) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(v, f"{path}[{i}]", nonfinite) for i, v in enumerate(obj)]
    if isinstance(obj, float) and not math.isfinite(obj):
        nonfinite[path] = "nan" if math.isnan(obj) else "inf" if obj > 0.0 else "-inf"
        return None
    if obj is None or isinstance(obj, (str, int, float)):
        return obj
    if isinstance(obj, (np.ndarray, np.generic)):
        values = obj.tolist()
        return values if np.isfinite(obj).all() else _finite_json(values, path, nonfinite)
    if isinstance(obj, enum.Enum):
        return _finite_json(obj.value, path, nonfinite)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _finite_json({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}, path, nonfinite)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _strict_json(obj: dict, **dumps_args) -> str:
    """`obj` as strict JSON text, as the CLI writes every JSON: a number
    beyond the double range prints as null, and a top-level "nonfinite"
    object, present only when needed, names it."""
    nonfinite: dict = {}
    obj = _finite_json(obj, "", nonfinite)
    if nonfinite:
        obj["nonfinite"] = nonfinite
    return json.dumps(obj, allow_nan=False, **dumps_args)


def _write_table(args, manifest: list, columns: dict, extra: list | None = None, **tail) -> None:
    """Write named columns of equal length to `args.out` (or stdout).

    CSV: the manifest and `extra` as '#' lines, the table, then each `tail`
    value that is not None as a '# key {strict JSON}' line.  JSON: one
    object of the manifest, "extra" (when given), the columns and `tail`.
    """
    if args.format == "csv":
        header = [f"{_CSV_KEYS.get(key, key)}: {value}" for key, value in manifest] + (extra or [])
        text = _table_to_csv(tuple(columns), np.column_stack(tuple(columns.values())), header)
        for key, value in tail.items():
            if value is not None:
                text += f"# {key} {_strict_json(value, separators=(',', ':'))}\n"
    else:
        payload = {"manifest": dict(manifest)} | ({} if extra is None else {"extra": extra})
        text = _strict_json(payload | columns | tail, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _default_pi(n: int, k: int) -> float:
    """pi = k / (n-1) of the pair (k, k+1), which needs 0 <= k <= n-1."""
    _check_count("n", n)
    if not 0 <= k <= n - 1:
        raise ValidationError(f"the pair (k, k+1) needs k <= n-1; got k={k}, n={n}")
    return k / (n - 1) if n > 1 else 0.0


def _is_rr(channel: Channel) -> float | None:
    """Return eps0 if the channel is (numerically) a randomized-response
    channel, else None."""
    if channel.d != 2:
        return None
    if abs(channel.W0[0] - channel.W1[1]) > 1e-12 or abs(channel.W0[1] - channel.W1[0]) > 1e-12:
        return None
    if channel.W0[0] <= 0.0 or channel.W0[1] <= 0.0:
        return None
    return abs(math.log(channel.W0[0] / channel.W0[1]))


# ---------------------------------------------------------------------------
# subcommands


def cmd_curve(args) -> int:
    channel = _load_channel(args.channel)
    comp = Composition(args.n, args.k)
    eps = parse_eps_grid(args.eps)
    sidedness = Sidedness(args.sidedness)
    extra: list = []
    if args.engine != "exact" and sidedness is not Sidedness.FORWARD:
        raise ValidationError(f"engine={args.engine} computes the forward curve only")
    if args.engine in ("binomial", "chernoff") and args.k != 0:
        raise ValidationError(f"engine={args.engine} handles the canonical pair k=0 only")
    if args.engine == "binomial" and channel.d != 2:
        raise ValidationError(f"engine=binomial needs d=2, got d={channel.d}")
    if args.engine in ("exact", "binomial"):
        curve = privacy_curve(lr_atoms(channel, comp, cap=args.cap), eps, sidedness)
    elif args.engine == "gdp":
        from .asymptotics import gdp_delta, gdp_mu

        params = gdp_mu(channel, args.n, pi=_default_pi(args.n, args.k))
        curve = PrivacyCurve(eps, gdp_delta(eps, params.mu), Sidedness.FORWARD)
        extra = [f"gdp-mu: {_fmt(params.mu)}", f"gdp-source: {params.source.value}"]
    elif args.engine == "chernoff":
        from .bounds import chernoff_curve

        curve = chernoff_curve(channel, args.n, eps)
    else:  # pragma: no cover - argparse restricts choices
        raise ValidationError(f"unknown engine {args.engine!r}")

    manifest = _manifest(args, channel, "channel", "n", "k", "engine", "sidedness", "eps")
    _write_table(args, manifest, {"epsilon": curve.eps, "delta": curve.delta}, extra)
    if args.engine == "gdp" and args.out is not None:
        print(f"gdp_mu = {_fmt(params.mu)} ({params.source.value})")
    if args.svg is not None:
        chart = svg_line_chart(
            curve.eps,
            curve.delta,
            log_x="x" in args.svg_log,
            log_y="y" in args.svg_log,
        )
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(chart)
    return 0


def cmd_report(args) -> int:
    # the m-message engine and the sampler module are imported only in the
    # branches that call them, so a single-message report loads neither
    from .asymptotics import gdp_mu, jsd_canonical_asymptotic
    from .simplex_linalg import _check_pi, fisher_constant

    channel = _load_channel(args.channel)
    _check_count("m", args.m)
    if args.k is not None and args.pi is not None:
        raise ValidationError("give at most one of --k / --pi")
    pi = _check_pi(args.pi if args.pi is not None else _default_pi(args.n, args.k or 0))
    stats = score_stats(channel)
    report: dict = {
        "version": __version__,
        "channel": {
            "d": channel.d,
            "support": channel.support.value,
            "sha256": channel_fingerprint(channel),
            "delta_star": stats.delta_star,
            "delta_full": stats.delta_full,
        },
        "score": {"chi2": stats.chi2, "mu3": stats.mu3, "w_max": stats.w_max},
    }
    if not np.any(stats.v):
        report["note"] = "perfect privacy: v = 0"
    if channel.support is Support.FULL:
        fisher = fisher_constant(channel, pi)
        report["fisher"] = {
            "pi": pi,
            "I_pi": fisher.fisher,
            "I_pi_mixture_form": fisher.fisher,
            "I_mixture": fisher.fisher_mixture,
        }
        report["gdp"] = gdp = {
            "mu_canonical": gdp_mu(channel, args.n, pi=0.0).mu,
            "mu_at_pi": gdp_mu(channel, args.n, pi=pi).mu if pi > 0.0 else None,
        }
        if args.m > 1:
            from .multimessage import mm_gdp_compare

            gdp["mu_unbundled"] = gdp_mu(channel, args.n, pi=pi, m=args.m).mu
            gdp["m"] = args.m
            report["multimessage"] = mm_gdp_compare(channel, args.m)
    else:
        report["fisher"] = None
        report["gdp"] = None
    report["jsd_canonical"] = jsd_canonical_asymptotic(channel, args.n)
    eps0 = _is_rr(channel)
    if eps0 is not None:
        from .montecarlo import rr_boundary

        report["rr_boundary"] = rr_boundary(eps0, args.n)
    print(_strict_json(report, indent=2))
    return 0


def cmd_simulate(args) -> int:
    from .asymptotics import gdp_mu
    from .montecarlo import (
        Hypothesis,
        SimConfig,
        dkw_radius,
        kolmogorov_to_gaussian,
        sample_privacy_loss,
    )
    from .simplex_linalg import _require_full

    channel = _load_channel(args.channel)
    _require_full(channel, "simulate")
    comp = Composition(args.n, args.k)
    hypothesis = Hypothesis.NULL if args.hypothesis == "null" else Hypothesis.ALT
    config = SimConfig(seed=args.seed, reps=args.reps, workers=args.workers)
    lam = sample_privacy_loss(channel, comp, hypothesis, config, cap=args.cap)
    manifest = _manifest(args, channel, "channel", "n", "k", "hypothesis", "seed", "reps")
    summary = None
    if args.reps > 0:
        params = gdp_mu(channel, args.n, pi=_default_pi(args.n, args.k))
        exp_lam = np.exp(lam)
        summary = {
            "reps": args.reps,
            "mean_exp_lambda": float(exp_lam.mean()),
            "se_exp_lambda": float(exp_lam.std(ddof=1) / math.sqrt(args.reps))
            if args.reps > 1
            else None,
            "gdp_mu": params.mu,
            "kolmogorov_to_gaussian": kolmogorov_to_gaussian(lam, params.mu, hypothesis),
            "dkw_radius_95": dkw_radius(args.reps),
        }
    _write_table(args, manifest, {"lambda": lam}, summary=summary)
    if args.out is not None and summary is not None:
        print(_strict_json(summary, indent=2))
    return 0


def _now() -> str:
    import datetime

    return datetime.datetime.now(datetime.timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# parser / entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shuffledp",
        description="Exact and asymptotic privacy accounting for shuffled binary-input channels.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--channel", required=True, help="channel JSON file")
        p.add_argument("--n", type=int, required=True, help="number of users")
        p.add_argument("--k", type=int, default=0, help="ones in the null dataset (default 0)")
        p.add_argument(
            "--cap",
            type=int,
            default=DEFAULT_ATOM_CAP,
            help="cap on the cells an exact engine builds: for k=0 the histograms "
            "inside the per-symbol count windows (at most C(n+d-1, d-1), about "
            "(40 sqrt(n))^(d-1) at large n; the k=0 atoms peak at about 40 bytes "
            "per built cell), else the dense histogram law's (n+1)^(d-1)",
        )
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument(
            "--stamp",
            action="store_true",
            help="record timestamp (and workers) in the manifest; breaks byte-identity",
        )

    p_curve = sub.add_parser("curve", help="compute a delta(eps) curve")
    common(p_curve)
    p_curve.add_argument(
        "--engine", choices=("exact", "binomial", "gdp", "chernoff"), default="exact"
    )
    p_curve.add_argument(
        "--eps",
        default=DEFAULT_EPS_SPEC,
        help="grid spec: log:lo:hi:count, lin:lo:hi:count, or comma list",
    )
    p_curve.add_argument(
        "--sidedness", choices=[side.value for side in Sidedness], default="forward"
    )
    p_curve.add_argument("--svg", default=None, help="also render the curve to this SVG file")
    p_curve.add_argument(
        "--svg-log",
        choices=("none", "x", "y", "xy"),
        default="x",
        help="which SVG axes use log scale",
    )
    p_curve.set_defaults(func=cmd_curve)

    p_report = sub.add_parser("report", help="channel / asymptotics summary as JSON")
    p_report.add_argument("--channel", required=True)
    p_report.add_argument("--n", type=int, required=True)
    p_report.add_argument("--k", type=int, default=None)
    p_report.add_argument("--pi", type=float, default=None)
    p_report.add_argument("--m", type=int, default=1, help="messages per user (default 1)")
    p_report.set_defaults(func=cmd_report)

    p_sim = sub.add_parser("simulate", help="sample the privacy loss, deterministically")
    common(p_sim)
    p_sim.add_argument("--hypothesis", choices=("null", "alt"), default="null")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--reps", type=int, default=10000)
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


def console_entry() -> None:
    """Program entry: move the import heap out of all later collections
    (shutdown's included), then run the command with the collector on."""
    gc.freeze()
    gc.enable()
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
