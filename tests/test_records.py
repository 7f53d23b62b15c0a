"""The package's records keep the contract `@dataclass` gave them, built with no generated code.

Every record derives from `channels._Record`.  Each test below runs on all
of them.  Array fields compare and hash by their dtype, shape and bytes, so
records holding arrays compare and frozen ones hash, unlike `@dataclass`'s.
"""

import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shuffledp
from shuffledp import GdpSource, Regime, Sidedness, Support, ValidationError

ROOT = Path(__file__).resolve().parent.parent

# name: (fields in order, a record's field values, one field changed: (field, value))
RECORDS = {
    "Channel": (("d", "W0", "W1", "support"), (2, [0.5, 0.5], [0.25, 0.75], Support.FULL), ("d", 3)),
    "ScoreStats": (
        ("w", "r", "v", "chi2", "mu3", "w_max", "delta_star", "delta_full"),
        (1.5, 0.5, 0.25, 0.125, 0.0625, 1.5, 0.5, 0.25),
        ("mu3", 0.5),
    ),
    "Composition": (("n", "k"), (3, 1), ("k", 2)),
    "HistogramLaw": (("n", "d", "mass", "renormalized_by"), (2, 2, 0.5, 1.0), ("renormalized_by", 2.0)),
    "LrAtomization": (
        ("n", "k", "lr", "p_null", "p_alt", "alt_singular_mass", "dropped_null_mass", "dropped_alt_mass"),
        (2, 0, 1.5, 0.5, 0.75, 0.0, 0.0, 0.0),
        ("dropped_alt_mass", 1e-300),
    ),
    "PrivacyCurve": (("eps", "delta", "sidedness"), (0.5, 0.25, Sidedness.FORWARD), ("sidedness", Sidedness.REVERSE)),
    "TradeoffCurve": (("alpha", "beta"), (0.25, 0.5), ("beta", 0.75)),
    "DivergenceReport": (("jsd", "tv", "chi2", "kl", "renyi"), (0.1, 0.2, 0.3, 0.4, {2.0: 0.5}), ("renyi", {})),
    "ResidualSummary": (
        ("max_abs", "rms", "outside_mass", "window_halfwidth", "n_inside", "pi"),
        (0.1, 0.05, 1e-6, 30.0, 12, 0.0),
        ("n_inside", 13),
    ),
    "GdpParams": (("mu", "n", "pi", "m", "source"), (0.5, 100, 0.0, 1, GdpSource.CANONICAL), ("m", 2)),
    "ExpansionReport": (("n", "terms", "asymptotic", "exact", "residual"), (10, (0.1, -0.01), 0.09, None, None),
                        ("exact", 0.1)),
    "ChernoffEvaluation": (("eps", "n", "tau", "lam", "log_bound", "bound"), (1.0, 10, 1.7, 0.3, -2.0, 0.13),
                           ("lam", 0.4)),
    "FisherReport": (("pi", "f", "v", "sigma", "s", "fisher", "fisher_mixture"), (0.5, 0.5, 0.25, 0.5, 1.0, 0.9, 0.8),
                     ("fisher", 1.0)),
    "SimConfig": (("seed", "reps", "workers"), (7, 100, 1), ("workers", 2)),
    "FrequencyMseReport": (
        ("mse_estimate", "mse_bound", "bias", "bias_se", "p_realized", "reps"),
        (0.01, 0.02, 0.001, 0.002, 0.5, 100),
        ("reps", 101),
    ),
    "RrBoundary": (
        ("eps0", "n", "q", "a_n", "x_plus", "x_minus", "sigma2", "rho3", "lyapunov_ratio", "skew_bound",
         "lyapunov_bound", "regime"),
        (1.0, 100, 0.27, 0.027, 1.7, -0.63, 1.1, 1.2, 0.11, 3.3, 0.33, Regime.SUB_CRITICAL),
        ("regime", Regime.CRITICAL),
    ),
    "MmComparison": (
        ("m", "chi2", "unbundled_mu2n", "bundled_mu2n", "ratio", "ratio_lower_bound", "degenerate"),
        (2, 0.5, 1.0, 1.25, 1.25, 1.25, False),
        ("degenerate", True),
    ),
}
FROZEN = {"Channel", "ScoreStats", "Composition", "GdpParams", "ExpansionReport", "ChernoffEvaluation",
          "FisherReport", "SimConfig", "FrequencyMseReport", "RrBoundary", "MmComparison"}
DEFAULTS = {
    "HistogramLaw": {"renormalized_by": 1.0},
    "LrAtomization": {"alt_singular_mass": 0.0, "dropped_null_mass": 0.0, "dropped_alt_mass": 0.0},
    "DivergenceReport": {"renyi": dict},
    "ExpansionReport": {"exact": None, "residual": None},
    "SimConfig": {"workers": 1},
}


def _record(name):
    names, values, _ = RECORDS[name]
    return getattr(shuffledp, name), names, values, getattr(shuffledp, name)(*values)


def test_every_record_of_the_package_is_listed():
    records = {name for name in shuffledp.__all__
               if isinstance(getattr(shuffledp, name), type) and dataclasses.is_dataclass(getattr(shuffledp, name))}
    assert records == set(RECORDS)
    assert FROZEN <= records and set(DEFAULTS) <= records


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_replace_and_match_args(name):
    cls, names, values, record = _record(name)
    assert dataclasses.is_dataclass(record) and [f.name for f in dataclasses.fields(cls)] == list(names)
    assert cls.__match_args__ == names
    copy = dataclasses.replace(record)
    assert type(copy) is cls and copy == record
    field, value = RECORDS[name][2]
    changed = dataclasses.replace(record, **{field: value})
    assert getattr(changed, field) == value
    assert dataclasses.replace(changed, **{field: getattr(record, field)}) == record
    assert list(dataclasses.asdict(record)) == list(names) == list(vars(record))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_hash_and_repr(name):
    cls, names, values, record = _record(name)
    field, value = RECORDS[name][2]
    changed = dataclasses.replace(record, **{field: value})
    assert record == cls(*values) and not record != cls(*values)
    assert record != changed and not record == changed
    assert record.__eq__(tuple(values)) is NotImplemented and record != tuple(values)
    if name in FROZEN:
        key = tuple(getattr(record, n) for n in names)
        if name == "Channel":  # an array field hashes as its dtype, shape and bytes
            key = (2, *((a.dtype.str, a.shape, a.tobytes()) for a in (record.W0, record.W1)), Support.FULL)
        assert hash(record) == hash(cls(*values)) == hash(key)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    fields = ", ".join(f"{n}={getattr(record, n)!r}" for n in names)
    assert repr(record) == f"{name}({fields})"


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_frozen_records_refuse_assignment_and_deletion(name):
    _, names, _, record = _record(name)
    if name not in FROZEN:
        setattr(record, names[0], 5)
        assert getattr(record, names[0]) == 5
        return
    before = getattr(record, names[0])
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{names[0]}'"):
        setattr(record, names[0], 5)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{names[0]}'"):
        delattr(record, names[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.other = 1
    assert getattr(record, names[0]) is before


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_arguments_positional_keyword_defaults_and_refusals(name):
    cls, names, values, record = _record(name)
    keywords = dict(zip(names, values))
    assert cls(**keywords) == record == cls(*values[:1], **dict(list(keywords.items())[1:]))
    required = [n for n in names if n not in DEFAULTS.get(name, {})]
    assert cls(**{n: keywords[n] for n in required}) == cls(*values[: len(required)])
    with pytest.raises(TypeError, match="missing"):
        cls(*values[: len(required) - 1])
    with pytest.raises(TypeError, match="arguments"):
        cls(*values, 1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{names[0]}'"):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError, match="unexpected keyword argument 'no_such_field'"):
        cls(*values, no_such_field=1)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_signature_lists_the_fields_and_their_defaults(name):
    cls, names, _, _ = _record(name)
    params = inspect.signature(cls).parameters
    assert list(params) == list(names)
    defaults = {n: p.default for n, p in params.items() if p.default is not inspect.Parameter.empty}
    assert defaults == DEFAULTS.get(name, {})
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params.values())
    # a written docstring: `@dataclass` made one from the signature for a class without
    assert cls.__doc__ and not cls.__doc__.startswith(f"{name}(")


def test_records_holding_arrays_compare_and_hash_by_dtype_shape_and_bytes():
    a, b = shuffledp.rr_channel(1.0), shuffledp.rr_channel(1.0)
    assert a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != shuffledp.rr_channel(1.1)
    mass = np.array([0.25, 0.25, 0.5, 0.0])
    law = shuffledp.HistogramLaw(3, 2, mass)
    assert law == shuffledp.HistogramLaw(3, 2, mass.copy())
    assert law != shuffledp.HistogramLaw(3, 2, mass.reshape(2, 2))  # same bytes, another shape
    assert law != shuffledp.HistogramLaw(3, 2, mass.astype(np.float32))
    assert law != shuffledp.HistogramLaw(3, 2, mass.view(np.int64))  # same bytes, another dtype


def test_frozen_records_hold_read_only_views_of_their_arrays():
    w = np.array([0.5, 2.0])
    stats = shuffledp.ScoreStats(w, w - 1.0, w, 1.0, 1.0, 2.0, 0.5, 0.5)
    assert w.flags.writeable and not any(a.flags.writeable for a in (stats.w, stats.r, stats.v))
    with pytest.raises(ValueError, match="read-only"):
        stats.w[0] = 1.0
    report = shuffledp.fisher_constant(shuffledp.rr_channel(1.0), 0.5)
    assert not any(a.flags.writeable for a in (report.f, report.v, report.sigma, report.s))
    assert shuffledp.HistogramLaw(3, 2, w).mass.flags.writeable  # a record that does not hash keeps them writable


def test_default_factory_gives_each_record_its_own_value():
    a, b = shuffledp.DivergenceReport(0.1, 0.2, 0.3, 0.4), shuffledp.DivergenceReport(0.1, 0.2, 0.3, 0.4)
    assert a.renyi == {} and a.renyi is not b.renyi
    a.renyi[2.0] = 0.5
    assert b.renyi == {}


def test_post_init_still_validates_and_converts():
    with pytest.raises(ValidationError, match="k <= n"):
        shuffledp.Composition(3, 4)
    with pytest.raises(ValidationError, match="seed"):
        shuffledp.SimConfig(seed=1.5, reps=10)
    channel = shuffledp.Channel(2, [0.5, 0.5], [0.25, 0.75], Support.FULL)
    assert channel.W0.dtype.kind == "f" and not channel.W0.flags.writeable


# A fresh interpreter with numpy loaded counts the record methods defined by
# code compiled from a string (what `@dataclass` builds for each class) while
# the CLI and every engine module import.  The methods are counted, not the
# `exec` calls: from Python 3.13 `dataclasses` runs one `exec` a class even
# when it generates no method.
EXEC_PROBE = """
import sys
import numpy

METHODS = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__"}
methods = []

def defined(code):
    for const in code.co_consts:
        if hasattr(const, "co_consts"):
            yield const.co_name
            yield from defined(const)

def hook(event, args):
    if event == "exec" and getattr(args[0], "co_filename", None) == "<string>":
        methods.extend(name for name in defined(args[0]) if name in METHODS)

sys.addaudithook(hook)
import shuffledp.cli, shuffledp.asymptotics, shuffledp.bounds, shuffledp.montecarlo, shuffledp.multimessage
import shuffledp.simplex_linalg, shuffledp.fold, shuffledp.diagnostics
print(len(methods), methods[:6])
"""


def test_importing_the_package_runs_no_generated_code():
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", EXEC_PROBE], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split(None, 1)[0] == "0", out.stdout
