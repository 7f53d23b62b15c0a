"""Spans around the library's public functions, recorded from outside it.

`install` replaces each traced function at every module global that holds
it (the defining module, the package namespace, and every module that did
`from .x import f`), so calls are caught however they are looked up.  Spans
stay in memory as (name, start, end, parent, job, counts) and are written
out when the run ends.
"""

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

# Span around the counters a wrapper computes after its call returns.  It
# keeps that work out of the self time of the caller's span.
COUNTER_SPAN = "trace.counters"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id, counts]
        self._stack = []
        self.job = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job, {}])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def as_records(self) -> list:
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "job": s[4], "counts": s[5]}
            for s in self.spans
        ]


# Counters taken at a layer boundary from its arguments, its result and the
# counters of its child spans: counter(arguments, result, children), where
# children is a list of (name, counts).  Most count what the layer produced
# or what its callees built.  Three are sizes of the layer's input, which no
# change inside the layer can move; they are there so that the rates and
# ratios built on them compare across runs:
#   privacy_curve.atom_eps_cells  atoms x grid points x sides evaluated,
#   unbundled_lr_atoms.atoms_in   the multinomial support C(nm + d - 1, d - 1),
#                                 which the enumeration visits in full for the
#                                 strictly positive channels of the workloads,
#   sample_privacy_loss.draws     reps x n messages drawn.


def _grid(eps) -> np.ndarray:
    return np.atleast_1d(np.asarray(eps, dtype=np.float64))


def _child_sum(children, name: str, key: str) -> int:
    return sum(counts.get(key, 0) for child, counts in children if child == name)


def _lr_counts(a, r, children):
    """atoms_in: atoms of the histogram law the layer built its table from."""
    return {"atoms_in": _child_sum(children, "exact_dist.histogram_law", "atoms"),
            "atoms_out": int(r.lr.size)}


def _curve_counts(a, r, children):
    sides = 2 if getattr(a["sidedness"], "value", None) == "two-sided" else 1
    return {"atom_eps_cells": int(a["atoms"].lr.size) * _grid(a["eps"]).size * sides}


def _binomial_terms(a, r, children):
    """Summed terms: over the grid, the K in 0..n with ratio L(K) > e^eps,
    which are the terms both of the engine's summations add up."""
    n = a["n"]
    w = sys.modules["shuffledp"].score_stats(a["channel"]).w
    K = np.arange(n + 1, dtype=np.float64)
    lr = np.sort(((n - K) / n) * w[0] + (K / n) * w[1])
    below = np.searchsorted(lr, np.exp(_grid(a["eps"])), side="right")
    return {"terms": int((n + 1) * below.size - below.sum())}


def _unbundled_counts(a, r, children):
    return {"atoms_in": math.comb(a["n"] * a["m"] + a["channel"].d - 1, a["channel"].d - 1),
            "atoms_out": int(r.lr.size)}


def _sampler_counts(a, r, children):
    return {"draws": a["config"].reps * a["comp"].n, "workers": a["config"].workers}


LAYERS = (
    ("exact_dist", "histogram_law", lambda a, r, c: {"atoms": len(r.atoms)}),
    ("exact_dist", "lr_atoms", _lr_counts),
    ("exact_dist", "privacy_curve", _curve_counts),
    ("exact_dist", "reverse_atomization", None),
    ("exact_dist", "binomial_curve", _binomial_terms),
    ("exact_dist", "binomial_lr_atoms", lambda a, r, c: {"atoms": int(r.lr.size)}),
    ("exact_dist", "divergences", lambda a, r, c: {"atoms": int(a["atoms"].lr.size)}),
    ("bounds", "chernoff_delta", None),
    ("simplex_linalg", "fisher_constant", None),
    ("asymptotics", "gdp_mu", None),
    ("asymptotics", "jsd_canonical_asymptotic", None),
    ("multimessage", "mm_gdp_compare", None),
    ("multimessage", "unbundled_lr_atoms", _unbundled_counts),
    ("montecarlo", "sample_privacy_loss", _sampler_counts),
    ("montecarlo", "kolmogorov_to_gaussian", None),
    ("cli", "main", None),
)

# Per-layer metrics, in the order BENCHMARK.json lists them: (name, unit, better).
PER_LAYER = (
    [(f"import.{m}_s", "s", "lower") for m in ("shuffledp", "scipy_stats", "scipy_special", "numpy")]
    + [("cli.main.self_s", "s", "lower"), ("cli.output_bytes", "bytes", "lower"),
       ("cli.runtime_warnings", "count", "lower")]
    + [(f"exact_dist.histogram_law.{s}", u, "lower")
       for s, u in (("calls", "count"), ("self_s", "s"), ("atoms", "count"))]
    + [(f"exact_dist.lr_atoms.{s}", u, "lower")
       for s, u in (("calls", "count"), ("self_s", "s"), ("atoms_in", "count"),
                    ("atoms_out", "count"), ("merge_ratio", "ratio"))]
    + [("exact_dist.privacy_curve.self_s", "s", "lower"),
       ("exact_dist.privacy_curve.atom_eps_cells", "count", "lower"),
       ("exact_dist.reverse_atomization.self_s", "s", "lower")]
    + [(f"exact_dist.binomial_curve.{s}", u, "lower")
       for s, u in (("calls", "count"), ("self_s", "s"), ("terms", "count"))]
    + [("exact_dist.binomial_lr_atoms.self_s", "s", "lower"),
       ("exact_dist.binomial_lr_atoms.atoms", "count", "lower")]
    + [(f"exact_dist.divergences.{s}", u, "lower")
       for s, u in (("calls", "count"), ("self_s", "s"), ("atoms", "count"))]
    + [("bounds.chernoff_delta.calls", "count", "lower"), ("bounds.chernoff_delta.self_s", "s", "lower"),
       ("simplex_linalg.fisher_constant.calls", "count", "lower"),
       ("simplex_linalg.fisher_constant.self_s", "s", "lower"),
       ("asymptotics.gdp_mu.self_s", "s", "lower"),
       ("asymptotics.jsd_canonical_asymptotic.self_s", "s", "lower"),
       ("multimessage.mm_gdp_compare.self_s", "s", "lower")]
    + [(f"multimessage.unbundled_lr_atoms.{s}", u, "lower")
       for s, u in (("calls", "count"), ("self_s", "s"), ("atoms_in", "count"), ("atoms_out", "count"))]
    + [("montecarlo.sample_privacy_loss.calls", "count", "lower"),
       ("montecarlo.sample_privacy_loss.self_s", "s", "lower"),
       ("montecarlo.sample_privacy_loss.draws", "count", "lower"),
       ("montecarlo.sample_privacy_loss.draws_per_s", "1/s", "higher"),
       ("montecarlo.sample_privacy_loss.w2_speedup", "ratio", "higher"),
       ("montecarlo.kolmogorov_to_gaussian.self_s", "s", "lower"),
       ("trace.overhead_frac", "ratio", "lower")]
)


def _wrap(tracer: Tracer, name: str, fn, counter):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counter is not None:
            inner = tracer.open(COUNTER_SPAN)
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                children = [(s[0], s[5]) for s in tracer.spans[idx + 1:inner] if s[3] == idx]
                tracer.spans[idx][5].update(counter(bound.arguments, result, children))
            finally:
                tracer.close(inner)
        return result

    return traced


def install(tracer: Tracer, extra_modules=()) -> list:
    """Wrap every function of LAYERS; returns what `uninstall` needs."""
    modules = [m for name, m in sys.modules.items()
               if name == "shuffledp" or name.startswith("shuffledp.")]
    modules += list(extra_modules)
    patched = []
    for module, function, counter in LAYERS:
        original = getattr(sys.modules[f"shuffledp.{module}"], function)
        traced = _wrap(tracer, f"{module}.{function}", original, counter)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
                    patched.append((mod, attr, original))
    return patched


def uninstall(patched: list) -> None:
    for mod, attr, original in reversed(patched):
        setattr(mod, attr, original)


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children[i]):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append((s["end"] - s["start"]) - covered)
    return out


def layer_totals(spans: list) -> dict:
    """Per span name: calls, summed self time, summed counters, and self time
    split by the sampler's worker count."""
    totals = defaultdict(lambda: defaultdict(int))
    for s, self_s in zip(spans, self_times(spans)):
        t = totals[s["name"]]
        t["calls"] += 1
        t["self_s"] += self_s
        for key, value in s["counts"].items():
            if key != "workers":
                t[key] += value
        if "workers" in s["counts"]:
            t[f"self_s_w{s['counts']['workers']}"] += self_s
    return totals


def layer_metrics(spans: list, extra: dict) -> dict:
    """Every PER_LAYER metric; a layer that was never called reads 0."""
    totals = layer_totals(spans)
    values = dict(extra)
    for name, _, _ in PER_LAYER:
        if name in values:
            continue
        layer, _, stat = name.rpartition(".")
        t = totals.get(layer, {})
        if stat == "merge_ratio":
            values[name] = t["atoms_out"] / t["atoms_in"] if t.get("atoms_in") else 0.0
        elif stat == "draws_per_s":
            values[name] = t["draws"] / t["self_s"] if t.get("self_s") else 0.0
        elif stat == "w2_speedup":
            w1, w2 = t.get("self_s_w1", 0), t.get("self_s_w2", 0)
            values[name] = w1 / w2 if w1 and w2 else 0.0
        else:
            values[name] = t.get(stat, 0)
    return values
