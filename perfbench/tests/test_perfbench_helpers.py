"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# percentile rule


def test_tail_has_ten_samples_beyond_it():
    values = list(range(30, 0, -1))  # 30 samples, unsorted
    value, pct, beyond = stats.tail(values)
    assert (value, beyond) == (20, 10)
    assert pct == pytest.approx(100 * 20 / 30)
    assert sum(v > value for v in values) == 10


def test_tail_at_twenty_two_samples_lies_above_the_median():
    assert stats.tail(range(22)) == (11, 100 * 12 / 22, 10)


def test_tail_without_enough_samples_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert stats.tail(range(21)) == (20, 100.0, 0)


# ---------------------------------------------------------------------------
# speed scaling


def test_end_to_end_scales_every_time_by_the_speed_factor():
    setup = [{"wall_s": 2.0}, {"wall_s": 4.0}]
    jobs = [{"wall_s": 4.0, "cpu_s": 3.0, "rss_mb": 10.0},
            {"wall_s": 1.0, "cpu_s": 1.0, "rss_mb": 20.0}]
    assert run._end_to_end(setup, jobs, 1.0) == {
        "setup_s": 3.0, "job_s_p50": 2.5, "job_s_tail": 4.0, "job_cpu_s_p50": 2.0,
        "jobs_per_s": 2 / 5, "peak_rss_mb": 20.0}
    assert run._end_to_end(setup, jobs, 0.5) == {
        "setup_s": 1.5, "job_s_p50": 1.25, "job_s_tail": 2.0, "job_cpu_s_p50": 1.0,
        "jobs_per_s": 4 / 5, "peak_rss_mb": 20.0}


def test_speed_probe_is_a_positive_time():
    assert 0.0 < stats.speed_probe() < 10.0


# ---------------------------------------------------------------------------
# self time


def _span(name, start, end, parent=None, counts=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "job": 0,
            "counts": counts or {}}


def test_self_time_subtracts_the_union_of_children_inside_the_parent():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 5.0, parent=0),  # overlaps a: covered once
        _span("c", 9.0, 12.0, parent=0),  # only [9, 10] lies inside root
        _span("grandchild", 1.5, 2.5, parent=1),  # counts against a, not root
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0])


def test_layer_metrics_report_zero_for_layers_never_called():
    spans = [
        _span("exact_dist.lr_atoms", 0.0, 2.0, counts={"atoms_in": 100, "atoms_out": 40}),
        _span("exact_dist.histogram_law", 0.5, 1.5, parent=0, counts={"atoms": 90}),
        _span("montecarlo.sample_privacy_loss", 3.0, 7.0, counts={"draws": 8, "workers": 1}),
        _span("montecarlo.sample_privacy_loss", 8.0, 10.0, counts={"draws": 8, "workers": 2}),
    ]
    extra = {"cli.output_bytes": 5}
    m = tracing.layer_metrics(spans, extra)
    assert set(m) == {name for name, _, _ in tracing.PER_LAYER} | set(extra)
    assert m["exact_dist.lr_atoms.self_s"] == pytest.approx(1.0)
    assert m["exact_dist.lr_atoms.merge_ratio"] == pytest.approx(0.4)
    assert m["exact_dist.histogram_law.atoms"] == 90
    assert m["montecarlo.sample_privacy_loss.calls"] == 2
    assert m["montecarlo.sample_privacy_loss.draws_per_s"] == pytest.approx(16 / 6)
    assert m["montecarlo.sample_privacy_loss.w2_speedup"] == pytest.approx(2.0)
    assert m["exact_dist.binomial_curve.calls"] == 0
    assert m["exact_dist.binomial_curve.self_s"] == 0


def test_install_wraps_every_global_and_uninstall_restores():
    import shuffledp
    import shuffledp.bounds
    import shuffledp.cli

    original = shuffledp.bounds.chernoff_delta
    tracer = tracing.Tracer()
    patched = tracing.install(tracer)
    try:
        assert shuffledp.cli.chernoff_delta is shuffledp.chernoff_delta
        assert shuffledp.cli.chernoff_delta is not original
        ch = shuffledp.rr_channel(1.0)
        shuffledp.chernoff_delta(ch, 100, 0.5)
        shuffledp.cli.chernoff_delta(ch, 100, 0.5)
        shuffledp.lr_atoms(ch, shuffledp.Composition(5, 0))
    finally:
        tracing.uninstall(patched)
    assert shuffledp.cli.chernoff_delta is original
    assert shuffledp.bounds.chernoff_delta is original
    names = [s["name"] for s in tracer.as_records()]
    assert names.count("bounds.chernoff_delta") == 2
    lr = next(s for s in tracer.as_records() if s["name"] == "exact_dist.lr_atoms")
    # the table is built from the n-1 = 4 user law, whose 5 atoms extend to 6
    assert lr["counts"] == {"atoms_in": 5, "atoms_out": 6}
    law = next(s for s in tracer.as_records() if s["name"] == "exact_dist.histogram_law")
    assert tracer.spans[law["parent"]][0] == "exact_dist.lr_atoms"


def test_binomial_terms_count_the_ratios_above_each_threshold():
    import numpy as np
    import shuffledp

    ch = shuffledp.rr_channel(1.0)
    eps = [0.0, 0.3, 0.9, 5.0]
    tracer = tracing.Tracer()
    patched = tracing.install(tracer)
    try:
        outer = tracer.open("caller")
        shuffledp.binomial_curve(ch, 200, eps)
        tracer.close(outer)
    finally:
        tracing.uninstall(patched)
    spans = tracer.as_records()
    curve = next(s for s in spans if s["name"] == "exact_dist.binomial_curve")
    w = shuffledp.score_stats(ch).w
    K = np.arange(201)
    lr = ((200 - K) / 200) * w[0] + (K / 200) * w[1]
    expected = sum(int(np.count_nonzero(lr > t)) for t in np.exp(eps))
    assert 0 < curve["counts"]["terms"] == expected < 201 * len(eps)
    # the counting is a sibling of the layer's span, so the caller's self
    # time does not include it
    counting = next(s for s in spans if s["name"] == tracing.COUNTER_SPAN)
    assert counting["parent"] == curve["parent"] == 0


# ---------------------------------------------------------------------------
# import-time parser

IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       120 |        120 |   _io
import time:      2000 |     150000 |   numpy
import time:       500 |     300000 |     scipy.special
import time:       700 |     710000 |   scipy.stats
import time:      1255 |    1163097 | shuffledp
Traceback lines and other stderr are ignored
"""


def test_parse_importtime_reads_cumulative_seconds():
    parsed = stats.parse_importtime(IMPORTTIME)
    assert parsed["shuffledp"] == pytest.approx(1.163097)
    assert parsed["scipy.stats"] == pytest.approx(0.71)
    assert parsed["scipy.special"] == pytest.approx(0.3)
    assert parsed["numpy"] == pytest.approx(0.15)
    assert "imported package" not in parsed


# ---------------------------------------------------------------------------
# output checks

EPS = [0.0, 0.5, 1.0, 1.5]


def _hockey(lr, p):
    return [sum(pi * max(li - math.exp(e), 0.0) for li, pi in zip(lr, p)) for e in EPS]


def test_a_true_hockey_stick_curve_passes():
    assert checks.curve_shape(EPS, _hockey([0.5, 1.0, 3.0], [0.4, 0.4, 0.2]), True) == []


def test_non_monotone_curve_is_flagged():
    assert "delta increases with eps" in checks.curve_shape(EPS, [0.3, 0.1, 0.2, 0.0], True)


def test_non_convex_curve_is_flagged():
    reasons = checks.curve_shape(EPS, [0.30, 0.29, 0.28, 0.0], True)
    assert "delta not convex in e^eps" in reasons
    # an upper bound (Chernoff) need not be convex
    assert checks.curve_shape(EPS, [0.30, 0.29, 0.28, 0.0], False) == []


def test_nan_and_out_of_range_curves_are_flagged():
    assert checks.curve_shape(EPS, [0.3, math.nan, 0.1, 0.0], True) == ["non-finite delta"]
    assert "delta outside [0, 1]" in checks.curve_shape(EPS, [1.5, 1.2, 1.1, 1.0], False)


def _report(exact):
    return json.dumps({"fisher": {"I_pi": 0.5, "I_pi_mixture_form": 0.5},
                       "gdp": {"mu_at_pi": None},
                       "jsd_canonical": {"exact": exact, "terms": [1e-3, -1e-6]}})


def test_nan_in_a_report_is_flagged():
    assert checks.check_report(_report(1e-3)) == []
    assert checks.check_report(_report(math.nan)) == ["non-finite .jsd_canonical.exact"]


def test_fisher_routes_that_disagree_are_flagged():
    text = json.dumps({"fisher": {"I_pi": 0.5, "I_pi_mixture_form": 0.5000001}})
    assert checks.check_report(text)


def _simulation(values, summary):
    lines = ["# command: simulate", "lambda", *map(repr, values),
             "# summary " + json.dumps(summary)]
    return "\n".join(lines) + "\n"


def test_simulation_martingale_check():
    lam = [math.log(x) for x in (0.5, 1.5, 0.8, 1.2)]
    good = _simulation(lam, {"mean_exp_lambda": 1.0, "se_exp_lambda": 0.2})
    assert checks.check_simulation(good, "null") == []
    biased = _simulation(lam, {"mean_exp_lambda": 2.5, "se_exp_lambda": 0.2})
    assert checks.check_simulation(biased, "null")
    # under alt the check uses e^-lambda, whose mean here is far from 1
    assert checks.check_simulation(_simulation([2.0, 2.1, 1.9, 2.0], {}), "alt")


def test_group_check_flags_worker_dependent_simulation_output():
    group = workloads.Group("sim", {"d": 2}, "ch.json")
    builder = workloads._Builder("w")
    builder.simulate(group, n=10, k=0, hypothesis="null", reps=4, seed=1)
    lam = [math.log(x) for x in (0.5, 1.5, 0.8, 1.2)]
    text = _simulation(lam, {"mean_exp_lambda": 1.0, "se_exp_lambda": 0.2})
    same = [checks.JobResult(0, "", "", text), checks.JobResult(0, "", "", text)]
    assert checks.check_group(group, same, checks.Oracle()) == [[], []]
    other = checks.JobResult(0, "", "", text.replace("lambda\n", "lambda\n0.0\n"))
    reasons = checks.check_group(group, [same[0], other], checks.Oracle())
    assert reasons[1] == ["simulate output differs between worker counts"]


def test_failed_exit_code_fails_the_job():
    group = workloads.Group("r", {"d": 2}, "ch.json")
    workloads._Builder("w").report(group, n=10)
    reasons = checks.check_group(group, [checks.JobResult(4, "", "internal error: x\n", None)],
                                 checks.Oracle())
    assert reasons == [["exit code 4: internal error: x"]]


# ---------------------------------------------------------------------------
# workloads and the benchmark contract


def _plan(workload, seed, n_cycles):
    stream = workloads.cycles(workload, seed, "w")
    return [[(g.slot, g.channel, [j.argv for j in g.jobs]) for g in next(stream)]
            for _ in range(n_cycles)]


def test_workloads_are_a_function_of_the_seed():
    assert _plan("exact-dp", 3, 1) == _plan("exact-dp", 3, 1)
    assert _plan("exact-dp", 3, 1) != _plan("exact-dp", 4, 1)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_the_job_mix_does_not_depend_on_the_seed(workload):
    def shape(seed):
        stream = workloads.cycles(workload, seed, "w")
        return [[(g.slot, [{k: v for k, v in j.meta.items() if k not in ("n", "k")}
                           for j in g.jobs]) for g in next(stream)]
                for _ in range(3)]

    assert shape(1) == shape(2) == shape(3)


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert all(0.0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
