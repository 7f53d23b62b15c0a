"""Seeded job streams for the two benchmark workloads.

A workload is an endless stream of cycles, each a list of job groups.  A
workload's plan is a short fixed list of cycles: every cycle holds the same
core jobs plus one share of the lighter jobs, and the stream walks the plan
in order.  A run of a multiple of the plan's length therefore sees every job
shape equally often, in the same order for every seed.  Each slot of a cycle
fixes the job shape (subcommand, engine, channel dimension, size target);
the seed only draws the channel and jitters the sizes by 1%.

Jobs in one group share their inputs, which lets the output checks compare
them: forward against two-sided curves, and `simulate` at one worker
against two workers.
"""

import functools
import json
import math
import random
from dataclasses import dataclass, field

DEFAULT_EPS = "log:1e-3:10:64"


@dataclass
class Job:
    """One process-sized unit of work.

    `kind` is "cli" (argv for `python -m shuffledp.cli`), "script" (a file
    under scripts/ plus its argv) or "driver" (the benchmark's library
    driver).  `meta` holds the parameters the output checks need.
    """

    kind: str
    argv: list
    meta: dict
    out: str | None = None
    script: str | None = None


@dataclass
class Group:
    slot: str
    channel: dict | None
    channel_path: str | None
    jobs: list = field(default_factory=list)


def channel_text(channel: dict) -> str:
    return json.dumps(channel, separators=(",", ":"))


def _around(rng: random.Random, target: float, rel: float = 0.01) -> int:
    return max(1, round(target * (1.0 + rel * (2.0 * rng.random() - 1.0))))


def _rr(rng: random.Random, lo: float = 0.5, hi: float = 2.0) -> dict:
    eps0 = rng.uniform(lo, hi)
    a = 1.0 / (1.0 + math.exp(-eps0))
    return {"d": 2, "W0": [a, 1.0 - a], "W1": [1.0 - a, a]}


def _full(rng: random.Random, d: int) -> dict:
    """Strictly positive (FULL) channel; raw weights in [0.2, 1] keep every
    entry at least 0.2 / d."""
    rows = []
    for _ in range(2):
        raw = [rng.uniform(0.2, 1.0) for _ in range(d)]
        total = math.fsum(raw)
        rows.append([x / total for x in raw])
    return {"d": d, "W0": rows[0], "W1": rows[1]}


class _Builder:
    """Turns slot descriptions into concrete jobs with paths under `workdir`."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.jobs = 0
        self.groups = 0

    def group(self, slot: str, channel: dict | None) -> Group:
        self.groups += 1
        path = f"{self.workdir}/ch{self.groups}.json" if channel else None
        return Group(slot=slot, channel=channel, channel_path=path)

    def _out(self, ext: str) -> str:
        self.jobs += 1
        return f"{self.workdir}/out{self.jobs}.{ext}"

    def curve(self, g: Group, n: int, k: int = 0, engine: str = "exact",
              eps: str = DEFAULT_EPS, sidedness: str = "forward") -> None:
        out = self._out("csv")
        argv = ["curve", "--channel", g.channel_path, "--n", str(n), "--k", str(k),
                "--engine", engine, "--eps", eps, "--sidedness", sidedness, "--out", out]
        meta = {"cmd": "curve", "engine": engine, "n": n, "k": k, "d": g.channel["d"],
                "sidedness": sidedness}
        g.jobs.append(Job("cli", argv, meta, out=out))

    def report(self, g: Group, n: int, m: int = 1) -> None:
        argv = ["report", "--channel", g.channel_path, "--n", str(n), "--m", str(m)]
        g.jobs.append(Job("cli", argv, {"cmd": "report", "n": n, "m": m}))

    def simulate(self, g: Group, n: int, k: int, hypothesis: str, reps: int, seed: int) -> None:
        for workers in (1, 2):
            out = self._out("csv")
            argv = ["simulate", "--channel", g.channel_path, "--n", str(n), "--k", str(k),
                    "--hypothesis", hypothesis, "--reps", str(reps), "--seed", str(seed),
                    "--workers", str(workers), "--out", out]
            meta = {"cmd": "simulate", "n": n, "k": k, "hypothesis": hypothesis,
                    "reps": reps, "workers": workers}
            g.jobs.append(Job("cli", argv, meta, out=out))

    def unbundled(self, g: Group, n: int, m: int, eps: str = DEFAULT_EPS) -> None:
        out = self._out("json")
        argv = ["--channel", g.channel_path, "--n", str(n), "--m", str(m), "--eps", eps,
                "--out", out]
        g.jobs.append(Job("driver", argv, {"cmd": "unbundled", "n": n, "m": m}, out=out))

    def script(self, g: Group, name: str, argv: list) -> None:
        g.jobs.append(Job("script", argv, {"cmd": name}, script=f"scripts/{name}.py"))


# A slot is fill(builder, rng, group_seed) -> Group.  Sizes stay inside the
# ranges each workload is defined by even after the +-1% jitter (exact-dp:
# d=2 n <= 2000, d=3 n <= 200, d=4 n <= 60, m-message d=3 nm <= 60;
# large-n: n <= 1e6).  The targets come from single-job timings on a 2-core
# Xeon, where the package import alone takes 1.3-1.6 s: the heavy jobs take
# 3-8 s, and on each workload the layer it is about takes a larger share of
# the time than the import does.  Each run puts its median inside a cluster
# of similar jobs (exact-dp: the 3-5 s DP jobs, 11 of 15; large-n: the ~2 s
# light jobs, 9 of 12), so noise in one job cannot move the median across a
# gap between clusters.


def _curve(name, channel, target, k=None, engine="exact", eps=DEFAULT_EPS, two_sided=False):
    """Slot with one curve job and, if `two_sided`, the two-sided job on the same input."""
    def fill(b, rng, s):
        g = b.group(name, channel(rng))
        n = _around(rng, target)
        kk = rng.randrange(n) if k is None else k
        b.curve(g, n, kk, engine=engine, eps=eps)
        if two_sided:
            b.curve(g, n, kk, engine=engine, eps=eps, sidedness="two-sided")
        return g
    return fill


def _report(name, channel, target, m):
    def fill(b, rng, s):
        g = b.group(name, channel(rng))
        b.report(g, _around(rng, target), m)
        return g
    return fill


def _sim_pair(d, target, with_k, hypothesis, reps):
    """`simulate` at one and at two workers on the same input and seed."""
    def fill(b, rng, s):
        g = b.group(f"sim-d{d}-{'k' if with_k else 'k0'}-{hypothesis}", _full(rng, d))
        n = _around(rng, target)
        b.simulate(g, n, rng.randrange(1, n) if with_k else 0, hypothesis, reps, s)
        return g
    return fill


def _unbundled(d, target, m):
    """Library driver at a fixed message count m."""
    def fill(b, rng, s):
        g = b.group(f"unbundled-d{d}", _full(rng, d))
        b.unbundled(g, _around(rng, target), m)
        return g
    return fill


def _script(name, args):
    def fill(b, rng, s):
        g = b.group(name, None)
        b.script(g, name, ["--eps0", repr(rng.uniform(0.5, 2.0)), *args(rng)])
        return g
    return fill


_d2 = functools.partial(_full, d=2)
_d3 = functools.partial(_full, d=3)
_d4 = functools.partial(_full, d=4)
# The binomial engine's cost grows with the share of the grid below
# log(w_max), so its channels stay near eps0 = ln 3 to keep the job size
# steady across seeds.
_rr_near_ln3 = functools.partial(_rr, lo=1.08, hi=1.12)


def _exact_dp():
    d3_pair = _curve("exact-d3", _d3, 190, two_sided=True)
    return [
        [d3_pair, _curve("exact-d2", _rr, 1900, k=0),
         _unbundled(2, 150, 4), _unbundled(3, 20, 3)],
        [d3_pair, _curve("exact-d4", _d4, 59), _sim_pair(3, 190, True, "alt", 10_000)],
        [d3_pair, _report("report-d3", _d3, 190, 1), _sim_pair(2, 47, False, "null", 10_000)],
    ]


def _large_n():
    def rate_ns(rng):
        return ["--n", ",".join(str(_around(rng, t)) for t in (110_000, 300_000, 950_000))]

    def gap_args(rng):
        return ["--n", str(_around(rng, 950_000)), "--points", "10"]

    binomial = _curve("binomial-1e6", _rr_near_ln3, 950_000, k=0, engine="binomial",
                      eps="log:1e-3:3:256")
    report = _report("report-1e6", _rr, 950_000, 2)
    return [
        [binomial, report, _curve("chernoff-5e5", _rr, 500_000, k=0, engine="chernoff",
                                  eps="log:1e-3:3:64"),
         _curve("gdp-1e6", _d3, 950_000, k=0, engine="gdp")],
        [binomial, report, _script("gdp_rate_study", rate_ns),
         _report("report-d2-m4", _d2, 200_000, 4)],
        [binomial, report, _script("bound_gap_table", gap_args),
         _curve("chernoff-1e6", _rr, 950_000, k=0, engine="chernoff", eps="log:1e-3:3:64")],
    ]


WORKLOADS = {
    "exact-dp": _exact_dp,
    "large-n": _large_n,
}

# Seconds one cycle of each workload takes on the reference 2-core Xeon.  A
# run measures round(seconds / nominal) whole cycles (at least one), so it
# does the same work on every machine and every run sees the same job mix.
NOMINAL_CYCLE_S = {"exact-dp": 16.5, "large-n": 13.5}


def cycle_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


def cycles(workload: str, seed: int, workdir: str):
    """Endless stream of cycles, each one list of job groups, one per slot.

    Cycle c follows entry c of the workload's plan, modulo its length.  Every
    random choice comes from a generator keyed by (seed, workload, cycle,
    slot), so a group does not depend on how many groups ran before.
    """
    plan = WORKLOADS[workload]()
    builder = _Builder(workdir)
    cycle = 0
    while True:
        out = []
        for i, fill in enumerate(plan[cycle % len(plan)]):
            rng = random.Random(f"{seed}:{workload}:{cycle}:{i}")
            out.append(fill(builder, rng, rng.randrange(2**31)))
        yield out
        cycle += 1
