#!/usr/bin/env python3
"""The shuffledp benchmark: seeded workloads of real `shuffledp` jobs.

Run from the repository root:

    python3 perfbench/run.py --workload exact-dp --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45

`--trace 0` is the end-to-end run.  One client runs jobs in a closed loop
(the next job starts when the last one exits), each as its own process:
`python -m shuffledp.cli ...` with `src` on PYTHONPATH, a study script, or
the benchmark's library driver.  It runs whole cycles of the workload's job
list, as many as take `--seconds` on the reference machine (see
`workloads.NOMINAL_CYCLE_S`), so every run does the same work and sees the
same job mix.  Before each cycle it times one fresh package import, so the
set-up samples are spread over the run.  Then it checks every output and
reports end-to-end metrics.

The reference machine switches between two CPU speeds about 1.5x apart
within seconds.  So the run also times a short fixed Python loop
(`stats.speed_probe`) between all its steps, and reports every time at the
reference speed: multiplied by `stats.REF_PROBE_S` over the mean probe time
of the run.  The times as measured are in the run record, under `unscaled`.

`--trace 1` is the per-layer run.  It replays the same cycles in this
process, each job untraced and then with spans around the library's public
functions, and reports per-layer metrics plus the import profile.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Each run also writes a record (jobs
with argv and channel SHA-256, failures, environment, spans) under
`.perfbench_out/`.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
import warnings

import checks
import stats
import tracing
import workloads

OUT_DIR = ".perfbench_out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
JOB_TIMEOUT_S = 120.0

END_TO_END = (
    ("setup_s", "s"),
    ("job_s_p50", "s"),
    ("job_s_tail", "s"),
    ("job_cpu_s_p50", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def _command(job: workloads.Job) -> list:
    if job.kind == "cli":
        return [sys.executable, "-m", "shuffledp.cli", *job.argv]
    if job.kind == "script":
        return [sys.executable, job.script, *job.argv]
    return [sys.executable, "perfbench/unbundled_driver.py", *job.argv]


def spawn(cmd: list, env: dict, stdout_path: str, stderr_path: str) -> dict:
    """Run one process to completion: exit code, wall and CPU seconds, peak RSS."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def _read(path: str | None) -> str | None:
    if path is None or not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_channel(group: workloads.Group) -> str | None:
    if group.channel is None:
        return None
    text = workloads.channel_text(group.channel)
    with open(group.channel_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return hashlib.sha256(text.encode()).hexdigest()


class FatalError(Exception):
    """The program cannot run at all here; no result is printed."""


def measure_setup(env: dict, workdir: str) -> dict:
    """One fresh `python -c "import shuffledp"` process, timed like a job."""
    r = spawn([sys.executable, "-c", "import shuffledp"], env,
              f"{workdir}/setup.out", f"{workdir}/setup.err")
    if r["rc"] != 0:
        raise FatalError(f"import shuffledp failed: {_read(f'{workdir}/setup.err')}")
    return r


def import_profile(env: dict, workdir: str, repeats: int) -> dict:
    """Median cumulative import seconds of the modules the import.* metrics name."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import shuffledp"]
    names = {"shuffledp": "shuffledp", "scipy.stats": "scipy_stats",
             "scipy.special": "scipy_special", "numpy": "numpy"}
    samples = {key: [] for key in names.values()}
    spawn(cmd, env, f"{workdir}/imp.out", f"{workdir}/imp.err")  # warm-up
    for _ in range(repeats):
        r = spawn(cmd, env, f"{workdir}/imp.out", f"{workdir}/imp.err")
        if r["rc"] != 0:
            raise FatalError(f"import shuffledp failed: {_read(f'{workdir}/imp.err')}")
        parsed = stats.parse_importtime(_read(f"{workdir}/imp.err"))
        for module, key in names.items():
            samples[key].append(parsed.get(module, 0.0))
    return {f"import.{key}_s": statistics.median(v) for key, v in samples.items()}


def _job_record(group, job, sha, run, reasons) -> dict:
    return {"slot": group.slot, "kind": job.kind, "argv": _command(job)[1:],
            "channel_sha256": sha, **run, "failures": reasons}


def _check(groups_run: list, oracle: checks.Oracle) -> list:
    """Failure reasons per job, flattened in run order."""
    out = []
    for group, results in groups_run:
        out.extend(checks.check_group(group, results, oracle))
    return out


# ---------------------------------------------------------------------------
# end-to-end run


def run_untraced(workload: str, seed: int, seconds: float, workdir: str) -> dict:
    env = _child_env()
    stream = workloads.cycles(workload, seed, workdir)
    # A speed probe before the first step and after every step.  The CPU
    # switches between two speeds within seconds, faster than a job lasts,
    # so the probes are pooled into one speed factor for the whole run.
    probes = [stats.speed_probe()]
    setup, ran_groups, runs = [], [], []
    for _ in range(workloads.cycle_count(workload, seconds)):
        setup.append(measure_setup(env, workdir))
        probes.append(stats.speed_probe())
        cycle = next(stream)
        ran_groups.extend(cycle)
        for group in cycle:
            sha = _write_channel(group)
            for job in group.jobs:
                i = len(runs)
                r = spawn(_command(job), env, f"{workdir}/job{i}.out", f"{workdir}/job{i}.err")
                runs.append((group, job, sha, r))
                probes.append(stats.speed_probe())
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup(env, workdir))
        probes.append(stats.speed_probe())
    outputs = iter([
        checks.JobResult(r["rc"], _read(f"{workdir}/job{i}.out"), _read(f"{workdir}/job{i}.err"),
                         _read(job.out))
        for i, (_, job, _, r) in enumerate(runs)
    ])
    groups_run = [(g, [next(outputs) for _ in g.jobs]) for g in ran_groups]
    reasons = _check(groups_run, checks.Oracle())
    jobs = [r for *_, r in runs]
    speed = stats.REF_PROBE_S / statistics.fmean(probes)
    _, tail_pct, tail_beyond = stats.tail([r["wall_s"] for r in jobs])
    return {
        "metrics": _end_to_end(setup, jobs, speed),
        "jobs": [_job_record(g, j, sha, r, why) for (g, j, sha, r), why in zip(runs, reasons)],
        "notes": {"speed_factor": speed, "unscaled": _end_to_end(setup, jobs, 1.0),
                  "setup_samples_s": [r["wall_s"] for r in setup], "probes_s": probes,
                  "job_s_tail_percentile": tail_pct, "job_s_tail_beyond": tail_beyond},
    }


def _end_to_end(setup: list, jobs: list, speed: float) -> dict:
    """End-to-end metrics of timed set-ups and jobs, every time multiplied
    by `speed`.

    The closed loop runs one job at a time, so the workload's wall time is
    the sum of the job times.
    """
    walls = [r["wall_s"] * speed for r in jobs]
    return {
        "setup_s": statistics.median(r["wall_s"] * speed for r in setup),
        "job_s_p50": statistics.median(walls),
        "job_s_tail": stats.tail(walls)[0],
        "job_cpu_s_p50": statistics.median(r["cpu_s"] * speed for r in jobs),
        "jobs_per_s": len(walls) / sum(walls),
        "peak_rss_mb": max(r["rss_mb"] for r in jobs),
    }


# ---------------------------------------------------------------------------
# traced run


def _load_entries() -> tuple:
    """Entry points of the three job kinds, loaded into this process."""
    if "src" not in sys.path:
        sys.path.insert(0, "src")
    import shuffledp.cli
    import unbundled_driver

    scripts = {}
    for name in ("gdp_rate_study", "bound_gap_table"):
        spec = importlib.util.spec_from_file_location(f"_script_{name}", f"scripts/{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        scripts[f"scripts/{name}.py"] = module
    return shuffledp.cli, unbundled_driver, scripts


def _run_in_process(job, cli, driver, scripts) -> tuple:
    """(JobResult, wall seconds, RuntimeWarnings raised) of one job."""
    if job.kind == "cli":
        entry = lambda: cli.main(job.argv)  # noqa: E731 - looked up after tracing installs
    elif job.kind == "script":
        entry = lambda: scripts[job.script].main(job.argv)  # noqa: E731
    else:
        entry = lambda: driver.main(job.argv)  # noqa: E731
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = entry()
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing job is a failed job, not a failed benchmark
            traceback.print_exc()
            rc = 1
    wall = time.perf_counter() - start
    n_warn = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    return checks.JobResult(rc, out.getvalue(), err.getvalue(), _read(job.out)), wall, n_warn


def run_traced(workload: str, seed: int, seconds: float, workdir: str) -> dict:
    imports = import_profile(_child_env(), workdir, IMPORT_REPEATS)
    cli, driver, scripts = _load_entries()
    stream = workloads.cycles(workload, seed, workdir)
    groups = [g for _ in range(workloads.cycle_count(workload, seconds)) for g in next(stream)]
    shas = [_write_channel(g) for g in groups]
    jobs = [(g, j) for g in groups for j in g.jobs]

    # Each job runs untraced and traced back to back, so both runs see the
    # same machine state; which goes first alternates, so warm-up favours
    # neither.  Their difference is the tracing overhead.
    tracer = tracing.Tracer()
    untraced, runs = 0.0, []
    for i, (_, job) in enumerate(jobs):
        if i % 2 == 0:
            untraced += _run_in_process(job, cli, driver, scripts)[1]
        patched = tracing.install(tracer, [driver, *scripts.values()])
        tracer.job = i
        idx = tracer.open(f"job.{job.kind}")
        try:
            runs.append(_run_in_process(job, cli, driver, scripts))
        finally:
            tracer.close(idx)
            tracing.uninstall(patched)
        if i % 2 == 1:
            untraced += _run_in_process(job, cli, driver, scripts)[1]
    traced = sum(wall for _, wall, _ in runs)

    results = iter([r for r, _, _ in runs])
    groups_run = [(g, [next(results) for _ in g.jobs]) for g in groups]
    reasons = _check(groups_run, checks.Oracle())
    cli_runs = [(r, w) for (_, j), (r, _, w) in zip(jobs, runs) if j.kind == "cli"]
    spans = tracer.as_records()
    extra = dict(imports)
    extra["cli.output_bytes"] = sum(
        len(r.stdout.encode()) + len((r.out_text or "").encode()) for r, _ in cli_runs)
    extra["cli.runtime_warnings"] = sum(w for _, w in cli_runs)
    extra["trace.overhead_frac"] = (traced - untraced) / untraced
    metrics = tracing.layer_metrics(spans, extra)
    sha_of = {id(g): s for g, s in zip(groups, shas)}
    records = [
        _job_record(g, j, sha_of[id(g)], {"rc": r.rc, "wall_s": wall, "runtime_warnings": w}, why)
        for (g, j), (r, wall, w), why in zip(jobs, runs, reasons)
    ]
    return {
        "metrics": metrics,
        "jobs": records,
        "notes": {"untraced_s": untraced, "traced_s": traced,
                  "shares": _shares(spans, imports["import.shuffledp_s"] * len(jobs))},
        "spans": spans,
    }


def _shares(spans: list, import_s: float) -> list:
    """Share of the run's traced time per layer, largest first.

    Every job of a real run is its own process, so the package import is
    counted once per job next to the in-process self times.
    """
    totals = {name: t["self_s"] for name, t in tracing.layer_totals(spans).items()
              if name != tracing.COUNTER_SPAN}
    totals["import.shuffledp"] = import_s
    whole = sum(totals.values())
    return sorted(((name, value / whole) for name, value in totals.items()),
                  key=lambda item: -item[1])


# ---------------------------------------------------------------------------
# entry point


def _result_line(result: dict, trace: int) -> dict:
    if trace:
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        units = dict(END_TO_END)
    failed = sum(1 for j in result["jobs"] if j["failures"])
    return {
        "correct": failed == 0,
        "attempted": len(result["jobs"]),
        "failed": failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }


def _print_human(workload: str, seed: int, result: dict, line: dict) -> None:
    attempted, failed = line["attempted"], line["failed"]
    print(f"workload {workload} seed {seed}: {attempted} jobs, {failed} failed, "
          f"fail_rate {failed / attempted:.4g}")
    for job in result["jobs"]:
        if job["failures"]:
            print(f"  FAILED {' '.join(job['argv'])}: {'; '.join(job['failures'])}")
    for name, m in line["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    notes = result["notes"]
    if "unscaled" in notes:
        print(f"  times above are at the reference speed; speed factor "
              f"{notes['speed_factor']:.4f}; as measured: " + ", ".join(
                  f"{name} {value:.6g}" for name, value in notes["unscaled"].items()))
    if "job_s_tail_percentile" in notes:
        print(f"  job_s_tail is p{notes['job_s_tail_percentile']:.1f} with "
              f"{notes['job_s_tail_beyond']} jobs beyond it, of {attempted}")
    if "shares" in notes:
        top = ", ".join(f"{name} {share:.1%}" for name, share in notes["shares"][:5])
        print(f"  largest shares of traced time: {top}")


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = f"{OUT_DIR}/work-{workload}-{seed}-{trace}-{os.getpid()}"
    os.makedirs(workdir)
    env_start, load_start = stats.environment(), stats.loadavg()
    try:
        if trace:
            result = run_traced(workload, seed, seconds, workdir)
        else:
            result = run_untraced(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = _result_line(result, trace)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env_start, "loadavg_start": load_start,
              "loadavg_end": stats.loadavg(), **result, "result": line}
    with open(f"{OUT_DIR}/{workload}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    _print_human(workload, seed, result, line)
    return line


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, untraced then traced, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                raise FatalError(f"{workload} trace {trace} exited {proc.returncode}")
            line = json.loads(lines[-1])
            combined["correct"] &= line["correct"]
            combined["attempted"] += line["attempted"]
            combined["failed"] += line["failed"]
            for name, m in line["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = m
    return combined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in ("src/shuffledp/__init__.py", "scripts/gdp_rate_study.py",
                           "scripts/bound_gap_table.py") if not os.path.isfile(p)]
    if missing:
        print(f"error: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            line = run_all(args.seed, args.seconds)
        else:
            line = run_one(args.workload, args.seed, args.seconds, args.trace)
    except FatalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
