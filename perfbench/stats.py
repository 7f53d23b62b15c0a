"""Small helpers of the benchmark: the speed probe, the tail-percentile rule,
the import-time parser and the environment record."""

import importlib.metadata
import os
import platform
import time

# The probe's time on the 2-core Xeon the benchmark was tuned on, in the
# faster of the two speeds that machine switches between (about 0.022 s
# fast and 0.033 s slow; a state lasts from under a second to tens of
# seconds).
REF_PROBE_S = 0.022
PROBE_ITERATIONS = 400_000
PROBE_REPEATS = 3


def speed_probe() -> float:
    """Seconds of a fixed pure-Python loop at the CPU's current speed.

    The fastest of a few repeats, so one interruption does not count.
    """
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_ITERATIONS):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def tail(values, beyond: int = 10) -> tuple:
    """(value, percentile, jobs beyond) at the highest percentile that has at
    least `beyond` samples above it in sorted order.

    With 2 * `beyond` + 1 or fewer samples that percentile would not lie above
    the median, so it is no tail; the maximum is returned then, as percentile
    100 with 0 samples beyond, so the record says which rule applied.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    if len(xs) <= 2 * beyond + 1:
        return xs[-1], 100.0, 0
    i = len(xs) - beyond - 1
    return xs[i], 100.0 * (i + 1) / len(xs), beyond


def parse_importtime(text: str) -> dict:
    """Cumulative import seconds per module from `python -X importtime` stderr.

    A module is listed once, at its first import, so each value is the time
    to load that module and whatever it imported first.
    """
    cumulative = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        try:
            us = int(parts[1])
        except ValueError:  # the column header
            continue
        cumulative.setdefault(parts[2].strip(), us / 1e6)
    return cumulative


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        level = _read(f"{base}/{entry}/level")
        kind = _read(f"{base}/{entry}/type")
        size = _read(f"{base}/{entry}/size")
        if level and size and kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_commit() -> str | None:
    head = _read(".git/HEAD")
    if head and head.startswith("ref: "):
        return _read(os.path.join(".git", head[5:]))
    return head


def loadavg() -> str | None:
    return _read("/proc/loadavg")


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
    }
