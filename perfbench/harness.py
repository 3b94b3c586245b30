"""Closed-loop timing, latency statistics, failure counting and the environment record."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

# Percentiles tried for the tail figure, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def tail_percentile(samples, min_beyond: int = TAIL_MIN_BEYOND):
    """Highest ladder percentile with at least ``min_beyond`` samples above its rank.

    Nearest-rank definition: the p-th percentile of n sorted samples is the
    one at rank ceil(p/100 n).  Returns None when even the median has fewer
    than ``min_beyond`` samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = max(1, -(-round(10 * p) * n // 1000))  # ceil(p/100 n) in integers
        beyond = n - rank
        if beyond >= min_beyond:
            return {"value": ordered[rank - 1], "percentile": p, "samples": n, "beyond": beyond}
    return None


def nonfinite(value) -> bool:
    """True when any number inside value (scalar, array, or list/tuple of them) is NaN or inf."""
    if isinstance(value, (list, tuple)):
        return any(nonfinite(v) for v in value)
    if isinstance(value, (int, float, complex, np.number, np.ndarray)):
        return not bool(np.all(np.isfinite(value)))
    return False


class Outcome:
    """Result of one op: 'ok', 'error' (raised or non-finite) or 'wrong' (missed its check)."""

    __slots__ = ("kind", "reason")

    def __init__(self, kind: str, reason: str = ""):
        self.kind = kind
        self.reason = reason

    @property
    def ok(self) -> bool:
        return self.kind == "ok"


def run_op(op, check):
    """Call op(); return (seconds, Outcome).  Only the call itself is timed."""
    start = time.perf_counter()
    try:
        value = op()
    except Exception as exc:  # every library error counts as a failed op
        return time.perf_counter() - start, Outcome("error", f"raised {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    if nonfinite(value):
        return seconds, Outcome("error", "non-finite result")
    reason = check(value)
    return seconds, Outcome("wrong" if reason else "ok", reason)


class Loop:
    """Closed loop, one client: whole passes over a fixed op list.

    Successive ``run`` calls accumulate samples and wall time.
    """

    def __init__(self):
        self.latencies = []
        self.outcomes = []  # (op index in pass, Outcome)
        self.passes = []  # (first op, end op, wall seconds) of each pass
        self.wall = 0.0

    def run(self, ops, checks, on_op=None, seconds=None, passes=None):
        """ops[i]() is timed; checks[i](value) returns '' or a failure reason.

        Runs ``passes`` passes, or whole passes until ``seconds`` have
        passed.  ``on_op(k)`` is called before the k-th op of this loop.
        """
        start = time.perf_counter()
        done = 0
        while True:
            first, pass_start = len(self.latencies), time.perf_counter()
            for i, (op, check) in enumerate(zip(ops, checks)):
                if on_op is not None:
                    on_op(len(self.latencies))
                seconds_taken, outcome = run_op(op, check)
                self.latencies.append(seconds_taken)
                self.outcomes.append((i, outcome))
            self.passes.append((first, len(self.latencies), time.perf_counter() - pass_start))
            done += 1
            if done == passes or (passes is None and time.perf_counter() - start >= seconds):
                break
        self.wall += time.perf_counter() - start

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for _, o in self.outcomes if not o.ok)

    def figures(self) -> dict:
        """Throughput and median are medians over passes, so a slow spell of the
        machine that covers less than half of the passes does not move them."""
        tail = tail_percentile(self.latencies)
        return {
            "ops_per_s": statistics.median((b - a) / wall for a, b, wall in self.passes),
            "op_p50_ms": 1e3 * statistics.median(
                statistics.median(self.latencies[a:b]) for a, b, _ in self.passes),
            "op_tail_ms": None if tail is None else dict(tail, value=1e3 * tail["value"]),
            "fail_frac": self.failed / self.attempted,
        }


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _first_line(path: str, key: str):
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit(root: str):
    """HEAD of the checkout, or None when root is not the top of a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def blas_threads():
    """Thread count BLAS will use: explicit env setting, else its default (nproc)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            return {"threads": os.environ[var], "source": var}
    return {"threads": os.cpu_count(), "source": "default (nproc)"}


def environment(root: str, threads_setting) -> dict:
    """Machine and software record stored with every result."""
    import scipy

    return {
        "nproc": os.cpu_count(),
        "ram": _first_line("/proc/meminfo", "MemTotal"),
        "cpu_model": _first_line("/proc/cpuinfo", "model name") or platform.processor(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "THETAFOCK_THREADS": threads_setting,
        "git_commit": _git_commit(root),
    }
