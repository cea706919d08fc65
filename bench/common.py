"""Shared by the benchmark's entry point and its child processes: locating
and importing fockmod from the checkout, one timed verification pass, the
correctness gate, strict JSON and the environment record."""

import collections
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_fockmod():
    """Import fockmod from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "fockmod" / "__init__.py").is_file():
        raise BenchError(f"no fockmod sources under {src}")
    sys.path.insert(0, str(src))
    import fockmod
    if Path(fockmod.__file__).resolve().parent != (src / "fockmod").resolve():
        raise BenchError(f"fockmod imported from {fockmod.__file__}, "
                         f"not from {src}")
    return fockmod


def check_pairs(report_json):
    """Multiset of (check name, passed) pairs in a CLI JSON report."""
    with open(report_json) as fh:
        data = json.load(fh)
    return collections.Counter((c["name"], bool(c["passed"]))
                               for rep in data["reports"]
                               for c in rep["checks"])


def run_pass(workload, cli_seeds, report_json, speed=None):
    """Run the workload's suites for each CLI seed and emit the CLI's JSON
    report.  Each suite is its own fockmod.cli.run_suites call; the CLI
    makes the same calls, one after another.

    Returns (wall seconds, cpu seconds, reports).  Wall is the time of the
    suite calls and of writing the report.  With `speed`, a
    hostspeed.HostSpeed, the host is probed before the first suite call and
    after each, outside the timed part."""
    from fockmod import cli
    wall = cpu = 0.0
    reports = []
    for s in cli_seeds:
        for suite in workload.suites:
            if speed:
                speed.probe()
            t0, c0 = time.perf_counter(), time.process_time()
            reports.extend(cli.run_suites(None, (suite,),
                                          workload.settings(s)))
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
    t0, c0 = time.perf_counter(), time.process_time()
    cli.emit(reports, "json", str(report_json), wall)
    wall += time.perf_counter() - t0
    cpu += time.process_time() - c0
    if speed:
        speed.probe()
    return wall, cpu, reports


def load_expected(name):
    """The recorded (check name, passed) multiset of one unit (one CLI seed)
    of a workload."""
    with open(EXPECTED) as fh:
        return from_rows(json.load(fh)["workloads"][name]["pairs"])


def gate(expected_unit, units, got):
    """True when `got` is exactly `units` copies of the recorded multiset."""
    want = collections.Counter({k: v * units
                                for k, v in expected_unit.items()})
    return got == want


def as_rows(counter):
    return sorted([n, p, c] for (n, p), c in counter.items())


def from_rows(rows):
    return collections.Counter({(n, p): c for n, p, c in rows})


def finite_or_marker(value):
    """A residual for strict JSON: non-finite values become null plus a
    marker naming them."""
    value = float(value)
    if math.isfinite(value):
        return {"value": value}
    return {"value": None, "nonfinite": repr(value)}


def strict_dumps(obj, **kw):
    return json.dumps(obj, allow_nan=False, **kw)


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True, timeout=30).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, check=True,
                timeout=30).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "cpu_model": cpu,
        "git_commit": commit,
        "git_dirty": dirty,
    }
