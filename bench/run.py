"""fockmod benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; fockmod is imported from its src/.  The
workload seed generates every input (see workloads.py).  One caller runs
verification passes in a closed loop, each pass waiting for the previous
one; every pass must reproduce the recorded (check name, passed) multiset.

--trace 0 times untraced passes for --seconds and prints the end-to-end
metrics, with times scaled by the host's speed during the run (hostspeed.py);
--trace 1 runs one untraced pass, one traced pass and one pass in a child
process with single-threaded BLAS, and prints the per-layer metrics, whose
times are wall times, with the host's mean probe time beside them.
The last line of stdout is the result object; a fuller record, with the
environment, goes to .bench_out/.
"""

import argparse
import fcntl
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import common
from hostspeed import HostSpeed

SETUP_PROBES = 8
PROBES_PER_PASS = 2
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "verify_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "checks_total": "count",
}

# Per-layer metric -> (kind, key, unit).  Kinds: "self"/"lcalls" are a
# layer's self time and span count, "incl"/"calls" a span name's outermost
# inclusive time and call count, "layer_incl" a layer's inclusive time, and
# "value" a number computed by the traced run itself.  Times are listed only
# where every workload spends some: a layer that a workload never enters
# would report a time of exactly 0.0 on every run of it, which is not a
# measurement.  A count of 0 is an exact, true value, so a span only some
# workloads reach is listed by its call count.  The result record under
# .bench_out/ holds every layer's self time and every span name's time and
# calls.
PER_LAYER = {
    "fock.self_s": ("self", "fock", "s"),
    "fock.calls": ("lcalls", "fock", "count"),
    "fock.left_matrix.calls": ("calls", "fock.FockSpace.left_matrix",
                               "count"),
    "fock.left_matrix.s": ("incl", "fock.FockSpace.left_matrix", "s"),
    "fock.creation_matrix.calls": ("calls", "fock.FockSpace.creation_matrix",
                                   "count"),
    "fock.creation_matrix.s": ("incl", "fock.FockSpace.creation_matrix", "s"),
    "fock.masked_norm.s": ("incl", "fock.masked_norm", "s"),
    "fock.word.calls": ("calls", "fock.word", "count"),
    "fock.dense_bytes": ("value", "fock.dense_bytes", "B"),
    "fock.max_dim": ("value", "fock.max_dim", "count"),
    "fock.FockSpace.init.calls": ("calls", "fock.FockSpace.init", "count"),
    "fock.FockSpace.init.s": ("incl", "fock.FockSpace.init", "s"),
    "hilbmod.self_s": ("self", "hilbmod", "s"),
    "hilbmod.calls": ("lcalls", "hilbmod", "count"),
    "hilbmod.interior_tensor.s": ("incl", "hilbmod.interior_tensor", "s"),
    "hilbmod.HilbertBimodule.left_matrix.calls": (
        "calls", "hilbmod.HilbertBimodule.left_matrix", "count"),
    "hilbmod.HilbertBimodule.left_matrix.s": (
        "incl", "hilbmod.HilbertBimodule.left_matrix", "s"),
    "hilbmod.TensorStep.apply.s": ("incl", "hilbmod.TensorStep.apply", "s"),
    "hilbmod.cp_bimodule.calls": ("calls", "hilbmod.cp_bimodule", "count"),
    "hilbmod.canonicalize.calls": ("calls", "hilbmod.canonicalize", "count"),
    "hilbmod.canonicalize.s": ("incl", "hilbmod.canonicalize", "s"),
    "hilbmod.gram_schmidt.calls": ("calls", "hilbmod.gram_schmidt", "count"),
    "hilbmod.HilbertBimodule.inner.calls": (
        "calls", "hilbmod.HilbertBimodule.inner", "count"),
    "freeprod.self_s": ("self", "freeprod", "s"),
    "freeprod.calls": ("lcalls", "freeprod", "count"),
    "freeprod.product_vacuum_expectation.calls": (
        "calls", "freeprod.product_vacuum_expectation", "count"),
    "freeprod.AmalgSetup.P.calls": ("calls", "freeprod.AmalgSetup.P",
                                    "count"),
    "freeprod.AmalgSetup.W.calls": ("calls", "freeprod.AmalgSetup.W",
                                    "count"),
    "cstar.self_s": ("self", "cstar", "s"),
    "cstar.calls": ("lcalls", "cstar", "count"),
    "cstar.AlgebraElement.norm.calls": ("calls", "cstar.AlgebraElement.norm",
                                        "count"),
    "cstar.AlgebraElement.norm.s": ("incl", "cstar.AlgebraElement.norm", "s"),
    "cstar.block_diag_matrix.calls": ("calls", "cstar.block_diag_matrix",
                                      "count"),
    "cstar.block_diag_matrix.s": ("incl", "cstar.block_diag_matrix", "s"),
    "cstar.CPLinearMap.min_choi_eigenvalue.calls": (
        "calls", "cstar.CPLinearMap.min_choi_eigenvalue", "count"),
    "linalg.self_s": ("self", "linalg", "s"),
    "linalg.calls": ("lcalls", "linalg", "count"),
    "linalg.svd_norm.calls": ("calls", "linalg.svd_norm", "count"),
    "linalg.svd_norm.s": ("incl", "linalg.svd_norm", "s"),
    "crossed.calls": ("lcalls", "crossed", "count"),
    "crossed.crossed_product.calls": ("calls", "crossed.crossed_product",
                                      "count"),
    "crossed.folner_average.calls": ("calls", "crossed.folner_average",
                                     "count"),
    "bogoliubov.calls": ("lcalls", "bogoliubov", "count"),
    "bogoliubov.entropy_bound_report.calls": (
        "calls", "bogoliubov.entropy_bound_report", "count"),
    "instances.s": ("layer_incl", "instances", "s"),
    "instances.self_s": ("self", "instances", "s"),
    "report.self_s": ("self", "report", "s"),
    "report.checks": ("value", "report.checks", "count"),
    "report.max_margin": ("value", "report.max_margin", "ratio"),
    "cli.self_s": ("self", "cli", "s"),
    "process.cpu_s": ("value", "process.cpu_s", "s"),
    "blas1.verify_s": ("value", "blas1.verify_s", "s"),
    "blas1.cpu_s": ("value", "blas1.cpu_s", "s"),
    "trace.wall_s": ("value", "trace.wall_s", "s"),
    "trace.unspanned_s": ("value", "trace.unspanned_s", "s"),
    "trace.overhead_s": ("value", "trace.overhead_s", "s"),
    "trace.spans": ("value", "trace.spans", "count"),
    "host.probe_s": ("value", "host.probe_s", "s"),
}


def child(mode, workload, seed, env=None):
    """Run worker.py in a fresh interpreter and return its JSON line."""
    proc = subprocess.run(
        [sys.executable, str(common.ROOT / "bench" / "worker.py"), mode,
         workload, str(seed)],
        cwd=common.ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise common.BenchError(f"worker {mode} failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failing_checks(reports):
    """Failed checks with strict-JSON residuals, for the result record."""
    return [dict(suite=rep.suite, name=c.name, passed=c.passed,
                 residual=common.finite_or_marker(c.residual),
                 threshold=common.finite_or_marker(c.threshold))
            for rep in reports for c in rep.checks if not c.passed]


class Run:
    """One benchmark run: the passes made, the gate's verdict on each and
    the failed checks seen."""

    def __init__(self, workload, seed, expected):
        self.workload = workload
        self.seed = seed
        self.cli_seeds = workload.cli_seeds(seed)
        self.expected = expected
        self.per_pass = sum(expected.values()) * len(self.cli_seeds)
        self.attempted = 0
        self.mismatched = 0
        self.failures = []
        self.report_json = common.OUT / f"report-{workload.name}.json"

    def judge(self, got, reports=()):
        """Gate one pass against the recorded multiset."""
        self.attempted += max(sum(got.values()), self.per_pass)
        if not common.gate(self.expected, len(self.cli_seeds), got):
            self.mismatched += 1
            self.failures.extend(failing_checks(reports))

    @property
    def failed(self):
        """A crash, or a check list that differs from the recorded one,
        fails every check of the run."""
        return self.attempted if self.mismatched else 0

    def one_pass(self, speed=None):
        """Returns run_pass's (wall, cpu, reports)."""
        gc.collect()
        out = common.run_pass(self.workload, self.cli_seeds,
                              self.report_json, speed)
        self.judge(common.check_pairs(self.report_json), out[2])
        return out


def end_to_end(run, seconds):
    """Passes in a closed loop for `seconds`.  The setup probes, each a
    fresh process, are spread between the passes so that they sample the
    same stretch of time as the passes do.  The host is probed before each
    of them and between the suite calls of each pass; setup_s, and verify_s
    on a workload marked `scaled`, are scaled by the run's mean probe time
    (hostspeed.py)."""
    speed = HostSpeed()
    setups, walls = [], []

    def time_setup():
        speed.probe()
        setups.append(child("setup", run.workload.name, run.seed)["setup_s"])

    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        for _ in range(PROBES_PER_PASS):
            time_setup()
        walls.append(run.one_pass(speed)[0])
        now = time.perf_counter()
        if (now - start) + (now - t) > seconds:   # the next pass would overrun
            break
    while len(setups) < SETUP_PROBES:
        time_setup()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    verify_s = statistics.fmean(walls)
    metrics = {
        "verify_s": (speed.scale(verify_s) if run.workload.scaled
                     else verify_s),
        "setup_s": speed.scale(statistics.median(setups)),
        "peak_rss_mb": peak_kb / 1024,
        "checks_total": run.per_pass,
    }
    return metrics, {"verify_wall_s": walls, "setup_wall_s": setups,
                     "probe_s": speed.samples}


def max_margin(reports):
    """Largest finite residual / threshold over the checks."""
    ratios = [c.residual / c.threshold for rep in reports for c in rep.checks
              if c.threshold > 0 and math.isfinite(c.residual)]
    return max(ratios, default=0.0)


def per_layer(run):
    """An untraced pass (the reference for trace.overhead_s and the source
    of process.cpu_s), a traced pass, and a pass in a fresh process with
    single-threaded BLAS."""
    from spans import Tracer
    speed = HostSpeed()
    ref_verify_s, cpu_s, _ = run.one_pass(speed)
    tracer = Tracer()
    tracer.install()
    try:
        gc.collect()
        t0 = time.perf_counter()
        verify_s, _, reports = common.run_pass(
            run.workload, run.cli_seeds, run.report_json)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    run.judge(common.check_pairs(run.report_json), reports)
    summary = tracer.summary()
    env1 = dict(os.environ, **{k: "1" for k in common.BLAS_THREAD_VARS})
    blas1 = child("verify", run.workload.name, run.seed, env=env1)
    run.judge(common.from_rows(blas1["pairs"]))
    values = {
        "fock.dense_bytes": tracer.dense_bytes,
        "fock.max_dim": tracer.max_dim,
        "report.checks": sum(len(rep.checks) for rep in reports),
        "report.max_margin": max_margin(reports),
        "process.cpu_s": cpu_s,
        "blas1.verify_s": blas1["verify_s"],
        "blas1.cpu_s": blas1["cpu_s"],
        "trace.wall_s": wall,
        "trace.unspanned_s": wall - summary["roots_s"],
        "trace.overhead_s": verify_s - ref_verify_s,
        "trace.spans": summary["spans"],
        "host.probe_s": speed.mean_s(),
    }
    tables = {"self": summary["layer_self_s"],
              "lcalls": summary["layer_calls"],
              "incl": summary["incl_s"], "calls": summary["calls"],
              "layer_incl": summary["layer_incl_s"], "value": values}
    metrics = {name: tables[kind].get(key, 0)
               for name, (kind, key, _) in PER_LAYER.items()}
    tracer.write(common.OUT / f"spans-{run.workload.name}.txt.gz")
    detail = {"untraced_s": ref_verify_s,
              **{k: summary[k] for k in ("layer_self_s", "layer_incl_s",
                                         "layer_calls", "incl_s", "calls")}}
    return metrics, detail


def measure(workload, seed, seconds, trace):
    """Run the benchmark in this process; returns (result, record)."""
    run = Run(workload, seed, common.load_expected(workload.name))
    units = ({n: u for n, (_, _, u) in PER_LAYER.items()} if trace
             else END_TO_END)
    metrics, detail = {}, {}
    try:
        metrics, detail = (per_layer(run) if trace
                           else end_to_end(run, seconds))
    except Exception as exc:  # the program under test crashed
        traceback.print_exc()
        run.attempted += run.per_pass
        run.mismatched += 1
        run.failures.append({"error": f"{type(exc).__name__}: {exc}"})
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit}
                    for name, unit in units.items()},
    }
    record = {"workload": workload.name, "seed": seed,
              "cli_seeds": run.cli_seeds, "seconds": seconds,
              "trace": trace, "result": result, "detail": detail,
              "mismatched_passes": run.mismatched,
              "failed_checks": run.failures}
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.load_fockmod()
        from workloads import WORKLOADS
        if args.workload not in WORKLOADS:
            raise common.BenchError(f"unknown workload {args.workload!r}; "
                                    f"choose from {sorted(WORKLOADS)}")
        common.OUT.mkdir(exist_ok=True)
        with open(common.OUT / "lock", "w") as lock:
            try:
                fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise common.BenchError(
                    "another benchmark run holds .bench_out/lock; workloads "
                    "must not run concurrently")
            result, record = measure(WORKLOADS[args.workload], args.seed,
                                     args.seconds, args.trace)
            record["environment"] = common.environment()
            path = (common.OUT / f"result-{args.workload}-{args.seed}"
                    f"-trace{args.trace}.json")
            path.write_text(common.strict_dumps(record, indent=1) + "\n")
    except common.BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(common.strict_dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
