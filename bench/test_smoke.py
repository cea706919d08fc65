"""Smoke test of the benchmark itself.

    python3 -m pytest -q bench/test_smoke.py

Runs the small `smoke` workload (the amalg suite at truncation 3) through
the benchmark, checks the tracer's self times on a controlled clock, and
compares one unit of each real workload with the `fockmod` command line.
"""

import collections
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import hostspeed  # noqa: E402

common.load_fockmod()

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from fockmod import cli  # noqa: E402
from fockmod.report import VerificationReport  # noqa: E402

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args], cwd=common.ROOT,
        capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1],
                      parse_constant=pytest.fail)


def cli_pairs(workload, cli_seed, tmp_path):
    got = collections.Counter()
    for suite in workload.suites:
        out = tmp_path / f"{suite}.json"
        argv = ["--suite", suite, "--seed", str(cli_seed), "--format", "json",
                "--out", str(out)]
        if workload.truncation is not None:
            argv += ["--truncation", str(workload.truncation)]
        assert cli.main(argv) == 0
        got += common.check_pairs(out)
    return got


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_benchmark_runs_what_the_cli_runs(name, tmp_path):
    workload = WORKLOADS[name]
    cli_seed = workload.cli_seeds(0)[0]
    report = tmp_path / "bench.json"
    common.run_pass(workload, [cli_seed], report)
    ours = common.check_pairs(report)
    assert ours == cli_pairs(workload, cli_seed, tmp_path)
    assert ours == common.load_expected(name)


def test_metric_names_and_units():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == {n: u for n, (_, _, u) in run.PER_LAYER.items()}
    assert SPEC["paths"] == ["bench"]
    for trace, table in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        res = result_of(bench("--workload", "smoke", "--seed", "0",
                              "--seconds", "1", "--trace", str(trace)))
        assert res["correct"] and res["failed"] == 0
        assert res["attempted"] >= 1
        assert set(res["metrics"]) == {m["name"] for m in table}
        for m in table:
            assert res["metrics"][m["name"]]["unit"] == m["unit"]
    record = json.loads((common.OUT / "result-smoke-0-trace1.json")
                        .read_text())
    assert record["environment"]["numpy"]
    metrics = record["result"]["metrics"]
    self_s = record["detail"]["layer_self_s"]
    assert set(self_s) >= {"cstar", "hilbmod", "fock", "freeprod",
                           "instances", "report", "cli", "linalg"}
    assert all(t >= 0 for t in self_s.values())
    # the traced pass is spanned from its first call to its last
    unspanned = metrics["trace.unspanned_s"]["value"]
    assert 0 <= unspanned < 0.05 * metrics["trace.wall_s"]["value"]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


def test_tracer_self_times():
    """Nested spans on a clock the test controls: each layer's self time is
    the time spent in its own bodies, whoever calls whom."""
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    leaf = tracer.wrap(lambda: clock.spend(2.0), "b.leaf")

    def mid_body(depth):
        clock.spend(3.0)
        leaf()
        if depth:
            mid(depth - 1)

    mid = tracer.wrap(mid_body, "a.mid")

    def top_body():
        clock.spend(1.0)
        mid(1)
        leaf()
        clock.spend(0.5)

    top = tracer.wrap(top_body, "a.top")
    clock.spend(7.0)
    top()
    summary = tracer.summary()
    assert summary["layer_self_s"] == {"a": 7.5, "b": 6.0}
    assert summary["calls"] == {"b.leaf": 3, "a.mid": 2, "a.top": 1}
    assert summary["layer_calls"] == {"a": 3, "b": 3}
    # inclusive time counts a recursive call once
    assert summary["incl_s"] == {"b.leaf": 6.0, "a.mid": 10.0,
                                 "a.top": 13.5}
    assert summary["layer_incl_s"] == {"a": 13.5, "b": 6.0}
    assert summary["roots_s"] == 13.5


class CountingSpeed(hostspeed.HostSpeed):
    def probe(self):
        self.samples.append(hostspeed.REF_S * (1 + len(self.samples) % 2))


def test_host_is_probed_between_suite_calls_and_scales_times():
    workload = WORKLOADS["bog-crossed"]
    cli_seeds = workload.cli_seeds(0)[:1]
    speed = CountingSpeed()
    common.OUT.mkdir(exist_ok=True)
    common.run_pass(workload, cli_seeds, common.OUT / "probed.json", speed)
    # before each of the three suite calls and after the report
    assert len(speed.samples) == len(workload.suites) + 1 == 4
    # the probes read 1, 2, 1, 2 times REF_S: the host ran at 2/3 speed
    assert speed.scale(3.0) == pytest.approx(2.0)
    assert hostspeed.probe_s() > 0


def test_gate_flags_a_tampered_check_list():
    workload = WORKLOADS["smoke"]
    expected = common.load_expected("smoke")
    (name, passed), count = next(iter(expected.items()))
    tampered = expected.copy()
    tampered[(name, passed)] -= 1
    tampered[(name, not passed)] += 1
    honest = run.Run(workload, 0, expected)
    honest.one_pass()
    assert honest.failed == 0 and honest.attempted == honest.per_pass
    bad = run.Run(workload, 0, tampered)
    bad.one_pass()
    assert bad.failed == bad.attempted == bad.per_pass


def test_failing_check_gives_strict_json():
    rep = VerificationReport(suite="demo")
    rep.add_bool("always-fails", "false", False)
    rep.add("ok", "0 = 0", 0.0, 1e-9)
    rows = run.failing_checks([rep])
    text = common.strict_dumps(rows)
    assert "Infinity" not in text
    (row,) = json.loads(text)
    assert row["residual"] == {"value": None, "nonfinite": "inf"}
    gate_run = run.Run(WORKLOADS["smoke"], 0, collections.Counter(
        {("always-fails", True): 1, ("ok", True): 1}))
    gate_run.judge(collections.Counter(
        {("always-fails", False): 1, ("ok", True): 1}), [rep])
    assert gate_run.failed == gate_run.attempted == 2
    common.strict_dumps(gate_run.failures)


def test_refuses_to_run_concurrently():
    import fcntl
    common.OUT.mkdir(exist_ok=True)
    with open(common.OUT / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        proc = bench("--workload", "smoke", "--seed", "0", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0 and proc.stdout == ""
