"""The equality grid of fockmod's reports: two checkouts give the same
results when their dumps compare equal.

    python tools/report_grid.py dump OUT.json
    python tools/report_grid.py compare A.json B.json

`dump` runs the grid in process, with one BLAS thread, on the fockmod of
the checkout that holds this file (its `src/`): each of the eight suites at
CLI seeds 0, 3 and 25 and truncations default, 3 and 4 through
`cli.run_suites`, then `instances/example.json` with every suite.  For each
run it records what was asked and either the reports (per report the suite,
parameters and seed; per check the name, `passed`, repr(residual),
repr(threshold) and details) or the error the run raised, as its type and
message.  To dump another commit, copy this file into its checkout.

`compare` prints every field in which two dumps differ, residuals apart,
then the number of residuals that moved and the largest absolute move.  It
exits 1 when a field other than a residual differs, and 0 otherwise.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 3, 25)
TRUNCATIONS = (None, 3, 4)
INSTANCE = "instances/example.json"


def _record(request, run):
    """The request with the reports of run(), or with the error it raised."""
    try:
        reports = run()
    except Exception as exc:  # a refused run is a result of the grid too
        return {**request, "error": [type(exc).__name__, str(exc)]}
    return {**request, "reports": [
        {"suite": r.suite, "parameters": r.parameters, "seed": r.seed,
         "checks": [{"name": c.name, "passed": c.passed,
                     "residual": repr(c.residual),
                     "threshold": repr(c.threshold), "details": c.details}
                    for c in r.checks]}
        for r in reports]}


def dump(out):
    """Runs the grid and writes its records to the path out."""
    sys.path.insert(0, str(ROOT / "src"))
    from fockmod.cli import (SUITES, Settings, build_instance,
                             parse_instance, run_suites)
    from fockmod.report import _jsonable

    records = [_record({"suite": suite, "seed": seed,
                        "truncation": truncation},
                       lambda: run_suites(None, (suite,), Settings(
                           truncation=truncation, seed=seed)))
               for suite in SUITES for seed in SEEDS
               for truncation in TRUNCATIONS]

    def run_instance():
        ctx = build_instance(parse_instance(ROOT / INSTANCE))
        return run_suites(ctx, SUITES, Settings(**ctx["parameters"]))

    records.append(_record({"suite": "all", "instance": INSTANCE},
                           run_instance))
    with open(out, "w") as fh:
        json.dump(records, fh, indent=1, default=_jsonable)


def _label(request):
    return " ".join(f"{k}={v}" for k, v in request.items()
                    if k not in ("reports", "error"))


def compare(a, b):
    """The lines that name each field in which the dumps a and b differ,
    residuals apart, and the count and largest move of the residuals."""
    diffs, moves = [], []

    def walk(x, y, path):
        if isinstance(x, dict) and isinstance(y, dict):
            for key in sorted(x.keys() | y.keys()):
                if key in x and key in y:
                    walk(x[key], y[key], f"{path}/{key}")
                else:
                    diffs.append(f"{path}/{key}: only in "
                                 f"{'A' if key in x else 'B'}")
        elif isinstance(x, list) and isinstance(y, list):
            if len(x) != len(y):
                diffs.append(f"{path}: length {len(x)} != {len(y)}")
            for i, (u, v) in enumerate(zip(x, y)):
                walk(u, v, f"{path}/{i}")
        elif path.endswith("/residual"):
            if x != y:
                moves.append(abs(float(x) - float(y)))
        elif x != y:
            diffs.append(f"{path}: {x!r} != {y!r}")

    if len(a) != len(b):
        diffs.append(f"runs: {len(a)} != {len(b)}")
    for x, y in zip(a, b):
        walk(x, y, _label(x))
    return diffs + [f"residuals moved: {len(moves)}, largest move: "
                    f"{max(moves, default=0.0)!r}"], bool(diffs)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="report_grid",
                                     description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("dump").add_argument("out")
    pair = commands.add_parser("compare")
    pair.add_argument("a")
    pair.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.out)
        return 0
    with open(args.a) as fa, open(args.b) as fb:
        lines, differ = compare(json.load(fa), json.load(fb))
    print("\n".join(lines))
    return int(differ)


if __name__ == "__main__":
    # before numpy is first imported, so that BLAS starts one thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
