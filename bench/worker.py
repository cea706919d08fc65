"""Child process of the benchmark, started fresh so that what it times
includes what a new process pays.

    python3 bench/worker.py setup  <workload> <seed>
        seconds to import fockmod and generate the workload's inputs
    python3 bench/worker.py verify <workload> <seed>
        one untraced pass, for the single-threaded BLAS baseline

Prints one JSON line.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import common  # noqa: E402


def main(mode, name, seed):
    common.load_fockmod()
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    cli_seeds = workload.cli_seeds(seed)
    if mode == "setup":
        for s in cli_seeds:
            workload.inputs(s)
        return {"setup_s": time.perf_counter() - T0}
    report = common.OUT / f"report-{name}-worker.json"
    verify_s, cpu_s, _ = common.run_pass(workload, cli_seeds, report)
    return {"verify_s": verify_s, "cpu_s": cpu_s,
            "pairs": common.as_rows(common.check_pairs(report))}


if __name__ == "__main__":
    print(common.strict_dumps(main(sys.argv[1], sys.argv[2],
                                   int(sys.argv[3]))))
