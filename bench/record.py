"""Record the (check name, passed) multiset that every pass of a workload
must reproduce, into bench/expected.json.

    python3 bench/record.py [workload ...]

One unit of a workload is the checks run for one CLI seed.  The multiset is
recorded per unit and must be the same at every CLI seed in the workload's
`record_seeds`.  Re-record only when a change is meant to alter the checks.
"""

import json
import sys

import common


def unit_pairs(workload, cli_seed, report_json):
    common.run_pass(workload, [cli_seed], report_json)
    return common.check_pairs(report_json)


def main(names):
    common.load_fockmod()
    from workloads import WORKLOADS
    common.OUT.mkdir(exist_ok=True)
    try:
        with open(common.EXPECTED) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {"workloads": {}}
    for name in names or WORKLOADS:
        workload = WORKLOADS[name]
        seeds = list(workload.record_seeds)
        report = common.OUT / f"report-{name}-record.json"
        first = unit_pairs(workload, seeds[0], report)
        for s in seeds[1:]:
            got = unit_pairs(workload, s, report)
            if got != first:
                raise SystemExit(f"{name}: CLI seed {s} gives a different "
                                 f"check multiset than seed {seeds[0]}")
        if not all(passed for _, passed in first):
            raise SystemExit(f"{name}: failing checks at the recorded seeds")
        data["workloads"][name] = {"cli_seeds_checked": seeds,
                                   "pairs": common.as_rows(first)}
        print(f"{name}: {sum(first.values())} checks per unit, "
              f"{len(seeds)} CLI seeds agree", file=sys.stderr)
    with open(common.EXPECTED, "w") as fh:
        fh.write(common.strict_dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
