"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload social-sqlite --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with every benchmark wrapper
off; ``--trace 1`` makes the separate traced run that reports the
per-layer metrics.  Metric names and units come from ``BENCHMARK.json``;
the run fails if the workload does not produce exactly that set.  Human
readable lines (round and call counts, the calibration and the unscaled
times, the F/E/M comparison with QueryStats) precede the final JSON
line.  The exit status is 1 when any
query failed, after the JSON line reports the failures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("social-sqlite", "road-minidb", "served-zipf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    section = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[section]}

    import workloads

    work = os.path.join(HERE, "_work")
    os.makedirs(work, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work)
    try:
        if args.workload == "served-zipf":
            run = workloads.run_served(args.seed, args.seconds,
                                       bool(args.trace), scratch)
        else:
            workload = (workloads.SOCIAL if args.workload == "social-sqlite"
                        else workloads.ROAD)
            run = workloads.run_embedded(workload, args.seed, args.seconds,
                                         bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not os.listdir(work):
            os.rmdir(work)

    if set(run.metrics) != set(units):
        missing = sorted(set(units) - set(run.metrics))
        extra = sorted(set(run.metrics) - set(units))
        print(f"metric set differs from BENCHMARK.json {section}: "
              f"missing {missing}, extra {extra}", file=sys.stderr)
        return 3
    for line in run.info:
        print(line)
    for sample in run.failure_samples:
        print(f"failure: {sample}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": run.metrics[name], "unit": units[name]}
                    for name in units},
    }))
    # A wrong answer or a raised error fails the run, whatever the bounds.
    return 1 if run.failed else 0


if __name__ == "__main__":
    sys.exit(main())
