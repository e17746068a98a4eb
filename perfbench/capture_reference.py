"""Write perfbench/reference/<workload>.json from a run of the program.

usage: python3 perfbench/capture_reference.py [WORKLOAD ...]

Run from the root of a checkout.  Captures each verify workload's claim
statuses, non-float evidence and exit code, which every later run is
compared with.  Recapture only when a change to those is intended, and
say so where the change is recorded.
"""

import json
import sys
from pathlib import Path

import run
import workloads


def main(names):
    root = Path.cwd().resolve()
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or workloads.VERIFY_ARGV:
        sample = run.spawn(root, {"workload": name, "seed": 0,
                                  "trace": False, "spans_path": None})
        if sample.output is None:
            sys.exit(f"{name}: the child failed")
        reference = workloads.reference_from_report(
            name, sample.output["exit_code"], sample.output["report"])
        path = workloads.REFERENCE_DIR / f"{name}.json"
        with open(path, "w") as handle:
            json.dump(reference, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"{path}: exit code {reference['exit_code']}, "
              f"{len(reference['claims'])} records")


if __name__ == "__main__":
    main(sys.argv[1:])
