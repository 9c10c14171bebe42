"""Pin the output digests of seeds into digests.json.

    python3 perfbench/pin.py 7 11

Runs one untraced full-size rep per workload and seed, in a fresh
process like every measured rep, and records its digests.  Re-pin only
after a change that is meant to change the program's outputs.
"""

from __future__ import annotations

import json
import sys

from layers import WORKLOADS
from run import HERE, run_child


def main(argv: list[str]) -> int:
    path = HERE / "digests.json"
    pins = json.loads(path.read_text())
    for seed in (int(arg) for arg in argv):
        for workload in WORKLOADS:
            rep = run_child(workload, seed, traced=False, timeout=600.0)
            if rep["failed"] or rep["errors"] or not all(rep["checks"].values()):
                print(f"{workload} seed {seed}: not pinned, the rep failed: {rep['errors']} {rep['checks']}")
                return 1
            pins.setdefault(workload, {})[str(seed)] = rep["digests"]
            print(f"{workload} seed {seed}: {rep['digests']}")
    path.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
