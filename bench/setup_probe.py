"""Time one workload's set-up in a fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD SCALE

Imports catbij and warms the caches the workload's timed phase assumes, then
prints the seconds that took.
"""

import sys
from time import perf_counter

import workloads

if __name__ == "__main__":
    name, scale = sys.argv[1], sys.argv[2]
    t0 = perf_counter()
    workloads.setup(name, workloads.SIZES[scale][name])
    print(perf_counter() - t0)
