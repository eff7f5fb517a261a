"""Set-up time of one benchmark workload in a fresh process.

    python3 benchmarks/setup_probe.py <workload> <seed>

Prints the seconds from before ccbilliards is imported until the workload's
tables are built and every layer it uses has been called once (the work a
run does before its first timed job), then one machine-speed calibration
sample (see calibrate.py).  ``run.py`` starts several of these.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
elapsed = time.perf_counter() - START

import calibrate  # noqa: E402

print(elapsed, calibrate.sample())
