"""Print one SHA-256 digest per benchmark reference key of the outputs.

Runs every workload's jobs once per reference key (periodic-search and
single-orbit at seeds 0-15, diagonal-search's fixed fan: 33 keys) through
``benchmarks/workloads.py``.  Each key's digest is the SHA-256 of its jobs'
``json.dumps([job.key, describe(call())], sort_keys=True)`` lines, in job
order.  It also prints the SHA-256 of the exit code and stdout of
``expansivity --json`` on the square and the pi/4 sphere triangle, and of
``periodic --json`` on every built-in table (the square, the pentagon and
the pi/4 and theta = 1 sphere triangles), at the CLI's default sweep
(10,000 samples, 50 bounces: five sweep blocks); ``--angles 24`` skips
expansivity's default 10,000-ray fan.  Two trees give the same outputs
where they print the same digests:

    PYTHONPATH=src python tests/output_digest.py

``ccbilliards`` comes from ``PYTHONPATH``, so one copy of this script
compares any two trees on one machine.  It stores no digests: numpy's SIMD
dispatch may round differently on another machine.  Pytest does not
collect this file.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks"))

import workloads  # noqa: E402
from ccbilliards import cli  # noqa: E402

TRIANGLE = f"--table sphere-triangle --theta {math.pi / 4!r}"
DEFAULT_SWEEPS = (
    ("expansivity/square", "expansivity --table square --angles 24"),
    ("expansivity/sphere-triangle-pi4", f"expansivity {TRIANGLE} --angles 24"),
    ("periodic/square", "periodic --table square"),
    ("periodic/sphere-triangle-pi4", f"periodic {TRIANGLE}"),
    ("periodic/hyperbolic-pentagon", "periodic --table hyperbolic-pentagon"),
    ("periodic/sphere-triangle-1",
     "periodic --table sphere-triangle --theta 1"),
)


def digests():
    """(workload, reference key, hex digest) for every reference key."""
    out = []
    for workload in workloads.SEEDED:
        done = set()
        for seed in range(workloads.POOL):
            key = workloads.reference_seed(workload, seed)
            if key in done:
                continue
            done.add(key)
            h = hashlib.sha256()
            for job in workloads.build(workload, seed):
                line = json.dumps([job.key, job.describe(job.call())],
                                  sort_keys=True)
                h.update(line.encode() + b"\n")
            out.append((workload, key, h.hexdigest()))
    for key, cmd in DEFAULT_SWEEPS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(f"{cmd} --json".split())
        text = f"{rc}\n{buf.getvalue()}"
        out.append(("cli-default-sweep", key,
                    hashlib.sha256(text.encode()).hexdigest()))
    return out


def main():
    for workload, key, digest in digests():
        print(workload, key, digest)


if __name__ == "__main__":
    main()
