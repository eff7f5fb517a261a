"""Regenerate the stored reference outputs of the benchmark workloads.

    python3 benchmarks/make_reference.py [workload ...]

Runs every job once per reference seed on the current sources and writes
``benchmarks/reference/<workload>.json``.  The references check that later
changes keep the program's outputs; regenerate them only in a change that
means to alter those outputs, and say so.  Stops with an error if any job
raises, because every benchmark operation must succeed.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as W  # noqa: E402


def reference(workload):
    seeds = range(W.POOL) if W.SEEDED[workload] else [0]
    out = {}
    for seed in seeds:
        entries = {}
        for job in W.build(workload, seed):
            entries[job.key] = {
                "output": job.describe(job.call()),
                "reliable": job.reliable() if job.reliable else None}
        out[W.reference_seed(workload, seed)] = entries
    return {"float_tol": W.FLOAT_TOL, "pool": W.POOL, "seeds": out}


def main(names):
    for name in names or list(W.SEEDED):
        data = reference(name)
        path = os.path.join(HERE, "reference", f"{name}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(data, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
