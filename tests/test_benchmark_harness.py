"""The benchmark harness in ``benchmarks/`` against the current package.

The harness calls private entries of the package (``K.trace_orbit``,
``C._launch``, ``C._bisect_transition``, ``U._refine_candidate``, ...)
and wraps them for its per-layer spans, so a rename breaks it.  Here each
workload runs one traced pass at seed 0: every job's output must match
its stored reference, and the kernel counts must be the ones the
references were taken with.  The diagonal search's kernel calls are
pinned too: a shooter that went round the wrapped ``K.trace_from_point``
would drop them from the spans.  An untraced pass per stored reference
(seeds 0-15, and the diagonal search's fixed fan) must match it too, so
every stored output stays pinned.  The kernel microbenchmark must return
finite, positive times.
"""

import functools
import json
import math
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "benchmarks")
sys.path.insert(0, BENCH)

import bench_kernels  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# per-pass kernel work at seed 0; classify's sweep stops at its witness's
# period, so the periodic-search jobs polish fewer candidates
KERNEL_COUNTS = {
    "periodic-search": {"kernels.trace_orbit.bounces": 419},
    "diagonal-search": {"kernels.trace_from_point.bounces": 12915},
    "single-orbit": {"kernels.trace_orbit.bounces": 3204,
                     "kernels.rk45.steps": 1493},
}
# per-pass span counts at seed 0
SPAN_COUNTS = {
    "diagonal-search": {"kernels.trace_from_point": 940},
}


@functools.lru_cache(maxsize=None)
def _stored(workload):
    """The stored reference outputs of a workload, by reference key."""
    with open(os.path.join(BENCH, "reference", f"{workload}.json")) as fh:
        return json.load(fh)["seeds"]


def _reference(workload, seed=0):
    return _stored(workload)[workloads.reference_seed(workload, seed)]


def _stored_runs():
    """(workload, seed) with the first seed of each reference key:
    periodic-search and single-orbit at seeds 0-15, diagonal-search at
    seed 0 for its fixed fan."""
    runs = {}
    for w in run.WORKLOADS:
        for seed in range(workloads.POOL):
            runs.setdefault((w, workloads.reference_seed(w, seed)), (w, seed))
    return list(runs.values())


STORED_RUNS = _stored_runs()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_matches_reference(workload):
    # the checker compares each job's describe(call()) with the reference
    # through workloads.matches, as a benchmark run does
    jobs = workloads.build(workload, 0)
    checker = run.Checker(jobs, _reference(workload), workloads.matches)
    tracer = tracing.Tracer()
    with tracer.installed():
        times, _ = run.run_passes(jobs, 0.0, checker, tracer)
    assert len(times) == 1
    assert (checker.attempted, checker.failed) == (len(jobs), 0), \
        checker.failures
    metrics = tracing.layer_metrics(tracer.spans, len(jobs), 1, 0.0)
    for name, count in KERNEL_COUNTS[workload].items():
        assert metrics[name] == count, name
    for name, count in SPAN_COUNTS.get(workload, {}).items():
        assert sum(s[tracing.NAME] == name for s in tracer.spans) == count, \
            name


@pytest.mark.parametrize("workload, seed", STORED_RUNS)
def test_every_stored_reference_matches(workload, seed):
    # one untraced pass per reference key, checked as a benchmark run
    # checks it: every stored output stays pinned, not only seed 0's
    jobs = workloads.build(workload, seed)
    checker = run.Checker(jobs, _reference(workload, seed), workloads.matches)
    run.run_passes(jobs, 0.0, checker)
    assert (checker.attempted, checker.failed) == (len(jobs), 0), \
        checker.failures


def test_stored_runs_cover_every_reference():
    for workload in run.WORKLOADS:
        keys = {workloads.reference_seed(w, seed)
                for w, seed in STORED_RUNS if w == workload}
        assert keys == set(_stored(workload)), workload


def test_kernel_microbenchmark_runs():
    out = bench_kernels.measure(1)
    assert out
    for name, value in out.items():
        assert math.isfinite(value) and value > 0, name
