"""The benchmark harness in ``benchmarks/`` against the current package.

The harness calls private entries of the package (``K.trace_orbit``,
``C._launch``, ``C._bisect_transition``, ``U._refine_candidate``, ...)
and wraps them for its per-layer spans, so a rename breaks it.  Here each
workload runs one traced pass at seed 0: every job's output must match
its stored reference, and the kernel counts must be the ones the
references were taken with.  The diagonal search's kernel calls are
pinned too: a shooter that went round the wrapped ``K.trace_from_point``
would drop them from the spans.  The kernel microbenchmark must return
finite, positive times.
"""

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

# per-pass kernel work at seed 0
KERNEL_COUNTS = {
    "periodic-search": {"kernels.trace_orbit.bounces": 443},
    "diagonal-search": {"kernels.trace_from_point.bounces": 12915},
    "single-orbit": {"kernels.trace_orbit.bounces": 3204,
                     "kernels.rk45.steps": 1493},
}
# per-pass span counts at seed 0
SPAN_COUNTS = {
    "diagonal-search": {"kernels.trace_from_point": 940},
}


def _reference(workload):
    with open(os.path.join(BENCH, "reference", f"{workload}.json")) as fh:
        seeds = json.load(fh)["seeds"]
    return seeds[workloads.reference_seed(workload, 0)]


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


def test_kernel_microbenchmark_runs():
    out = bench_kernels.measure(1)
    assert out
    for name, value in out.items():
        assert math.isfinite(value) and value > 0, name
