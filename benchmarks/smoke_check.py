"""Smoke check of the benchmark itself: every workload at a tiny budget.

    python3 benchmarks/smoke_check.py
    python -m pytest benchmarks/smoke_check.py

For each workload, runs ``run.py`` for one second untraced and twice
traced, and asserts that the result line carries exactly the end-to-end or
per-layer metrics that ``BENCHMARK.json`` names, with their units, that no
job failed (error rate 0), and that the per-layer counts repeat exactly.
Also checks that the benchmark exits non-zero, printing no result, in a
directory holding only ``BENCHMARK.json`` and the benchmark's own files.
The file name keeps it out of the repository's default test collection.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 170


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def _result(workload, trace, declared):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= 1
    assert res["failed"] == 0 and res["correct"], proc.stdout
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    return res["metrics"]


def check_workload(workload):
    bench = _bench()
    assert workload in {w["name"] for w in bench["workloads"]}
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    _result(workload, 0, e2e)
    first = _result(workload, 1, layers)
    second = _result(workload, 1, layers)
    for name, unit in layers.items():
        if unit == "count":
            assert first[name]["value"] == second[name]["value"], name


def test_periodic_search():
    check_workload("periodic-search")


def test_diagonal_search():
    check_workload("diagonal-search")


def test_single_orbit():
    check_workload("single-orbit")


def test_refuses_without_sources():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "benchmarks"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _run("single-orbit", 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    for test in (test_periodic_search, test_diagonal_search, test_single_orbit,
                 test_refuses_without_sources):
        test()
        print(f"ok {test.__name__}")
