#!/usr/bin/env python3
"""ccbilliards benchmark: one workload, one process, one thread, closed loop.

Run from the repository root:

    python3 benchmarks/run.py --workload periodic-search --seed 0 \\
        --seconds 20 --trace 0

The job list of the workload (see ``workloads.py``) runs again and again,
each job issued only after the previous one returned, until ``--seconds``
have passed.  Every job's output is checked against the stored reference.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (seconds per pass
of the job list, mean over the passes), ``setup_s`` (median over fresh
processes of the time to import ccbilliards, build the tables and warm up)
and ``peak_rss_mb``.  Both times are scaled to a fixed machine speed (see
``calibrate.py``); the raw seconds are printed beside them.
``--trace 1`` spends half the time untraced and half with spans around
every layer (``tracing.py``) and reports the per-layer metrics, including
the tracing overhead.  Failed jobs over attempted jobs is the error rate.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with the environment, goes to ``benchmarks/out/``.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import calibrate
import envinfo

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("periodic-search", "diagonal-search", "single-orbit")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def probe_setup(workload, seed):
    """Set-up seconds of one fresh process and a calibration sample after it."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
         str(seed)], capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    setup, sample = proc.stdout.split()[-2:]
    return float(setup), float(sample)


class Raised:
    """A job's exception, kept apart from results that are exceptions."""

    def __init__(self, exc):
        self.exc = exc


def _describe(job, raw):
    """JSON data of a job's result, or an ("error", text) pair."""
    if isinstance(raw, Raised):
        return ("error", f"{type(raw.exc).__name__}: {raw.exc}")
    try:
        return job.describe(raw)
    except Exception as exc:   # output the check cannot read is a failure
        return ("error", f"unreadable output: {type(exc).__name__}: {exc}")


class Checker:
    """Counts jobs attempted and failed against the stored reference."""

    def __init__(self, jobs, reference, matches):
        self.jobs = jobs
        self.reference = reference
        self.matches = matches
        self.first = None
        self.first_ok = None
        self.attempted = 0
        self.failed = 0
        self.failures = {}

    def _ok(self, job, out):
        return self.matches(job.kind, out, self.reference.get(job.key))

    def add(self, outputs):
        if self.first is None:
            self.first = outputs
            self.first_ok = [self._ok(j, o) for j, o in zip(self.jobs, outputs)]
        for j, out in enumerate(outputs):
            job = self.jobs[j]
            ok = self.first_ok[j] if out == self.first[j] else self._ok(job, out)
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.setdefault(job.key, out)


def run_passes(jobs, seconds, checker, tracer=None):
    """Closed loop over the job list.

    Returns the seconds of each pass (its jobs' times) and the calibration
    samples taken between jobs, about every ``calibrate.CADENCE_S`` seconds
    of job time, and before the first pass.
    """
    times, samples = [], [calibrate.sample()]
    since_sample = 0.0
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        base = len(times) * len(jobs)
        raws = []
        busy = 0.0
        for j, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = base + j
            t0 = time.perf_counter()
            try:
                raws.append(job.call())
            except Exception as exc:   # a failed job is counted, not fatal
                raws.append(Raised(exc))
            dt = time.perf_counter() - t0
            busy += dt
            since_sample += dt
            if since_sample >= calibrate.CADENCE_S:
                samples.append(calibrate.sample())
                since_sample = 0.0
        times.append(busy)
        checker.add([_describe(job, raw) for job, raw in zip(jobs, raws)])
    return times, samples


def summary(xs):
    """Median, quartiles and the highest percentile with ten samples beyond it."""
    if len(xs) > 1:
        q1, med, q3 = statistics.quantiles(xs, n=4)
    else:
        q1 = med = q3 = xs[0]
    out = {"median": med, "p25": q1, "p75": q3, "n": len(xs)}
    for p in (99, 95, 90, 75, 50):
        if len(xs) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(xs, n=100)[p - 1]
            break
    return out


def _fmt_summary(name, unit, s):
    tail = [f"{k} {v:.6g}" for k, v in s.items() if k not in
            ("median", "p25", "p75", "n")]
    return (f"{name:<14} median {s['median']:.6g} {unit}  p25 {s['p25']:.6g}"
            f"  p75 {s['p75']:.6g}  "
            + (tail[0] if tail else "no percentile with 10 samples beyond it")
            + f"  n={s['n']}")


def main(argv=None):
    args = parse_args(argv)
    envinfo.pin_threads()    # before numpy is imported, here or in a probe
    if not os.path.isfile(os.path.join(SRC, "ccbilliards", "__init__.py")):
        print(f"error: ccbilliards sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        setup = [probe_setup(args.workload, args.seed)
                 for _ in range(SETUP_PROBES)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    import tracing
    import workloads

    jobs = workloads.build(args.workload, args.seed)
    ref_seed = workloads.reference_seed(args.workload, args.seed)
    with open(os.path.join(HERE, "reference", f"{args.workload}.json")) as fh:
        reference = json.load(fh)["seeds"].get(ref_seed, {})
    env = envinfo.environment()
    checker = Checker(jobs, reference, workloads.matches)

    print(f"workload {args.workload}  seed {args.seed} (inputs and reference "
          f"of seed {ref_seed})  {len(jobs)} jobs per pass  "
          f"{args.seconds:g} s  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"note: NUMBA_ENABLED={env['NUMBA_ENABLED']}: {env['numba_note']}")

    setup_times = [t for t, _ in setup]
    record = {"args": vars(args), "environment": env, "jobs": len(jobs),
              "setup_s_raw": setup_times,
              "setup_calibration_s": [c for _, c in setup],
              "calibration_reference_s": calibrate.REFERENCE_S}
    if args.trace:
        plain, plain_cal = run_passes(jobs, args.seconds / 2, checker)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced, traced_cal = run_passes(jobs, args.seconds / 2, checker,
                                            tracer)
        overhead = (calibrate.scaled(traced, traced_cal)
                    - calibrate.scaled(plain, plain_cal))
        values = tracing.layer_metrics(tracer.spans, len(jobs), len(traced),
                                       overhead)
        units = {k: unit for k, (unit, _) in tracing.PER_LAYER.items()}
        print(_fmt_summary("raw wall_s", "s", summary(plain)))
        print(_fmt_summary("raw traced", "s", summary(traced)))
        for name, value in values.items():
            print(f"{name:<46} {value:.6g} {units[name]}")
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.csv"))
        record.update(wall_s_raw=plain, calibration_s=plain_cal,
                      traced_wall_s_raw=traced,
                      traced_calibration_s=traced_cal)
    else:
        plain, plain_cal = run_passes(jobs, args.seconds, checker)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_s = statistics.median(calibrate.scaled([t], [c])
                                    for t, c in setup)
        values = {"wall_s": calibrate.scaled(plain, plain_cal),
                  "setup_s": setup_s, "peak_rss_mb": rss_mb}
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        print(_fmt_summary("raw wall_s", "s", summary(plain)))
        print(_fmt_summary("calibration", "s", summary(plain_cal)))
        print(_fmt_summary("raw setup_s", "s", summary(setup_times)))
        for name, value in values.items():
            print(f"{name:<14} {value:.6g} {units[name]}")
        record.update(wall_s_raw=plain, calibration_s=plain_cal)

    error_rate = checker.failed / checker.attempted
    print(f"{'error_rate':<12} {error_rate:.6g}  "
          f"({checker.failed} of {checker.attempted} jobs failed)")
    for key, out in checker.failures.items():
        print(f"failed: {key}: {str(out)[:300]}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed, "metrics": metrics}
    record.update(result=result, error_rate=error_rate)
    os.makedirs(OUT, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
