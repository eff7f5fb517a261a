"""Kernel microbenchmark: the collision, rk45 and closed-form flow kernels.

    python3 benchmarks/bench_kernels.py [--repeat N]

Calls ``ccbilliards._kernels`` and ``ccbilliards.flow`` from outside, on the
built-in tables, and reports

* microseconds per bounce and per ray-side test (computed as bounces x
  sides) of ``trace_orbit`` for each curvature, and of ``trace_from_point``
  on a vertex fan;
* microseconds per accepted rk45 step of the chart field;
* ``closed_form_flow`` per call, without and with ``eps``.

Each figure is the median over ``--repeat`` timed calls.  With numba
installed, the pure-Python fallback and the numba path are timed against
each other in fresh processes (``CCBILLIARDS_NUMBA=0`` and ``=1``);
without it only the fallback runs, and the numba path is reported as
unmeasured.  The last line of output is the results as JSON.
"""

import argparse
import importlib.util
import json
import math
import os
import statistics
import subprocess
import sys
import time

import envinfo

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

BOUNCES = 200
FAN_RAYS = 32
FAN_BOUNCES = 21


def _median_time(fn, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(repeat):
    from ccbilliards import _kernels as K
    from ccbilliards import collision as C
    from ccbilliards import flow as F
    from ccbilliards import tables
    from ccbilliards.errors import ChartExitError
    from ccbilliards.polygon import vertex_neighborhood_radius
    import numpy as np

    polys = {"plane": tables.square(),
             "sphere": tables.sphere_triangle(1.0),
             "hyperbolic": tables.hyperbolic_pentagon()}
    out = {}
    for label, poly in polys.items():
        pack = poly.kernel_pack()
        n_sides = poly.n_sides
        side = poly.side(1)
        bufs = [np.empty(BOUNCES, dtype=np.int64)] + [np.empty(BOUNCES)
                                                      for _ in range(3)]

        def orbit():
            return K.trace_orbit(poly.k, *pack, 0, 0.37 * side.length, 1.13,
                                 BOUNCES, math.inf, C.FLIGHT_MIN, C.VERTEX_TOL,
                                 C.GRAZE_TOL, *bufs)

        steps = orbit()[0]
        t = _median_time(orbit, repeat)
        out[f"trace_orbit.us_per_bounce.{label}"] = 1e6 * t / steps
        out[f"trace_orbit.us_per_side_test.{label}"] = 1e6 * t / (steps * n_sides)

    # vertex fan from the first vertex of the spherical triangle, as in the
    # diagonal search
    poly = polys["sphere"]
    pack = poly.kernel_pack()
    theta = poly.angles[0]
    rays = [C._launch(poly, 0, theta * (j + 0.5) / FAN_RAYS)
            for j in range(FAN_RAYS)]
    bufs = [np.empty(FAN_BOUNCES, dtype=np.int64)] + [np.empty(FAN_BOUNCES)
                                                      for _ in range(3)]

    def fan():
        steps = 0
        for p, v in rays:
            n_done, status, _, _ = K.trace_from_point(
                poly.k, *pack, p, v, FAN_BOUNCES, 4 * math.pi, C.FLIGHT_MIN,
                C.VERTEX_TOL, C.GRAZE_TOL, *bufs)
            steps += n_done + (status != K.STEP_OK and status != K.STEP_MAXLEN)
        return steps

    steps = fan()
    t = _median_time(fan, repeat)
    out["trace_from_point.us_per_bounce.sphere"] = 1e6 * t / steps
    out["trace_from_point.us_per_side_test.sphere"] = (
        1e6 * t / (steps * poly.n_sides))

    # rk45 on the chart field of the square's corner, run to the chart exit
    poly = polys["plane"]
    theta = poly.angles[0]
    eps = vertex_neighborhood_radius(poly, 0)
    s0 = F.ChartState(0.5 * eps, 0.5 * theta, 2.0)
    y0 = F.chart_embed(s0, theta, poly.k).as_array()
    tbuf = np.empty(4096)
    ybuf = np.empty((4096, 3))

    def rk45():
        return K.rk45(K.FIELD_CHART, poly.k, math.pi / theta, y0, 0.0, 50.0,
                      F.DEFAULT_RTOL, F.DEFAULT_ATOL, -K.INF, eps, tbuf, ybuf, 1)

    status, nrec, _, _ = rk45()
    steps = nrec - 1 - (status == K.RK_EXITED)
    out["rk45.us_per_step"] = 1e6 * _median_time(rk45, repeat) / steps

    for label, k in (("plane", 0), ("sphere", 1), ("hyperbolic", -1)):
        out[f"closed_form_flow.us.{label}"] = 1e6 * _median_time(
            lambda: F.closed_form_flow(s0, 0.3, k), 20 * repeat)

        def with_eps():
            try:   # the state stays inside the chart: the full exit scan runs
                F.closed_form_flow(s0, 0.3, k, eps=1.0)
            except ChartExitError:
                pass

        out[f"closed_form_flow.us_with_eps.{label}"] = 1e6 * _median_time(
            with_eps, repeat)
    return out


def _child(flag, repeat):
    env = dict(os.environ, CCBILLIARDS_NUMBA=flag)
    proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--repeat", str(repeat), "--in-process"],
                          env=env, capture_output=True, text=True, timeout=600,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=15)
    ap.add_argument("--in-process", action="store_true",
                    help="time only the path this process selects")
    args = ap.parse_args(argv)
    envinfo.pin_threads()
    sys.path.insert(0, SRC)
    if args.in_process or importlib.util.find_spec("numba") is None:
        results = {"environment": envinfo.environment(),
                   "kernels": measure(args.repeat)}
        if not args.in_process:
            for name, value in results["kernels"].items():
                print(f"{name:<42} {value:10.3f} us")
            print(f"note: {results['environment']['numba_note']}")
    else:
        results = {"fallback": _child("0", args.repeat),
                   "numba": _child("1", args.repeat)}
        fb, nb = results["fallback"]["kernels"], results["numba"]["kernels"]
        for name in fb:
            print(f"{name:<42} fallback {fb[name]:10.3f} us   numba "
                  f"{nb[name]:10.3f} us   ratio {fb[name] / nb[name]:8.1f}")
    print(json.dumps(results, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
