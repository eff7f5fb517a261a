"""The numba and pure-Python kernel paths must agree.

The fallback is selected at import time by CCBILLIARDS_NUMBA=0, so the
comparison runs the same workload in a subprocess with the flag set and
diffs the printed records against the in-process (accelerated) run.
"""

import math
import os
import subprocess
import sys

import ccbilliards
from ccbilliards import BoundaryState, itinerary, square
from ccbilliards import collision as C

WORKLOAD = r"""
import math
from ccbilliards import BoundaryState, itinerary, square, sphere_triangle
from ccbilliards import CartesianChartState, integrate_chart_flow
from ccbilliards import collision as C
import ccbilliards
print("numba:", ccbilliards.NUMBA_ENABLED)
sq = square()
tr = C.trace(sq, BoundaryState(1, 0.37, 1.13), 40)
for i in range(tr.n_done):
    print(int(tr.labels[i]), format(tr.svals[i], ".17g"),
          format(tr.psis[i], ".17g"))
tri = sphere_triangle(1.0)
tr = C.trace(tri, BoundaryState(2, 0.3, 1.2), 40)
for i in range(tr.n_done):
    print(int(tr.labels[i]), format(tr.svals[i], ".17g"),
          format(tr.psis[i], ".17g"))
tr = C.trace_ray(tri, *C._launch(tri, 1, 0.37), 40, 20.0)
print(tr.status, tr.vertex, format(tr.length, ".17g"))
for i in range(tr.n_done):
    print(int(tr.labels[i]), format(tr.svals[i], ".17g"),
          format(tr.psis[i], ".17g"))
traj = integrate_chart_flow(CartesianChartState(0.2, 0.0, 0.3), 5.0, 1.0, 1,
                            eps=0.5)
print(traj.exited, format(traj.exit_time, ".17g"),
      *(format(x, ".17g") for x in traj.states[-1]))
"""


def _run(env_value):
    env = dict(os.environ)
    env["CCBILLIARDS_NUMBA"] = env_value
    # the subprocess imports the same ccbilliards as this process
    src = os.path.dirname(os.path.dirname(ccbilliards.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    out = subprocess.run([sys.executable, "-c", WORKLOAD], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


def test_fallback_matches_numba_path():
    fast = _run("1")
    slow = _run("0")
    assert fast[0] == "numba: True" or fast[0] == "numba: False"
    assert slow[0] == "numba: False"
    # identical records, bit for bit
    assert fast[1:] == slow[1:]


def test_inprocess_path_matches_subprocess():
    sq = square()
    tr = C.trace(sq, BoundaryState(1, 0.37, 1.13), 40)
    lines = _run("1" if ccbilliards.NUMBA_ENABLED else "0")
    got = [f"{int(tr.labels[i])} {format(tr.svals[i], '.17g')} "
           f"{format(tr.psis[i], '.17g')}" for i in range(tr.n_done)]
    assert lines[1:1 + len(got)] == got
