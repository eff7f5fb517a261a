"""Bit-exact golden traces of the scalar collision engine.

``golden_traces.json`` holds, as ``float.hex`` strings, traces recorded
from the kernels as they were when the scalar engine still worked on
numpy arrays: ``trace`` of two boundary states on each built-in table and
of one on a skew plane quadrilateral, a vertex-fan ``trace_ray`` from
``collision._launch``, one ``collision_step`` and one run of
``crossing_labels``; ``crossing_runs`` holds one more ``crossing_labels``
run each on the square and the pentagon, recorded from the generic
crossing loop before it was written out per curvature.  ``chart_flow``
holds runs of the Dormand-Prince integrator, recorded while its step loop
still worked on numpy arrays: ``integrate_chart_flow`` to the chart exit
at the first vertex of each built-in table, one run tracking arc time,
one backward in time, one without records, and one run of the singular
polar field, ``polar_flow``, which the package no longer integrates: it
comes from ``kernel_oracle.integrate_polar_flow``, whose ``rk45`` gives
the bits the package's gave.  The tests require every bit to match, so a
rewrite of the kernels that changes any rounding fails here.
Tolerance-based tests cannot see that.

    PYTHONPATH=src python tests/test_golden.py > tests/golden_traces.json

records the values afresh; do that only for a change that is meant to
move the bits.
"""

import json
import os
import sys

import pytest

from ccbilliards import (BoundaryState, build_polygon, hyperbolic_pentagon,
                         sphere_triangle, square)
from ccbilliards import collision as C
from ccbilliards import flow as F
from ccbilliards import unfolding as U
from ccbilliards.polygon import vertex_neighborhood_radius
import kernel_oracle as O

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "golden_traces.json")

TABLES = {"square": square, "sphere-triangle-1": lambda: sphere_triangle(1.0),
          "hyperbolic-pentagon": hyperbolic_pentagon,
          # the square's axis-aligned sides make many plane roundings exact
          "plane-quad": lambda: build_polygon(
              0, [(0.0, 0.0), (1.3, 0.2), (0.9, 1.1), (-0.2, 0.7)])}

# (table, side, fraction of the side length, psi, bounces)
TRACES = (("square", 1, 0.37, 1.13, 50),
          ("square", 2, 0.61, 0.7, 50),
          ("sphere-triangle-1", 2, 0.3, 1.2, 50),
          ("sphere-triangle-1", 3, 0.55, 2.0, 50),
          ("hyperbolic-pentagon", 1, 0.4, 1.0, 20),
          ("hyperbolic-pentagon", 3, 0.7, 2.2, 20),
          ("plane-quad", 2, 0.45, 1.3, 50))


# crossing_labels runs: (table, side, fraction of the side length, psi,
# crossings); the sphere's run is the older ``crossing_labels`` entry
CROSSING_RUNS = (("square", 1, 0.37, 1.13, 60),
                 ("hyperbolic-pentagon", 3, 0.7, 2.2, 40))


# (name, table, vertex, r / eps, gamma / theta, beta, time, options); every
# run but the last leaves the chart, which stays on the vertex circle r = 0
CHART_FLOWS = (
    ("square", "square", 0, 0.5, 0.5, 2.0, 50.0, {}),
    ("sphere-triangle-1", "sphere-triangle-1", 0, 0.6, 0.3, 2.5, 50.0, {}),
    ("hyperbolic-pentagon", "hyperbolic-pentagon", 0, 0.4, 0.7, 1.7, 50.0, {}),
    ("arc-time", "sphere-triangle-1", 1, 0.5, 0.4, 2.2, 50.0,
     {"track_arc_time": True}),
    ("backward", "hyperbolic-pentagon", 2, 0.5, 0.6, 2.6, -50.0, {}),
    ("no-record", "square", 2, 0.3, 0.2, 0.3, 2.0, {"record": False}),
    ("vertex-circle", "sphere-triangle-1", 2, 0.0, 0.0, 2.9, 6.0, {}))


def _chart_flow_record(table, vertex, rf, gf, beta, time, opts):
    poly = TABLES[table]()
    theta = poly.angles[vertex]
    eps = vertex_neighborhood_radius(poly, vertex)
    c0 = F.chart_embed(F.ChartState(rf * eps, gf * theta, beta), theta, poly.k)
    traj = F.integrate_chart_flow(c0, time, theta, poly.k, eps=eps, **opts)
    return {"exited": traj.exited,
            "exit_time": None if traj.exit_time is None
            else float(traj.exit_time).hex(),
            "t": _hex(traj.t), "states": [_hex(row) for row in traj.states],
            "arc_time": None if traj.arc_time is None else _hex(traj.arc_time)}


def _polar_flow_record():
    s = O.integrate_polar_flow(F.ChartState(0.4, 0.3, 2.0), 0.9, -1)
    return _hex((s.r, s.gamma, s.beta))


def _state(poly, side, frac, psi):
    return BoundaryState(side, frac * poly.side(side).length, psi)


def _hex(xs):
    return [float(x).hex() for x in xs]


def _trace_record(tr):
    return {"n_done": tr.n_done, "status": tr.status, "vertex": tr.vertex,
            "length": float(tr.length).hex(),
            "labels": list(tr.labels), "svals": _hex(tr.svals),
            "psis": _hex(tr.psis), "flights": _hex(tr.flights)}


def record():
    """The golden values, computed by the code under test."""
    traces = []
    for name, side, frac, psi, n in TRACES:
        poly = TABLES[name]()
        traces.append(_trace_record(C.trace(poly, _state(poly, side, frac, psi), n)))
    tri = sphere_triangle(1.0)
    fan = C.trace_ray(tri, *C._launch(tri, 1, 0.37), 40, 20.0)
    pent = hyperbolic_pentagon()
    step = C.collision_step(_state(pent, 2, 0.3, 1.0), pent)
    crossings = U.crossing_labels(tri, _state(tri, 2, 0.3, 1.2), 50)
    return {"trace": traces, "fan_ray": _trace_record(fan),
            "collision_step": [step.side, float(step.s).hex(),
                               float(step.psi).hex()],
            "crossing_labels": list(crossings),
            "crossing_runs": {name: list(U.crossing_labels(
                TABLES[name](), _state(TABLES[name](), side, frac, psi), n))
                for name, side, frac, psi, n in CROSSING_RUNS},
            "chart_flow": {c[0]: _chart_flow_record(*c[1:]) for c in CHART_FLOWS},
            "polar_flow": _polar_flow_record()}


@pytest.fixture(scope="module")
def golden():
    with open(DATA) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def current():
    return record()


@pytest.mark.parametrize("i", range(len(TRACES)),
                         ids=[f"{t[0]}-side{t[1]}" for t in TRACES])
def test_trace_bits(golden, current, i):
    assert current["trace"][i] == golden["trace"][i]


def test_fan_ray_bits(golden, current):
    assert current["fan_ray"] == golden["fan_ray"]


def test_collision_step_bits(golden, current):
    assert current["collision_step"] == golden["collision_step"]


def test_crossing_labels(golden, current):
    assert current["crossing_labels"] == golden["crossing_labels"]


@pytest.mark.parametrize("name", [c[0] for c in CROSSING_RUNS])
def test_crossing_runs(golden, current, name):
    assert current["crossing_runs"][name] == golden["crossing_runs"][name]


@pytest.mark.parametrize("name", [c[0] for c in CHART_FLOWS])
def test_chart_flow_bits(golden, current, name):
    assert current["chart_flow"][name] == golden["chart_flow"][name]


def test_polar_flow_bits(golden, current):
    assert current["polar_flow"] == golden["polar_flow"]


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1)
    sys.stdout.write("\n")
