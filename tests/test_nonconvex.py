"""Every collision engine on non-convex tables, against its oracle.

The scalar loops and the batched engine pick a side by its nearest
crossing and fall back to the full side search (``plane_search``,
``sphere_search``, ``hyperbolic_search``, ``_batch._side_hits``) when
that crossing misses its side's window, which a convex table allows only
past the pad, at a corner.  Here it does: on a dart (a quadrilateral with
one reflex corner) in each curvature and on ``star_polygons`` draws,
``trace``, ``collision_step``, ``trace_ray`` and ``crossing_labels`` must
give the bits of the oracle loops of ``kernel_oracle.py``, and the
batched engine ``_batch.trace_columns`` those of ``batch_trace_states``.
One fixed ray per curvature provably takes the fallback of both engines:
its first nearest crossing lies on the line of a side of the reflex
corner, past the corner.  On the square, the benchmark workloads' scalar
traces never take it.
"""

import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings

from ccbilliards import BoundaryState, PolygonError, build_polygon
from ccbilliards import _batch as B
from ccbilliards import _collision_loops as L
from ccbilliards import _kernels as K
from ccbilliards import collision as C
from ccbilliards import unfolding as U
from test_batch import assert_same_bits, engine_and_oracle
from test_kernels import _check_ray, _check_state, star_polygons
from test_unfolding import _oracle_crossings

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks"))
import workloads  # noqa: E402

# the corner (0.1, 0) is reflex.  Geodesics are straight lines in the
# gnomonic (sphere) and Klein (hyperbolic) projections, so the dart in
# those coordinates crosses lines in the same order in every curvature
DART = ((-0.7, -1.0), (1.3, 0.0), (-0.7, 1.0), (0.1, 0.0))
SCALE = 0.4     # of the projected coordinates off the plane


def _point(k, x, y):
    """The model point at plane, gnomonic or Klein coordinates (x, y)."""
    if k == 0:
        return x, y, 1.0
    if k == 1:
        n = math.sqrt(x * x + y * y + 1.0)
    else:
        n = math.sqrt(1.0 - x * x - y * y)
    return x / n, y / n, 1.0 / n


def _dart(k):
    s = 1.0 if k == 0 else SCALE
    pts = [_point(k, s * x, s * y) for x, y in DART]
    if k == -1:
        # hyperboloid to Poincare coordinates
        pts = [(x / (1.0 + z), y / (1.0 + z)) for x, y, z in pts]
    return build_polygon(k, [p[:2] if k == 0 else p for p in pts])


DARTS = {k: _dart(k) for k in (0, 1, -1)}


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts of the scalar loops' fallback searches and of the rows the
    batched engine sends to its full search."""
    calls = {"scalar": 0, "rows": 0}

    def counted(f, key, rows):
        def wrapped(*args):
            calls[key] += args[3][0].shape[0] if rows else 1
            return f(*args)
        return wrapped

    for name in ("plane_search", "sphere_search", "hyperbolic_search"):
        monkeypatch.setattr(L, name, counted(getattr(L, name), "scalar",
                                             False))
    monkeypatch.setattr(B, "_side_hits", counted(B._side_hits, "rows", True))
    return calls


def _aimed_state(poly, x, y):
    """From the middle of side 2 toward the point at projected (x, y)."""
    k = poly.k
    s = 1.0 if k == 0 else SCALE
    sa, su, _, sl = poly.kernel_pack()[:4]
    bp = K.renorm_point(k, K.geodesic_point(k, sa[1], su[1], 0.5 * sl[1]))
    w = K.renorm_tangent(k, bp, K.geodesic_dir(k, sa[1], su[1], 0.5 * sl[1]))
    psi = K.signed_angle(k, bp, w, K.log_map(k, bp, _point(k, s * x, s * y)))
    return BoundaryState(2, 0.5 * sl[1], psi)


def _check_all(poly, states, n):
    """trace, collision_step, crossing_labels and trace_columns from the
    states against their oracles."""
    for b in states:
        _check_state(poly, b, n, math.inf)
        p, v = C.embed_state(poly, b)
        assert U.crossing_labels(poly, b, n) == _oracle_crossings(poly, p, v,
                                                                  n)
    got, want = engine_and_oracle(poly, *zip(*((b.side, b.s, b.psi)
                                               for b in states)), n)
    assert_same_bits(got, want)


@pytest.mark.parametrize("k", [0, 1, -1])
def test_fixed_ray_takes_the_fallback(k, fallbacks):
    # straight down from the middle of side 2 (near (0.3, 0.5)): the ray
    # crosses the line of side 4 at y = 0.25, past the reflex corner,
    # before it hits side 1 at y = -0.5
    poly = DARTS[k]
    b = _aimed_state(poly, 0.3, -0.5)
    assert C.trace(poly, b, 1).labels == (1,)
    assert fallbacks["scalar"] == 1
    _check_all(poly, [b], 8)
    assert fallbacks["rows"] >= 1


@pytest.mark.parametrize("k", [0, 1, -1])
def test_dart_matches_oracles(k, fallbacks):
    poly = DARTS[k]
    states = [BoundaryState(side, f * poly.side(side).length, psi)
              for side in range(1, 5) for f in (0.2, 0.5, 0.8)
              for psi in (0.3, 1.0, 1.6, 2.2, 2.8)]
    _check_all(poly, states, 12)
    # fans from every corner, the reflex one included
    for vi in range(4):
        for j in range(6):
            _check_ray(poly, vi, poly.angles[vi] * (j + 0.5) / 6, 12,
                       math.inf)
    assert fallbacks["rows"] > 0 and fallbacks["scalar"] > 0


@settings(max_examples=15, deadline=None)
@given(table=star_polygons())
def test_star_polygons_match_oracles(table):
    k, coords = table
    try:
        poly = build_polygon(k, coords)
    except PolygonError:
        return
    rng = np.random.default_rng(len(coords))
    states = [BoundaryState(side, f * poly.side(side).length, psi)
              for side in range(1, poly.n_sides + 1)
              for f, psi in zip(rng.uniform(0.05, 0.95, 2),
                                rng.uniform(0.2, math.pi - 0.2, 2))]
    _check_all(poly, states, 8)


def test_square_workloads_never_take_the_fallback(fallbacks):
    # a convex table's nearest crossing misses its window only past the
    # pad at a corner: no bounce of the square's jobs in the benchmark
    # workloads (seeds 0-15, and the diagonal search's fixed fan) runs the
    # full search
    ran = 0
    for workload in ("periodic-search", "diagonal-search", "single-orbit"):
        seeds = range(1 if workload == "diagonal-search" else workloads.POOL)
        for seed in seeds:
            for job in workloads.build(workload, seed):
                if "square" in job.key:
                    job.call()
                    ran += 1
    assert ran > 16 and fallbacks["scalar"] == 0
