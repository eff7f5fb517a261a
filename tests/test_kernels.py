"""The per-curvature trace loops against the generic code they replaced.

``kernel_oracle.py`` keeps the generic collision step and trace loop.
``trace``, ``trace_ray`` and ``collision_step`` must give their results bit
for bit (compared as ``float.hex``) in all three curvatures: from random
boundary states, from vertex fans and shots aimed at other vertices (vertex
hits), under a ``max_length`` stop, from states next to a corner that
leave nearly parallel to the next side (grazing hits), and with clamped
arc parameters; ``trace_ray`` and ``crossing_labels_from_tangent`` also
on plane rays that ``check_ray`` accepts a little off z = 1 and off the
zero z-direction, which trace bit for bit as the oracle traces their
projection onto z = 1.  The last tests pin the diagonal search's skip of
length-only brackets, and its per-vertex shooter against the search on
``trace_ray`` that ``kernel_oracle.py`` keeps: the same diagonals and
conjugated vertices, bit for bit.  Two more pin the entries: each
converts numpy arguments itself, and ``trace_orbit`` reaches its loop
without ``trace_from_point``.  The last pin the vertex window and the side
records: rays aimed at arc parameters inside VERTEX_TOL of a side end, in
the window and past it give the oracle's bits through ``trace_ray``,
``trace``, ``collision_step`` and the shooter; the window's premise (a
side's stored ends lie on its vertices) holds on built-in tables and, to
a bound that grows with the vertex height, on generated ones, and
``build_polygon`` rejects the hyperbolic tables reaching so far out that
it fails; and a polygon builds its side records once.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import kernel_oracle as O
from ccbilliards import (BoundaryState, DegenerateStateError, GeometryError,
                         PolygonError, VertexHit, build_polygon,
                         collision_step, hyperbolic_pentagon, sphere_triangle,
                         square)
from ccbilliards import _collision_loops as L
from ccbilliards import _kernels as K
from ccbilliards import collision as C
from ccbilliards import unfolding as U
from ccbilliards.polygon import SIDE_END_TOL

TABLES = {"square": square(),
          "skew-quad": build_polygon(
              0, [(0.0, 0.0), (1.3, 0.2), (0.9, 1.1), (-0.2, 0.7)]),
          "sphere-triangle-1": sphere_triangle(1.0),
          "sphere-triangle-2": sphere_triangle(2.0),
          "hyperbolic-pentagon": hyperbolic_pentagon()}
# the pentagon's labels are float64 noise past some 30 bounces; the bits
# must still match
BOUNCES = st.integers(0, 40)
MAX_LENGTH = st.one_of(st.just(math.inf), st.floats(0.5, 6.0))


def _hex(x):
    return float(x).hex()


def _record(n_done, status, vertex, length, labels, svals, psis, flens):
    return (int(n_done), int(status), int(vertex), _hex(length),
            [(int(labels[i]), _hex(svals[i]), _hex(psis[i]), _hex(flens[i]))
             for i in range(n_done)])


def _oracle(fn, poly, start, n, max_length):
    bufs = (np.empty(n, dtype=np.int64), np.empty(n), np.empty(n),
            np.empty(n))
    # the oracle takes the pack without the loops' side records
    n_done, status, vertex, length = fn(
        poly.k, *poly.kernel_pack()[:7], *start, n, max_length, C.FLIGHT_MIN,
        C.VERTEX_TOL, C.GRAZE_TOL, *bufs)
    return _record(n_done, status, vertex + 1 if vertex >= 0 else 0, length,
                   *bufs)


def _traced(tr):
    return _record(tr.n_done, tr.status, tr.vertex, tr.length,
                   [j - 1 for j in tr.labels], tr.svals, tr.psis, tr.flights)


def _boundary_state(poly, side, frac, psi, corner):
    """A state on ``side``; with ``corner``, just before the side's end
    vertex and turned ``psi`` short of parallel to the next side."""
    length = poly.side(side).length
    if corner:
        theta = poly.angles[poly.side(side).end]
        return BoundaryState(side, length * (1.0 - frac * 1e-6),
                             math.pi - theta - psi * 1e-6)
    return BoundaryState(side, frac * length, 0.01 + psi * (math.pi - 0.02))


def _shot_angle(poly, vi, wj):
    """Launch angle at vertex vi toward vertex wj, or None when that runs
    along a side or leaves the corner."""
    p = poly.vertices[vi]
    a = K.signed_angle(poly.k, p, C._vertex_frame(poly, vi)[0],
                       K.log_map(poly.k, p, poly.vertices[wj]))
    margin = 10.0 * C.GRAZE_TOL
    return a if margin < a < poly.angles[vi] - margin else None


def _step_outcome(fn, *args):
    try:
        out = fn(*args)
    except (DegenerateStateError, GeometryError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, VertexHit):
        return "vertex", out.vertex, _hex(out.flight)
    return "state", out.side, _hex(out.s), _hex(out.psi)


def _oracle_step(poly, b):
    p, v = C.embed_state(poly, b)
    st_, j, s, psi, tf, vtx = O.step_ray(poly.k, *poly.kernel_pack()[:7], p, v,
                                         C.FLIGHT_MIN, C.VERTEX_TOL,
                                         C.GRAZE_TOL)
    if st_ == K.STEP_VERTEX:
        return VertexHit(vtx + 1, tf)
    if st_ == K.STEP_GRAZING:
        raise DegenerateStateError(
            f"collision became grazing (psi = {psi:.3e} from side {j + 1})")
    if st_ == K.STEP_ESCAPED:
        raise GeometryError("trajectory found no boundary intersection")
    return BoundaryState(j + 1, s, psi)


def _check_state(poly, b, n, max_length):
    """trace and collision_step from b against the oracle; the stop code."""
    want = _oracle(O.trace_orbit, poly, (b.side - 1, b.s, b.psi), n,
                   max_length)
    assert _traced(C.trace(poly, b, n, max_length)) == want
    assert (_step_outcome(collision_step, b, poly)
            == _step_outcome(_oracle_step, poly, b))
    return want[1]


def _check_ray(poly, vi, alpha, n, max_length):
    """trace_ray from vertex vi at angle alpha against the oracle."""
    p, v = C._launch(poly, vi, alpha)
    want = _oracle(O.trace_loop, poly, (p, v), n, max_length)
    assert _traced(C.trace_ray(poly, p, v, n, max_length)) == want
    return want[1]


@settings(max_examples=80, deadline=None)
@given(table=st.sampled_from(sorted(TABLES)), side=st.integers(1, 5),
       frac=st.floats(0.0, 1.0), psi=st.floats(0.0, 1.0),
       corner=st.booleans(), n=BOUNCES, max_length=MAX_LENGTH)
def test_trace_and_collision_step_match_oracle(table, side, frac, psi, corner,
                                               n, max_length):
    poly = TABLES[table]
    b = _boundary_state(poly, 1 + (side - 1) % poly.n_sides, frac, psi,
                        corner)
    if C.GRAZE_TOL < b.psi < math.pi - C.GRAZE_TOL:
        _check_state(poly, b, n, max_length)


@settings(max_examples=60, deadline=None)
@given(table=st.sampled_from(sorted(TABLES)), vertex=st.integers(0, 4),
       target=st.integers(-1, 4), frac=st.floats(0.0, 1.0),
       n=BOUNCES, max_length=MAX_LENGTH)
def test_trace_ray_matches_oracle(table, vertex, target, frac, n,
                                  max_length):
    # a fan angle from a vertex, or the shot aimed at another vertex
    poly = TABLES[table]
    vi = vertex % poly.n_vertices
    alpha = poly.angles[vi] * (0.5 + int(frac * 23)) / 24
    wj = target % poly.n_vertices
    if target >= 0 and wj != vi:
        alpha = _shot_angle(poly, vi, wj) or alpha
    _check_ray(poly, vi, alpha, n, max_length)


# offsets of a ray off the plane z = 1 that check_ray accepts (its bound is
# 1e-6): the point's z - 1 and the direction's z
OFF_PLANE = (1e-9, -3e-8, 5e-7)


def _off_plane_rays(poly, rng, count):
    """(p, v) float triples from interior points of the plane table poly:
    random directions, and directions aimed at the vertices and near the
    side ends, with p and v moved off z = 1 by every pair of OFF_PLANE."""
    verts = np.array([w[:2] for w in poly.kernel_pack()[6]])
    sa, su, _, sl = poly.kernel_pack()[:4]
    ends = [(sa[j][0] + s * su[j][0], sa[j][1] + s * su[j][1])
            for j in range(poly.n_sides) for off in (0.0, 1e-9, 1e-5)
            for s in (off, sl[j] - off)]
    rays = []
    while len(rays) < count:
        # a convex combination of the vertices of a convex table
        x, y = rng.dirichlet(np.ones(len(verts))) @ verts
        if len(rays) % 2:
            tx, ty = ends[rng.integers(len(ends))]
            dx, dy = tx - x, ty - y
        else:
            a = rng.uniform(0.0, 2.0 * math.pi)
            dx, dy = math.cos(a), math.sin(a)
        n = math.hypot(dx, dy)
        rays.append(((float(x), float(y)), (dx / n, dy / n)))
    for (x, y), (dx, dy) in rays:
        for e in OFF_PLANE:
            for e2 in OFF_PLANE:
                yield (x, y, 1.0 + e), (dx, dy, e2)


@pytest.mark.parametrize("table", ["square", "skew-quad"])
def test_off_plane_rays_match_oracle(table):
    # trace_ray and crossing_labels_from_tangent accept a plane ray a
    # little off z = 1 and off the zero z-direction, and trace it as its
    # projection: check_ray returns the ray on z = 1 with zero z-direction,
    # and the loops give the oracle's bits on the projected ray
    poly = TABLES[table]
    sa, su, sn, sl = poly.kernel_pack()[:4]
    refl = poly.reflection_pack()
    rng = np.random.default_rng(7)
    for p0, v0 in _off_plane_rays(poly, rng, 12):
        p, v = p0[:2] + (1.0,), v0[:2] + (0.0,)
        cp, cv = C.check_ray(poly, p0, v0)
        assert tuple(cp) == p and tuple(cv) == v
        want = _oracle(O.trace_loop, poly, (p, v), 25, math.inf)
        assert _traced(C.trace_ray(poly, p0, v0, 25)) == want
        labels = np.empty(25, dtype=np.int64)
        m = O.unfold_crossings(poly.k, sa, su, sn, sl, refl, p, v, 25,
                               C.FLIGHT_MIN, C.VERTEX_TOL, labels)
        assert (U.crossing_labels_from_tangent(poly, p0, v0, 25)
                == tuple(int(j) + 1 for j in labels[:m]))


def test_fixed_cases_reach_every_stop():
    # corner states graze, fans from the sphere's pole and shots at the
    # other vertices end on a vertex, a short max_length stops: every stop
    # in every curvature, each against the oracle
    seen = set()
    for poly in TABLES.values():
        for side in range(1, poly.n_sides + 1):
            for args in ((1e-5, 1e-4, True), (0.4, 0.3, False)):
                b = _boundary_state(poly, side, *args)
                seen.add((poly.k, _check_state(poly, b, 40, 2.0)))
        for vi in range(poly.n_vertices):
            angles = [0.5 * poly.angles[vi]]
            angles += [_shot_angle(poly, vi, wj)
                       for wj in range(poly.n_vertices) if wj != vi]
            for a in filter(None, angles):
                seen.add((poly.k, _check_ray(poly, vi, a, 5, math.inf)))
    for k in (0, 1, -1):
        for status in (K.STEP_VERTEX, K.STEP_GRAZING, K.STEP_MAXLEN):
            assert (k, status) in seen


@pytest.mark.parametrize("theta", [1.0, 2.0])
def test_length_only_brackets_skipped(monkeypatch, theta):
    # rays that both stop at max_length, one's labels a prefix of the
    # other's, bracket no vertex hit: skipping them keeps the list and
    # saves rays
    poly = sphere_triangle(theta)
    calls = [0]
    trace_from_point = K.trace_from_point

    def counted(*args):
        calls[0] += 1
        return trace_from_point(*args)

    monkeypatch.setattr(K, "trace_from_point", counted)
    got = C.generalized_diagonals(poly, 20, 4 * math.pi, 24)
    new_calls = calls[0]
    calls[0] = 0
    monkeypatch.setattr(C, "_same_branch", lambda a, b: a == b)
    old = C.generalized_diagonals(poly, 20, 4 * math.pi, 24)
    assert [(d.start, d.end, d.sequence, _hex(d.length), _hex(d.angle))
            for d in got] == [
        (d.start, d.end, d.sequence, _hex(d.length), _hex(d.angle))
        for d in old]
    assert got
    assert new_calls < calls[0]


FOUR_PI = 4 * math.pi
SEARCH_TABLES = {**TABLES, "sphere-triangle-pi4": sphere_triangle(math.pi / 4)}
# (table, angles per vertex, max bounces, max length); the square at 200
# angles runs out of bisection budget
SEARCHES = ([("square", n, 20, FOUR_PI) for n in (1, 5, 24, 60, 200)]
            + [("square", 50, 8, 8.0), ("skew-quad", 24, 20, FOUR_PI)]
            + [(f"sphere-triangle-{t}", n, 20, FOUR_PI)
               for t in ("1", "2", "pi4") for n in (8, 24, 60)]
            + [("hyperbolic-pentagon", n, 10, 6.0) for n in (24, 60)])


def _diagonals(ds):
    return [(d.start, d.end, d.sequence, _hex(d.length), _hex(d.angle))
            for d in ds]


def _conjugated(pairs):
    return [(p.vertices, p.m, _hex(p.residual), _diagonals([p.diagonal]))
            for p in pairs]


def _check_search(monkeypatch, poly, depth, length, angles):
    """generalized_diagonals and conjugated_vertices against the search on
    trace_ray; the bisection budget left at the end of each transition."""
    left = []
    bisect = C._bisect_transition

    def recorded(*args):
        bisect(*args)
        left.append(args[-1][0])

    monkeypatch.setattr(C, "_bisect_transition", recorded)
    got = C.generalized_diagonals(poly, depth, length, angles)
    assert _diagonals(got) == _diagonals(
        O.generalized_diagonals(poly, depth, length, angles))
    if poly.k == 1:
        pairs = C.conjugated_vertices(poly, depth, length, angles)
        monkeypatch.setattr(C, "generalized_diagonals",
                            O.generalized_diagonals)
        assert _conjugated(pairs) == _conjugated(
            C.conjugated_vertices(poly, depth, length, angles))
        monkeypatch.undo()
    return left


@pytest.mark.parametrize("table, angles, depth, length", SEARCHES)
def test_diagonal_search_matches_oracle(monkeypatch, table, angles, depth,
                                        length):
    left = _check_search(monkeypatch, SEARCH_TABLES[table], depth, length,
                         angles)
    if (table, angles) == ("square", 200):
        assert 0 in left


@settings(max_examples=15, deadline=None)
@given(polar=st.lists(st.floats(0.1, 1.4), min_size=3, max_size=3),
       azimuth=st.lists(st.floats(0.0, 2 * math.pi), min_size=3,
                        max_size=3),
       angles=st.integers(1, 8), depth=st.integers(0, 6))
def test_diagonal_search_matches_oracle_on_sphere_triangles(
        polar, azimuth, angles, depth):
    verts = [(math.sin(a) * math.cos(b), math.sin(a) * math.sin(b),
              math.cos(a)) for a, b in zip(polar, azimuth)]
    try:
        poly = build_polygon(1, verts)
    except PolygonError:
        assume(False)
    with pytest.MonkeyPatch.context() as mp:
        _check_search(mp, poly, depth, 2 * math.pi, angles)


def test_same_branch_rule():
    maxlen, ok = K.STEP_MAXLEN, K.STEP_OK
    assert C._same_branch(((1, 2), maxlen, 0), ((1, 2, 3), maxlen, 0))
    assert C._same_branch(((1, 2, 3), maxlen, 0), ((1, 2), maxlen, 0))
    assert not C._same_branch(((1, 2), maxlen, 0), ((1, 3, 2), maxlen, 0))
    assert not C._same_branch(((1, 2), ok, 0), ((1, 2, 3), maxlen, 0))
    assert not C._same_branch(((1,), K.STEP_VERTEX, 2), ((1, 2), maxlen, 0))


def test_clamped_arc_parameter_matches_oracle():
    # the built tables clamp only within rounding of a vertex, where the
    # vertex stop fires first; with the sides shortened to 80%, a pad of a
    # quarter side and the vertex stop off (nan vertices), every hit on a
    # side's last fifth is clamped and the trace goes on from there
    clamped = set()
    for poly in TABLES.values():
        sa, su, sn, sl, sv0, sv1, verts = poly.kernel_pack()[:7]
        short = tuple(0.8 * ln for ln in sl)
        pack = (sa, su, sn, short, sv0, sv1, ((math.nan,) * 3,) * len(verts))
        pad = 0.25 * max(sl)
        packs = (pack + (K.side_records(poly.k, sa, su, sn, short, pad),),
                 pack)
        for side0 in range(poly.n_sides):
            for psi0 in (0.7, 1.3, 2.1):
                start = (side0, 0.5 * short[side0], psi0)
                bufs = [[np.empty(30, dtype=np.int64)] + [np.empty(30)
                                                          for _ in range(3)]
                        for _ in range(2)]
                got, want = (
                    _record(*fn(poly.k, *pk, *start, 30, math.inf,
                                C.FLIGHT_MIN, pad, C.GRAZE_TOL, *b), *b)
                    for fn, pk, b in zip((K.trace_orbit, O.trace_orbit),
                                         packs, bufs))
                assert got == want
                # a clamped bounce followed by a recorded one
                labels, svals = bufs[0][0], bufs[0][1]
                if any(svals[i] == short[labels[i]]
                       for i in range(got[0] - 1)):
                    clamped.add(poly.k)
    assert clamped == {0, 1, -1}


def test_dispatchers_convert_numpy_arguments():
    # the three entries convert arrays, numpy scalars and a numpy side
    # index once, before the loop: the same bits as with Python floats,
    # and a Python float length
    scalars = (5.0, C.FLIGHT_MIN, C.VERTEX_TOL, C.GRAZE_TOL)
    for poly in TABLES.values():
        pack = poly.kernel_pack()
        s0 = 0.37 * poly.side(2).length
        p, v = C.embed_state(poly, BoundaryState(2, s0, 1.13))
        starts = ((K.trace_orbit, (1, s0, 1.13),
                   (np.int64(1), np.float64(s0), np.float64(1.13))),
                  (K.trace_from_point, (p, v), (np.array(p), np.array(v))))
        for fn, plain, numpy in starts:
            got = []
            for start, extra in ((plain, scalars),
                                 (numpy, tuple(map(np.float64, scalars)))):
                bufs = (np.empty(12, dtype=np.int64), np.empty(12),
                        np.empty(12), np.empty(12))
                out = fn(poly.k, *pack, *start, 12, *extra, *bufs)
                assert type(out[3]) is float
                got.append(_record(*out, *bufs))
            assert got[0] == got[1]
        got = []
        for ray, tmin in (((p, v), C.FLIGHT_MIN),
                          ((np.array(p), np.array(v)),
                           np.float64(C.FLIGHT_MIN))):
            labels = np.empty(30, dtype=np.int64)
            m = K.unfold_crossings(poly.k, pack[7], poly.reflection_pack(),
                                   *ray, 30, tmin, labels)
            got.append(labels[:m].tolist())
        assert got[0] == got[1]
        assert len(got[0]) == 30


def test_trace_reaches_its_loop_without_trace_from_point(monkeypatch):
    # benchmarks/tracing.py wraps both entries by module attribute: a
    # trace_orbit that went through trace_from_point would nest a second
    # span and count every bounce of trace() twice
    b = BoundaryState(1, 0.3, 1.1)
    poly = TABLES["square"]
    want = _traced(C.trace(poly, b, 20))

    def fail(*args):
        raise AssertionError("trace went through trace_from_point")

    monkeypatch.setattr(K, "trace_from_point", fail)
    assert _traced(C.trace(poly, b, 20)) == want


# ---------------------------------------------------------------------------
# the vertex window and the side records built once per polygon
# ---------------------------------------------------------------------------

# arc offsets from a side end for aimed hits: inside VERTEX_TOL (vertex
# hits), just outside it, within the vertex window and just past it
END_OFFSETS = (-0.5e-9, 0.0, 0.5e-9, 0.9e-9, 1.1e-9, 2e-9, 1e-7, 1e-5,
               0.999e-4, 1e-4, 1.001e-4, 2e-4, 1e-2)


def _centre(poly):
    # an interior point: the renormalised mean of the vertices
    mean = np.mean(poly.vertices, axis=0)
    return np.array(K.renorm_point(poly.k, mean))


def _aimed_targets(poly):
    """(side j, arc s, point) for hits at END_OFFSETS from both ends of
    every side."""
    sa, su, _, sl = poly.kernel_pack()[:4]
    for j in range(poly.n_sides):
        for off in END_OFFSETS:
            for s in (off, sl[j] - off):
                q = K.renorm_point(poly.k,
                                   K.geodesic_point(poly.k, sa[j], su[j], s))
                yield j, s, q


def _band(poly, j, s):
    """Where an arc parameter on side j lies against the vertex window."""
    ln = poly.kernel_pack()[3][j]
    d = min(s, ln - s)
    if d <= C.VERTEX_TOL:
        return "tol"
    return "window" if d <= L.VERTEX_WINDOW else "skip"


def test_hits_near_side_ends_match_oracle():
    # rays aimed from an interior point, from the middle of another side
    # and from a vertex at points within and around the vertex window:
    # trace_ray, trace, collision_step and the shooter against the oracle
    bands = set()
    for name, poly in TABLES.items():
        k = poly.k
        sa, su, _, sl = poly.kernel_pack()[:4]
        c = _centre(poly)
        shooters = {vi: C._vertex_shooter(poly, vi, 6, math.inf)
                    for vi in range(poly.n_vertices)}
        for j, s, q in _aimed_targets(poly):
            v = np.array(K.log_map(k, c, q))
            want = _oracle(O.trace_loop, poly, (c, v), 6, math.inf)
            assert _traced(C.trace_ray(poly, c, v, 6)) == want
            if want[4]:
                bands.add((k, _band(poly, want[4][0][0],
                                    float.fromhex(want[4][0][1]))))
            elif want[1] == K.STEP_VERTEX:
                bands.add((k, "vertex"))
            # from the middle of the next side
            i = (j + 1) % poly.n_sides
            bp = K.renorm_point(k, K.geodesic_point(k, sa[i], su[i],
                                                    0.5 * sl[i]))
            w = K.renorm_tangent(k, bp, K.geodesic_dir(k, sa[i], su[i],
                                                       0.5 * sl[i]))
            psi = K.signed_angle(k, bp, w, K.log_map(k, bp, q))
            if C.GRAZE_TOL < psi < math.pi - C.GRAZE_TOL:
                _check_state(poly, BoundaryState(i + 1, 0.5 * sl[i], psi), 6,
                             math.inf)
            # from the vertex opposite side j's start, by the shooter
            vi = (poly.side(j + 1).start + 2) % poly.n_vertices
            alpha = K.signed_angle(k, poly.vertices[vi],
                                   C._vertex_frame(poly, vi)[0],
                                   K.log_map(k, poly.vertices[vi], q))
            if not 10 * C.GRAZE_TOL < alpha < poly.angles[vi] - 10 * C.GRAZE_TOL:
                continue
            sig, length = shooters[vi](alpha)
            want = _oracle(O.trace_loop, poly, O.launch(poly, vi, alpha), 6,
                           math.inf)
            assert sig == (tuple(r[0] for r in want[4]), want[1],
                           want[2] - 1 if want[1] == K.STEP_VERTEX else -1)
            assert _hex(length) == want[3]
    # every curvature has first hits inside VERTEX_TOL of a side end, in
    # the window and past it
    for k in (0, 1, -1):
        assert {(k, "vertex"), (k, "window"), (k, "skip")} <= bands, k


def _end_gap(poly):
    """Largest distance of a side's stored start point, and of its point
    at arc sl, from the side's start and end vertex."""
    k = poly.k
    sa, su, _, sl, sv0, sv1, verts = poly.kernel_pack()[:7]
    gap = 0.0
    for j in range(poly.n_sides):
        end = K.renorm_point(k, K.geodesic_point(k, sa[j], su[j], sl[j]))
        gap = max(gap, K.distance(k, sa[j], verts[sv0[j]]),
                  K.distance(k, end, verts[sv1[j]]))
    return gap


@pytest.mark.parametrize("name", sorted(SEARCH_TABLES))
def test_side_ends_lie_on_vertices_built_in(name):
    # the premise of the vertex window: arc 0 and arc sl are the vertices
    # to far below VERTEX_WINDOW
    assert _end_gap(SEARCH_TABLES[name]) < 1e-12


@st.composite
def star_polygons(draw):
    """(k, coords) of a polygon of 3-7 vertices sorted by azimuth about the
    model's origin, in a random curvature; plane coordinates up to 3,
    Poincare radii up to 0.95, polar angles up to 1.4."""
    k = draw(st.sampled_from((0, 1, -1)))
    n = draw(st.integers(3, 7))
    gaps = draw(st.lists(st.floats(0.3, 1.0), min_size=n, max_size=n))
    radii = draw(st.lists(st.floats(0.05, 0.95), min_size=n, max_size=n))
    azimuth = draw(st.floats(0.0, 2 * math.pi)) + (
        2 * math.pi * np.cumsum(gaps) / sum(gaps))
    if k == 1:
        return k, [(math.sin(1.4 * r) * math.cos(a),
                    math.sin(1.4 * r) * math.sin(a), math.cos(1.4 * r))
                   for r, a in zip(radii, azimuth)]
    scale = 3.0 if k == 0 else 1.0
    return k, [(scale * r * math.cos(a), scale * r * math.sin(a))
               for r, a in zip(radii, azimuth)]


def _end_gap_bound(poly):
    """50 eps h^6, h the largest vertex height |z| but at least 1.

    Fitted to measurement: over 29,000 hyperbolic tables drawn as
    star_polygons draws them (half with Poincare radii 0.6-0.93) the
    largest gap over eps h^6 (eps = 2**-52) stayed between 2 and 5 in
    every height band from 1 to 8, the flattest of eps h^4, h^5 and h^6;
    beyond height 8 SIDE_END_TOL cuts the tables off.  Each of three steps scales the
    rounding by about cosh(side length) ~ h^2: the stored tangent (log_map
    of the end vertex, o = q + <q, p> p), the point at arc sl (cosh(sl) p +
    sinh(sl) u) and its renormalisation (z^2 - x^2 - y^2 = 1 out of terms
    of size h^2).  The factor 50 keeps a margin of 10 over the largest
    ratio seen; plane and sphere tables (h <= 1) gapped at most 1e-15.
    """
    h = max(1.0, max(abs(p[2]) for p in poly.vertices))
    return 50.0 * 2.0 ** -52 * h ** 6


@settings(max_examples=60, deadline=None)
@given(table=star_polygons())
# a hyperbolic triangle out to height 4.13 with a gap of 1.06e-12: no
# fixed bound near 1e-12 holds that far out
@example(table=(-1, [(-0.40450849718747367, 0.2938926261462366),
                     (-0.6067627457812107, -0.4408389392193548),
                     (0.78125, -1.9135106236677394e-16)]))
def test_side_ends_lie_on_vertices_generated(table):
    # the gap grows like h^6 with the vertex height h on the hyperboloid
    # (_end_gap_bound); build_polygon rejects a table once a side misses
    # its end vertex by more than SIDE_END_TOL, which happens only on
    # hyperbolic tables reaching past radius 0.85
    k, coords = table
    try:
        poly = build_polygon(k, coords)
    except PolygonError as e:
        assume("misses its end vertex" in str(e))
        assert k == -1 and max(math.hypot(*c) for c in coords) > 0.85
        return
    gap = _end_gap(poly)
    assert gap <= SIDE_END_TOL < 1e-2 * L.VERTEX_WINDOW
    assert gap <= _end_gap_bound(poly)


@pytest.mark.parametrize("radius,builds", [(0.85, True), (0.88, True),
                                           (0.9, False), (0.95, False)])
def test_tables_too_far_out_rejected(radius, builds):
    # a regular hyperbolic triangle: its sides miss their end vertices by
    # 1e-11 at Poincare radius 0.85, 6e-11 at 0.88, 3e-10 at 0.9 and 9e-9
    # at 0.95 (VERTEX_TOL is 1e-9)
    coords = [(radius * math.cos(a), radius * math.sin(a))
              for a in (0.1, 0.1 + 2 * math.pi / 3, 0.1 + 4 * math.pi / 3)]
    if builds:
        assert _end_gap(build_polygon(-1, coords)) <= SIDE_END_TOL
    else:
        with pytest.raises(PolygonError, match="misses its end vertex"):
            build_polygon(-1, coords)


def test_side_records_built_once_per_polygon(monkeypatch):
    # the loops' side records come with the polygon's pack: one build per
    # polygon for a whole diagonal search and the traces after it, and
    # none shared between polygons
    built = []
    side_records = K.side_records

    def counted(*args):
        built.append(args[0])
        return side_records(*args)

    monkeypatch.setattr(K, "side_records", counted)
    sq = square()
    assert C.generalized_diagonals(sq, 8, 4.0, 24)
    C.trace(sq, BoundaryState(1, 0.3, 1.1), 20)
    collision_step(BoundaryState(1, 0.3, 1.1), sq)
    assert built == [0]
    other = square()
    tri = sphere_triangle(1.0)
    assert other.kernel_pack()[7] is not sq.kernel_pack()[7]
    assert tri.kernel_pack()[7] != sq.kernel_pack()[7]
    assert built == [0, 0, 1]
    for poly in (sq, other, tri):
        pack = poly.kernel_pack()
        assert pack[7] == side_records(poly.k, *pack[:4], C.VERTEX_TOL)
