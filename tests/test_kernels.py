"""The per-curvature trace loops against the generic code they replaced.

``kernel_oracle.py`` keeps the generic collision step and trace loop.
``trace``, ``trace_ray`` and ``collision_step`` must give their results bit
for bit (compared as ``float.hex``) in all three curvatures: from random
boundary states, from vertex fans and shots aimed at other vertices (vertex
hits), under a ``max_length`` stop, from states next to a corner that
leave nearly parallel to the next side (grazing hits), and with clamped
arc parameters.  The last tests pin the diagonal search's skip of
length-only brackets, and its per-vertex shooter against the search on
``trace_ray`` that ``kernel_oracle.py`` keeps: the same diagonals and
conjugated vertices, bit for bit.  The last two pin the entries: each
converts numpy arguments itself, and ``trace_orbit`` reaches its loop
without ``trace_from_point``.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kernel_oracle as O
from ccbilliards import (BoundaryState, DegenerateStateError, GeometryError,
                         PolygonError, VertexHit, build_polygon,
                         collision_step, hyperbolic_pentagon, sphere_triangle,
                         square)
from ccbilliards import _kernels as K
from ccbilliards import collision as C

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
    n_done, status, vertex, length = fn(
        poly.k, *poly.kernel_pack(), *start, n, max_length, C.FLIGHT_MIN,
        C.VERTEX_TOL, C.GRAZE_TOL, *bufs)
    return _record(n_done, status, vertex + 1 if vertex >= 0 else 0, length,
                   *bufs)


def _traced(tr):
    return _record(tr.n_done, tr.status, tr.vertex, tr.length, tr.labels - 1,
                   tr.svals, tr.psis, tr.flights)


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
    p, v = C.embed_triples(poly, b)
    st_, j, s, psi, tf, vtx = O.step_ray(poly.k, *poly.kernel_pack(), p, v,
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
        sa, su, sn, sl, sv0, sv1, verts = poly.kernel_pack()
        short = tuple(0.8 * ln for ln in sl)
        pack = (sa, su, sn, short, sv0, sv1, ((math.nan,) * 3,) * len(verts))
        pad = 0.25 * max(sl)
        for side0 in range(poly.n_sides):
            for psi0 in (0.7, 1.3, 2.1):
                start = (side0, 0.5 * short[side0], psi0)
                bufs = [[np.empty(30, dtype=np.int64)] + [np.empty(30)
                                                          for _ in range(3)]
                        for _ in range(2)]
                got, want = (
                    _record(*fn(poly.k, *pack, *start, 30, math.inf,
                                C.FLIGHT_MIN, pad, C.GRAZE_TOL, *b), *b)
                    for fn, b in zip((K.trace_orbit, O.trace_orbit), bufs))
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
        p, v = C.embed_triples(poly, BoundaryState(2, s0, 1.13))
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
        for ray, tmin, pad in (((p, v), C.FLIGHT_MIN, C.VERTEX_TOL),
                               ((np.array(p), np.array(v)),
                                np.float64(C.FLIGHT_MIN),
                                np.float64(C.VERTEX_TOL))):
            labels = np.empty(30, dtype=np.int64)
            m = K.unfold_crossings(poly.k, *pack[:4], poly.reflection_pack(),
                                   *ray, 30, tmin, pad, labels)
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
