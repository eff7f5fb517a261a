import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kernel_oracle as O
from ccbilliards import (BoundaryState, GeometryError, build_polygon,
                         find_periodic, holonomy, hyperbolic_pentagon,
                         sphere_triangle, spherical_periodicity_condition,
                         square, unfold, unfolded_crossings, verify_periodic)
from ccbilliards import _kernels as K
from ccbilliards import collision as C
from ccbilliards import geometry as G
from ccbilliards import itinerary
from ccbilliards import unfolding as U
from ccbilliards.unfolding import classify_isometry


def fit_line_residual(points):
    """Max distance to the least-squares line through planar points."""
    xy = points[:, :2]
    c = xy.mean(axis=0)
    d = xy - c
    _, _, vt = np.linalg.svd(d, full_matrices=False)
    n = vt[-1]
    return float(np.max(np.abs(d @ n)))


def fit_plane_residual_minkowski(points):
    """Max Minkowski-plane defect of hyperboloid points on one geodesic."""
    J = np.diag([1.0, 1.0, -1.0])
    m = points @ J
    _, _, vt = np.linalg.svd(m, full_matrices=False)
    n = vt[-1]
    nn = n @ J @ n
    n = n / math.sqrt(abs(nn))
    return float(np.max(np.abs(np.arcsinh(m @ n))))


class TestUnfold:
    def test_perpendicular_vertical_line(self, sq):
        res = unfold(BoundaryState(1, 0.5, math.pi / 2), sq, 4)
        xs = res.points[:, 0]
        ys = res.points[:, 1]
        np.testing.assert_allclose(xs, 0.5, atol=1e-12)
        np.testing.assert_allclose(ys, np.arange(5), atol=1e-12)

    def test_flat_collinearity_50_bounces(self, sq):
        res = unfold(BoundaryState(1, 0.5, math.pi / 4), sq, 50)
        assert fit_line_residual(res.points) < 1e-9

    def test_crossings_match_itinerary_flat(self, sq):
        b = BoundaryState(1, 0.37, 1.1)
        res = unfold(b, sq, 30)
        it = itinerary(b, sq, 31)
        assert unfolded_crossings(res, sq) == tuple(it.labels[1:])

    def test_crossings_match_itinerary_hyperbolic(self, pentagon):
        b = BoundaryState(3, 0.61, 0.8)
        res = unfold(b, pentagon, 30)
        it = itinerary(b, pentagon, 31)
        assert unfolded_crossings(res, pentagon) == tuple(it.labels[1:])

    def test_hyperbolic_single_geodesic(self, pentagon):
        # hyperboloid coordinates grow like exp(length); keep the unfolded
        # length below ~9 so the 1e-8 planarity residual is representable
        res = unfold(BoundaryState(1, 0.5, 1.2), pentagon, 8)
        assert fit_plane_residual_minkowski(res.points) < 1e-8

    def test_spherical_points_on_great_circle(self, tri1):
        res = unfold(BoundaryState(2, 0.3, 1.2), tri1, 40)
        axis = np.cross(res.start_tangent.point, res.start_tangent.direction)
        axis /= np.linalg.norm(axis)
        assert np.max(np.abs(res.points @ axis)) < 1e-9

    def test_vertex_hit_truncates(self, tri1):
        res = unfold(BoundaryState(2, 0.4, math.pi / 2), tri1, 10)
        assert res.vertex_hit
        assert len(res.labels) < 10


class TestHolonomy:
    def test_empty_chain_identity(self, sq):
        res = unfold(BoundaryState(1, 0.5, math.pi / 2), sq, 0)
        assert holonomy(res.chain).kind == "identity"

    def test_parallel_mirrors_translate(self, sq):
        res = unfold(BoundaryState(1, 0.5, math.pi / 2), sq, 2)
        h = holonomy(res.chain)
        assert h.kind == "translation"
        assert h.length == pytest.approx(2.0, abs=1e-12)

    def test_meridian_pair_rotation(self):
        theta = 0.7
        tri = sphere_triangle(theta)
        m1 = G.reflection_matrix(tri.sides[0].geodesic, 1)
        m3 = G.reflection_matrix(tri.sides[2].geodesic, 1)
        for n in (1, 2, 3):
            comp = np.linalg.matrix_power(m3 @ m1, n)
            cls = classify_isometry(comp, 1)
            assert cls.kind == "rotation"
            expect = (2 * n * theta) % (2 * math.pi)
            expect = min(expect, 2 * math.pi - expect)
            assert cls.angle == pytest.approx(expect, abs=1e-12)
            np.testing.assert_allclose(np.abs(cls.axis), [0, 0, 1], atol=1e-12)

    def test_associativity_of_composition(self, pentagon):
        res = unfold(BoundaryState(1, 0.4, 1.0), pentagon, 12)
        mats = [G.reflection_matrix(pentagon.side(l).geodesic, -1)
                for l in res.labels]
        left = np.eye(3)
        for m in mats:
            left = left @ m
        right = np.eye(3)
        for m in reversed(mats):
            right = m @ right
        # left-to-right and right-to-left association agree
        np.testing.assert_allclose(left, res.chain.holonomy_matrix(), atol=1e-10)
        np.testing.assert_allclose(right, res.chain.holonomy_matrix(), atol=1e-10)


class TestSphericalPeriodicityCondition:
    def test_quarter_angle(self):
        assert spherical_periodicity_condition(math.pi / 4, 2, 1)

    def test_examples(self):
        assert spherical_periodicity_condition(math.pi / 6, 3, 1)
        assert not spherical_periodicity_condition(1.0, 3, 2)

    def test_irrational_never_true_small_range(self):
        n = np.arange(1, 200001)
        v = 2.0 * n * 1.0
        m = np.round(v / math.pi)
        assert np.min(np.abs(v - m * math.pi)) > 1e-9

    def test_precondition(self):
        with pytest.raises(ValueError):
            spherical_periodicity_condition(1.0, 0, 1)


class TestFindPeriodic:
    def test_square_perpendicular_family(self, sq):
        reports = find_periodic(sq, 8, 400, seed=1)
        per2 = [r for r in reports if set(r.labels) in ({1, 3}, {2, 4})]
        assert per2
        r = per2[0]
        assert r.length == pytest.approx(2.0, abs=1e-10)
        assert r.residual < 1e-8
        assert r.holonomy.kind == "translation"
        assert verify_periodic(r, sq) < 1e-8

    def test_irrational_sphere_triangle_empty_small_budget(self, tri1):
        assert find_periodic(tri1, 30, 500, seed=2) == []

    def test_rational_sphere_triangle_found(self):
        theta = math.pi / 6
        tri = sphere_triangle(theta)
        reports = find_periodic(tri, 20, 120, seed=3)
        assert reports
        rep = reports[0]
        assert verify_periodic(rep, tri) < 1e-8
        meridian_hits = sum(1 for x in rep.labels if x in (1, 3))
        assert meridian_hits % 2 == 0
        n = meridian_hits // 2
        m = round(2 * n * theta / math.pi)
        assert spherical_periodicity_condition(theta, n, m)
        assert (n, m) == (3, 1)

    def test_bad_bounds_rejected(self, sq):
        with pytest.raises(ValueError):
            find_periodic(sq, 0, 10, seed=0)

    def test_reports_compare_equal(self, sq):
        # holonomy axes are float tuples, so whole reports support ==
        reports = find_periodic(sq, 5, 10, 0)
        assert any(r.holonomy.axis is not None for r in reports)
        assert reports == find_periodic(sq, 5, 10, 0)


def polish_every_candidate(poly, max_bounces, samples, seed):
    """find_periodic that polishes every near-return of the sweep.

    The row-by-row candidate loop of the search before it learned to skip
    the polish of a sequence it had already reported; a test oracle only.
    """
    states = U._sweep_states(poly, samples, seed)
    reports = {}
    for lo in range(0, len(states), U.SWEEP_BLOCK):
        block = states[lo:lo + U.SWEEP_BLOCK]
        batch = C.trace_many(poly, block, max_bounces)
        for r, b in enumerate(block):
            tr = batch.row(r)
            for i in range(tr.n_done):
                if int(tr.labels[i]) != b.side:
                    continue
                disp = max(abs(float(tr.svals[i]) - b.s),
                           abs(float(tr.psis[i]) - b.psi))
                if disp >= U.RETURN_CANDIDATE_TOL:
                    continue
                n = i + 1
                refined = U._refine_candidate(poly, b.side, n, (b.s, b.psi))
                if refined is None:
                    continue
                start, residual, rtr = refined
                key = U._canonical_sequence(int(x) for x in rtr.labels)
                if key in reports:
                    break
                res = unfold(start, poly, n)
                hol = holonomy(res.chain)
                if poly.k == 0 and not U._flat_direction_check(res, poly):
                    continue
                reports[key] = U.PeriodicOrbitReport(
                    start, tuple(int(x) for x in rtr.labels),
                    float(np.sum(rtr.flights)), residual, hol)
                break
    return sorted(reports.values(),
                  key=lambda r: (r.period, r.length, r.labels))


def skew_quadrilateral():
    return build_polygon(0, [(0.0, 0.0), (1.3, 0.1), (1.1, 0.9), (0.2, 1.2)])


ORACLE_TABLES = {
    "square": square,
    "triangle-pi4": lambda: sphere_triangle(math.pi / 4),
    "triangle-1": lambda: sphere_triangle(1.0),
    "pentagon": hyperbolic_pentagon,
    "skew-quad": skew_quadrilateral,
}


@pytest.fixture(scope="module", params=sorted(ORACLE_TABLES))
def oracle_table(request):
    return ORACLE_TABLES[request.param]()


class TestFindPeriodicOracle:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("budget", [(20, 200), (8, 400)])
    def test_equals_polish_every_candidate(self, oracle_table, seed, budget):
        got = find_periodic(oracle_table, *budget, seed)
        assert got == polish_every_candidate(oracle_table, *budget, seed)

    @pytest.mark.parametrize("make,calls", [
        (square, 3), (lambda: sphere_triangle(math.pi / 4), 1)],
        ids=["square", "triangle-pi4"])
    def test_one_polish_per_new_sequence(self, monkeypatch, make, calls):
        poly = make()
        seen = []
        refine = U._refine_candidate

        def counted(*args):
            seen.append(args)
            return refine(*args)

        monkeypatch.setattr(U, "_refine_candidate", counted)
        reports = find_periodic(poly, 20, 200, 0)
        assert reports
        assert len(seen) == calls

    def test_failed_polish_moves_on_to_next_return(self, monkeypatch, sq):
        # with every 1- and 2-bounce polish failing, the perpendicular
        # family is found through its 4-bounce return in the same sample
        refine = U._refine_candidate

        def no_short_orbits(poly, side0, n, u0):
            return None if n <= 2 else refine(poly, side0, n, u0)

        monkeypatch.setattr(U, "_refine_candidate", no_short_orbits)
        got = find_periodic(sq, 8, 400, 1)
        assert (1, 3, 1, 3) in [U._canonical_sequence(r.labels) for r in got]
        assert got == polish_every_candidate(sq, 8, 400, 1)


@st.composite
def small_tables(draw):
    """Sphere triangles and convex plane quadrilaterals.

    Rational opening angles pi/q and parallelograms are drawn often, since
    they carry short periodic orbits that a small sweep finds.
    """
    if draw(st.booleans()):
        theta = draw(st.floats(0.3, 2.8)
                     | st.integers(2, 9).map(lambda q: math.pi / q))
        return sphere_triangle(theta)
    # four points on an ellipse in angular order; opposite points make a
    # parallelogram
    if draw(st.booleans()):
        g = draw(st.floats(0.5, math.pi - 0.5))
        gaps = [g, math.pi - g, g, math.pi - g]
    else:
        gaps = [draw(st.floats(0.4, 2.5)) for _ in range(4)]
        scale = 2 * math.pi / sum(gaps)
        gaps = [x * scale for x in gaps]
        assume(all(0.4 <= x <= 2.5 for x in gaps))
    a = draw(st.floats(0.0, 2 * math.pi))
    ry = draw(st.floats(0.5, 2.0))
    pts = []
    for g in gaps:
        pts.append((math.cos(a), ry * math.sin(a)))
        a += g
    return build_polygon(0, pts)


@settings(max_examples=12, deadline=None)
@given(poly=small_tables(), max_bounces=st.integers(2, 12),
       samples=st.integers(10, 100), seed=st.integers(0, 2**16))
def test_find_periodic_properties(poly, max_bounces, samples, seed):
    reports = find_periodic(poly, max_bounces, samples, seed)
    for rep in reports:
        assert verify_periodic(rep, poly) < U.RETURN_VERIFY_TOL
    keys = [U._canonical_sequence(rep.labels) for rep in reports]
    assert len(set(keys)) == len(keys)
    assert reports == polish_every_candidate(poly, max_bounces, samples, seed)


# ---------------------------------------------------------------------------
# the per-curvature crossing loops against the generic loop they replaced
# ---------------------------------------------------------------------------

CROSSING_TABLES = {
    "square": square(),
    "skew-quad": build_polygon(
        0, [(0.0, 0.0), (1.3, 0.2), (0.9, 1.1), (-0.2, 0.7)]),
    "sphere-triangle-1": sphere_triangle(1.0),
    "sphere-triangle-2": sphere_triangle(2.0),
    "sphere-triangle-pi4": sphere_triangle(math.pi / 4),
    "hyperbolic-pentagon": hyperbolic_pentagon()}


def _oracle_crossings(poly, p, v, n):
    sa, su, sn, sl = poly.kernel_pack()[:4]
    labels = np.empty(max(n, 1), dtype=np.int64)
    m = O.unfold_crossings(poly.k, sa, su, sn, sl, poly.reflection_pack(),
                           p, v, n, C.FLIGHT_MIN, C.VERTEX_TOL, labels)
    return tuple(int(x) + 1 for x in labels[:m])


def _crossing_start(poly, side, frac, psi, start):
    """A boundary state: interior, grazing (psi within 1e-6 of 0 or pi),
    or just off a vertex and turned nearly parallel to the next side."""
    length = poly.side(side).length
    if start == "grazing":
        tilt = C.GRAZE_TOL + psi * 1e-6
        return BoundaryState(side, frac * length,
                             tilt if frac < 0.5 else math.pi - tilt)
    if start == "near-vertex":
        theta = poly.angles[poly.side(side).end]
        return BoundaryState(side, length * (1.0 - frac * 1e-6),
                             math.pi - theta - psi * 1e-6)
    return BoundaryState(side, frac * length, 0.01 + psi * (math.pi - 0.02))


@settings(max_examples=120, deadline=None)
@given(table=st.sampled_from(sorted(CROSSING_TABLES)), side=st.integers(1, 5),
       frac=st.floats(0.0, 1.0), psi=st.floats(0.0, 1.0),
       start=st.sampled_from(["interior", "grazing", "near-vertex"]),
       n=st.integers(0, 60))
def test_crossing_labels_match_oracle(table, side, frac, psi, start, n):
    poly = CROSSING_TABLES[table]
    assume(side <= poly.n_sides)
    b = _crossing_start(poly, side, frac, psi, start)
    assume(C.GRAZE_TOL < b.psi < math.pi - C.GRAZE_TOL)
    p, v = C.embed_state(poly, b)
    assert U.crossing_labels(poly, b, n) == _oracle_crossings(poly, p, v, n)


@pytest.mark.parametrize("table", ["square", "sphere-triangle-1",
                                   "hyperbolic-pentagon"])
@pytest.mark.parametrize("bad", ["zero", "nan-direction", "inf-direction",
                                 "nan-point", "inf-point", "off-surface",
                                 "non-tangent"])
def test_crossing_labels_reject_bad_rays(table, bad):
    # a point off the model surface, or a direction off its tangent
    # plane, is not a billiard ray
    poly = CROSSING_TABLES[table]
    p, v = C.embed_state(poly, BoundaryState(1, 0.3 * poly.side(1).length,
                                             1.0))
    if bad == "zero":
        v = np.zeros(3)
    elif bad == "off-surface":
        p = p.copy()
        p[2] = 0.0 if poly.k == 0 else 3.0
    elif bad == "non-tangent":
        v = v + 0.5 * p
    elif bad.endswith("direction"):
        v = v.copy()
        v[1] = math.nan if bad.startswith("nan") else math.inf
    else:
        p = p.copy()
        p[0] = math.nan if bad.startswith("nan") else -math.inf
    with pytest.raises(GeometryError):
        U.crossing_labels_from_tangent(poly, p, v, 10)


def test_unfold_matches_reflection_matrix_products():
    # unfold's cached matrices and kernel_pack hit points give the bits of
    # reflection_matrix products and numpy side geodesics
    for poly in CROSSING_TABLES.values():
        b = BoundaryState(1, 0.41 * poly.side(1).length, 1.1)
        res = unfold(b, poly, 16)
        svals = C.trace(poly, b, 16).svals
        g = np.eye(3)
        for i, (mat, label) in enumerate(res.chain.copies):
            side = poly.side(label)
            q = np.array(K.renorm_point(poly.k, K.geodesic_point(
                poly.k, side.geodesic.point, side.geodesic.direction,
                float(svals[i]))))
            assert np.array_equal(res.points[i + 1],
                                  G.apply_isometry(g, q, poly.k))
            g = g @ G.reflection_matrix(side.geodesic, poly.k)
            assert np.array_equal(mat, g)
        assert not any(m.flags.writeable for m in poly.reflection_matrices())
