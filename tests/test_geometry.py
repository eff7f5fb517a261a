import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracle as O
from ccbilliards import GeometryError
from ccbilliards import _kernels as K
from ccbilliards import collision as C
from ccbilliards import geometry as G

from conftest import random_point, random_tangent

KS = (-1, 0, 1)


def geodesic_at(p, v, t, k):
    """Point and unit direction after arc length t from the ray (p, v)."""
    q = K.renorm_point(k, K.geodesic_point(k, p, v, t))
    w = K.renorm_tangent(k, q, K.geodesic_dir(k, p, v, t))
    return np.array(q), np.array(w)


def rotate(p, d, angle, k):
    """The tangent d at p turned CCW by angle, as boundary_embed turns it."""
    e2 = K.perp(k, p, d)
    c, s = math.cos(angle), math.sin(angle)
    return np.array(K.renorm_tangent(k, p, (c * d[0] + s * e2[0],
                                            c * d[1] + s * e2[1],
                                            c * d[2] + s * e2[2])))


def reflect(p, d, side, k):
    """The tangent (p, d) mirrored by the side's reflection matrix.

    This is the map that unfold and the crossing loops apply.  For k = 0
    the matrix is affine and d has zero z, so only its linear block acts
    on d.
    """
    mat = G.reflection_matrix(side, k)
    q = G.apply_isometry(mat, p, k)
    return q, np.array(K.renorm_tangent(k, q, mat @ d))


def side_hit(p, v, side, side_len, k):
    """(t, s) of the oracle's ray_side_hit, or None when the ray misses."""
    t, s = O.ray_side_hit(k, p, v, side.point, side.direction,
                          G.side_normal(side, k), side_len, 1e-12, 1e-12)
    return None if t >= K.INF else (t, s)


class TestDistance:
    def test_identity(self):
        for k in KS:
            rng = np.random.default_rng(3 + k)
            p = random_point(rng, k)
            assert K.distance(k, p, p) == 0.0

    def test_sphere_quarter(self):
        assert K.distance(1, np.array([0., 0., 1.]),
                          np.array([1., 0., 0.])) == \
            pytest.approx(math.pi / 2, abs=1e-15)

    def test_plane_345(self):
        assert K.distance(0, G.plane_point(0, 0), G.plane_point(3, 4)) == 5.0

    def test_antipodal_is_pi(self):
        assert K.distance(1, np.array([0., 0., 1.]),
                          np.array([0., 0., -1.])) == \
            pytest.approx(math.pi, abs=1e-15)

    def test_symmetry_and_triangle(self):
        for k in KS:
            rng = np.random.default_rng(17 + k)
            for _ in range(200):
                a, b, c = (random_point(rng, k) for _ in range(3))
                dab = K.distance(k, a, b)
                assert dab == pytest.approx(K.distance(k, b, a), abs=1e-12)
                assert dab <= K.distance(k, a, c) + K.distance(k, c, b) + 1e-10

    def test_hyperbolic_matches_poincare_formula(self):
        a = G.poincare_to_hyperboloid(0.0, 0.0)
        b = G.poincare_to_hyperboloid(0.5, 0.0)
        assert K.distance(-1, a, b) == \
            pytest.approx(2 * math.atanh(0.5), abs=1e-13)


class TestGeodesicAt:
    def test_t_zero_is_base(self):
        for k in KS:
            rng = np.random.default_rng(29 + k)
            t = random_tangent(rng, k)
            q, w = geodesic_at(t.point, t.direction, 0.0, k)
            np.testing.assert_allclose(q, t.point, atol=1e-15)
            np.testing.assert_allclose(w, t.direction, atol=1e-15)

    def test_pole_to_equator(self):
        q, w = geodesic_at(np.array([0., 0., 1.]), np.array([1., 0., 0.]),
                           math.pi / 2, 1)
        np.testing.assert_allclose(q, [1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(w, [0, 0, -1], atol=1e-15)

    def test_plane_straight(self):
        q, w = geodesic_at(G.plane_point(0, 0), np.array([1., 0., 0.]),
                           2.0, 0)
        np.testing.assert_allclose(q, [2, 0, 1], atol=1e-15)
        np.testing.assert_allclose(w, [1, 0, 0], atol=1e-15)

    def test_arc_length_parameterization(self):
        # distance(g(0), g(t)) = t below the model diameter
        for k in KS:
            rng = np.random.default_rng(31 + k)
            for _ in range(300):
                t0 = random_tangent(rng, k)
                t = rng.uniform(0.01, 2.9 if k == 1 else 4.0)
                q, _ = geodesic_at(t0.point, t0.direction, t, k)
                d = K.distance(k, t0.point, q)
                expect = t if (k != 1 or t <= math.pi) else 2 * math.pi - t
                assert d == pytest.approx(expect, abs=1e-10)

    def test_round_trip_reversal(self):
        # forward t then backward t returns the start, all curvatures
        for k in KS:
            rng = np.random.default_rng(37 + k)
            for _ in range(1000):
                t0 = random_tangent(rng, k)
                t = rng.uniform(0, 3.0)
                q, w = geodesic_at(t0.point, t0.direction, t, k)
                bq, bw = geodesic_at(q, -w, t, k)
                np.testing.assert_allclose(bq, t0.point, atol=1e-10)
                np.testing.assert_allclose(-bw, t0.direction, atol=1e-10)

    def test_model_invariants_preserved(self):
        for k in KS:
            rng = np.random.default_rng(41 + k)
            for _ in range(200):
                t0 = random_tangent(rng, k)
                q, _ = geodesic_at(t0.point, t0.direction,
                                   rng.uniform(0, 5), k)
                assert G.point_defect(q, k) < 1e-12


class TestAngles:
    def test_same_direction_zero(self):
        rng = np.random.default_rng(5)
        for k in KS:
            t = random_tangent(rng, k)
            assert K.signed_angle(k, t.point, t.direction, t.direction) == 0.0

    def test_orthonormal_pair(self):
        p = G.plane_point(0.3, 0.4)
        u = np.array([1., 0., 0.])
        v = K.perp(0, p, u)
        assert K.signed_angle(0, p, u, v) == \
            pytest.approx(math.pi / 2, abs=1e-15)

    def test_opposite_pair(self):
        p = G.plane_point(0, 0)
        u = np.array([1., 0., 0.])
        v = K.perp(0, p, K.perp(0, p, u))
        assert K.signed_angle(0, p, u, v) == pytest.approx(math.pi, abs=1e-15)

    def test_zero_vector_rejected(self, sq):
        with pytest.raises(GeometryError):
            C.check_ray(sq, G.plane_point(0.5, 0.5), np.zeros(3))

    def test_signed_angle_orientation(self):
        for k in KS:
            rng = np.random.default_rng(43 + k)
            t = random_tangent(rng, k)
            rot = rotate(t.point, t.direction, 0.7, k)
            assert K.signed_angle(k, t.point, t.direction, rot) == \
                pytest.approx(0.7, abs=1e-12)
            assert K.signed_angle(k, t.point, rot, t.direction) == \
                pytest.approx(-0.7, abs=1e-12)


class TestReflect:
    def _side(self, k, rng):
        t = random_tangent(rng, k)
        return G.Geodesic(t.point, t.direction)

    def test_tangential_fixed(self):
        rng = np.random.default_rng(7)
        for k in KS:
            side = self._side(k, rng)
            _, r = reflect(side.point, side.direction, side, k)
            np.testing.assert_allclose(r, side.direction, atol=1e-12)

    def test_normal_reversed(self):
        rng = np.random.default_rng(11)
        for k in KS:
            side = self._side(k, rng)
            n = rotate(side.point, side.direction, math.pi / 2, k)
            _, r = reflect(side.point, n, side, k)
            np.testing.assert_allclose(r, -n, atol=1e-12)

    def test_planar_mirror(self):
        side = G.Geodesic(G.plane_point(0, 0), np.array([1., 0., 0.]))
        d = np.array([math.cos(math.pi / 3), math.sin(math.pi / 3), 0.])
        _, r = reflect(G.plane_point(0.2, 0), d, side, 0)
        np.testing.assert_allclose(
            r, [math.cos(math.pi / 3), -math.sin(math.pi / 3), 0], atol=1e-15)

    def test_involution(self):
        for k in KS:
            rng = np.random.default_rng(13 + k)
            for _ in range(300):
                side = self._side(k, rng)
                s = rng.uniform(-1, 1)
                q, w = geodesic_at(side.point, side.direction, s, k)
                d = rotate(q, w, rng.uniform(0, 2 * math.pi), k)
                q2, r2 = reflect(*reflect(q, d, side, k), side, k)
                np.testing.assert_allclose(r2, d, atol=1e-12)
                np.testing.assert_allclose(q2, q, atol=1e-12)


class TestIntersection:
    def test_square_bottom(self):
        side = G.Geodesic(G.plane_point(0, 0), np.array([1., 0., 0.]))
        t, s = side_hit(G.plane_point(0.5, 0.5), np.array([0., -1., 0.]),
                        side, 1.0, 0)
        assert t == pytest.approx(0.5, abs=1e-15)
        assert s == pytest.approx(0.5, abs=1e-15)

    def test_meridian_hits_equator(self):
        pole = np.array([0., 0., 1.])
        eq = G.geodesic_through(np.array([1., 0., 0.]),
                                np.array([math.cos(1.0), math.sin(1.0), 0.]), 1)
        t, s = side_hit(pole, np.array([math.cos(0.3), math.sin(0.3), 0.]),
                        eq, 1.0, 1)
        assert t == pytest.approx(math.pi / 2, abs=1e-12)
        assert s == pytest.approx(0.3, abs=1e-12)

    def test_parallel_disjoint_empty(self):
        side = G.Geodesic(G.plane_point(0, 0), np.array([1., 0., 0.]))
        assert side_hit(G.plane_point(0, 1), np.array([1., 0., 0.]),
                        side, 1.0, 0) is None

    def test_intersection_point_on_both(self):
        for k in KS:
            rng = np.random.default_rng(57 + k)
            hits = 0
            for _ in range(400):
                a = random_tangent(rng, k)
                b = random_tangent(rng, k)
                side = G.Geodesic(b.point, b.direction)
                out = side_hit(a.point, a.direction, side, 1.0, k)
                if out is None:
                    continue
                hits += 1
                t, s = out
                p1, _ = geodesic_at(a.point, a.direction, t, k)
                p2, _ = geodesic_at(b.point, b.direction, s, k)
                assert K.distance(k, p1, p2) < 1e-10
            assert hits > 20


@pytest.mark.parametrize("k", KS)
def test_intersections_match_numpy_oracle(k):
    # all 10,011 pairs of the 142 segments of a random polyline; adjacent
    # segments share an end and get the builder's vertex tolerance
    rng = np.random.default_rng(83 + k)
    pts = [random_point(rng, k) for _ in range(143)]
    geos = [G.geodesic_through(a, b, k) for a, b in zip(pts, pts[1:])]
    lens = [K.distance(k, a, b) for a, b in zip(pts, pts[1:])]
    segs = [(g.point.tolist(), g.direction.tolist(),
             G.side_normal(g, k).tolist(), n) for g, n in zip(geos, lens)]
    got, want = [], []
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            tol = 1e-9 if j == i + 1 else -1e-12
            got.append(G.geodesics_intersect(segs[i], segs[j], k, tol))
            want.append(O.geodesics_intersect(geos[i], lens[i], geos[j],
                                              lens[j], k, tol))
    assert len(got) == 10_011
    assert got == want
    assert 0 < sum(got) < len(got)


@pytest.mark.parametrize("k", KS)
def test_near_parallel_intersections_match_numpy_oracle(k):
    # segments crossing at angles from 1e-2 down to 1e-17 rad, where the
    # tests' parallel thresholds (1e-15 and 1e-14) decide the verdict
    rng = np.random.default_rng(89 + k)
    got, want = [], []
    for _ in range(20):
        t = random_tangent(rng, k)
        for e in range(2, 18):
            d = rotate(t.point, t.direction, 10.0 ** -e, k)
            geos = [G.Geodesic(*geodesic_at(t.point, v, s, k))
                    for v, s in ((t.direction, -0.3), (d, -0.2))]
            segs = [(g.point.tolist(), g.direction.tolist(),
                     G.side_normal(g, k).tolist(), 0.7) for g in geos]
            got.append(G.geodesics_intersect(*segs, k, -1e-12))
            want.append(O.geodesics_intersect(geos[0], 0.7, geos[1], 0.7, k,
                                              -1e-12))
    assert got == want
    assert 0 < sum(got) < len(got)


class TestModelConversions:
    def test_poincare_round_trip(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            u = rng.uniform(-0.7, 0.7, size=2)
            if u @ u >= 0.95:
                continue
            p = G.poincare_to_hyperboloid(*u)
            assert G.point_defect(p, -1) < 1e-12
            back = G.hyperboloid_to_poincare(p)
            np.testing.assert_allclose(back, u, atol=1e-12)

    def test_disc_boundary_rejected(self):
        with pytest.raises(GeometryError):
            G.poincare_to_hyperboloid(1.0, 0.0)

    def test_sphere_point_normalization(self):
        with pytest.raises(GeometryError):
            G.sphere_point(1.0, 1.0, 1.0)


class TestInputChecks:
    def test_curvature_outside_the_three_models(self):
        with pytest.raises(GeometryError, match="curvature must be one of"):
            G.check_curvature(2)

    def test_lower_hyperboloid_sheet(self):
        # the model is the upper sheet z > 0 alone
        assert G.point_defect((0.0, 0.0, -1.0), -1) == math.inf
        with pytest.raises(GeometryError, match="not near the k=-1 model"):
            G.normalize_point((0.0, 0.0, -1.0), -1)

    @pytest.mark.parametrize("k", KS)
    def test_off_surface_point(self, k):
        with pytest.raises(GeometryError, match=f"not near the k={k} model"):
            G.normalize_point((0.0, 0.0, 2.0), k)

    @pytest.mark.parametrize("k", KS)
    def test_coincident_points_give_no_geodesic(self, k):
        p = (0.0, 0.0, 1.0)
        with pytest.raises(GeometryError, match="coincident points"):
            G.geodesic_through(p, p, k)

    def test_antipodal_points_give_no_geodesic(self):
        with pytest.raises(GeometryError, match="antipodal points"):
            G.geodesic_through((0.0, 0.0, 1.0), (0.0, 0.0, -1.0), 1)


class TestIsometries:
    def test_reflection_preserves_model(self):
        for k in KS:
            rng = np.random.default_rng(61 + k)
            side = random_tangent(rng, k)
            mat = G.reflection_matrix(G.Geodesic(side.point, side.direction), k)
            for _ in range(50):
                p = random_point(rng, k)
                q = G.apply_isometry(mat, p, k)
                assert G.point_defect(q, k) < 1e-12
                r = G.apply_isometry(mat, q, k)
                np.testing.assert_allclose(r, p, atol=1e-10)

    def test_reflection_preserves_distance(self):
        for k in KS:
            rng = np.random.default_rng(67 + k)
            side = random_tangent(rng, k)
            mat = G.reflection_matrix(G.Geodesic(side.point, side.direction), k)
            for _ in range(50):
                a, b = random_point(rng, k), random_point(rng, k)
                d0 = K.distance(k, a, b)
                d1 = K.distance(k, G.apply_isometry(mat, a, k),
                                G.apply_isometry(mat, b, k))
                assert d1 == pytest.approx(d0, abs=1e-11)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.01, 2.5), st.floats(-10, 10), st.integers(0, 2))
def test_reflect_involution_property(s, angle, kidx):
    k = (-1, 0, 1)[kidx]
    rng = np.random.default_rng(71)
    t0 = random_tangent(rng, k)
    side = G.Geodesic(t0.point, t0.direction)
    q, w = geodesic_at(t0.point, t0.direction, s, k)
    d = rotate(q, w, angle, k)
    _, r2 = reflect(*reflect(q, d, side, k), side, k)
    np.testing.assert_allclose(r2, d, atol=1e-12)
