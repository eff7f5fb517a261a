import math

import numpy as np
import pytest

from ccbilliards import (BoundaryState, find_periodic, holonomy,
                         sphere_triangle, spherical_periodicity_condition,
                         unfold, unfolded_crossings, verify_periodic)
from ccbilliards import geometry as G
from ccbilliards import itinerary
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
