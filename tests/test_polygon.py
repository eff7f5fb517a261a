import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kernel_oracle as O
import test_specfile as S
from ccbilliards import (DoubleSurfacePoint, PolygonError, build_polygon,
                         double_points_equal, hyperbolic_pentagon,
                         interior_contains, named_table, parse_polygon_spec,
                         sphere_triangle, square, vertex_neighborhood_radius)
from ccbilliards import _kernels as K
from ccbilliards import geometry as G
from ccbilliards import polygon as P
from ccbilliards.polygon import point_on_boundary
from test_kernels import star_polygons
from test_nonconvex import DARTS
from test_unfolding import small_tables


class TestBuild:
    def test_unit_square(self, sq):
        assert [s.length for s in sq.sides] == pytest.approx([1, 1, 1, 1])
        assert sq.angles == pytest.approx([math.pi / 2] * 4)
        assert sq.boundary_components == 1
        assert not sq.reversed_input

    def test_compared_by_identity(self):
        # field-wise == would compare vertex arrays and raise numpy's
        # "truth value of an array is ambiguous"
        p = square()
        p.kernel_pack()   # fills a lazy cache on p only
        assert p == p
        assert (p != square()) is True
        assert hash(p) == hash(p)
        assert {p: 1}[p] == 1

    def test_paper_triangle_angles(self):
        theta = 0.8
        tri = sphere_triangle(theta)
        assert tri.angles[0] == pytest.approx(theta, abs=1e-12)
        assert tri.angles[1] == pytest.approx(math.pi / 2, abs=1e-12)
        assert tri.angles[2] == pytest.approx(math.pi / 2, abs=1e-12)
        assert tri.sides[0].length == pytest.approx(math.pi / 2, abs=1e-12)
        assert tri.sides[1].length == pytest.approx(theta, abs=1e-12)

    def test_coincident_vertices_rejected(self):
        with pytest.raises(PolygonError, match="coincide"):
            build_polygon(0, [(0, 0), (0, 0), (1, 1)])

    def test_self_intersection_rejected(self):
        # bowtie with nonzero turning so the failure is the crossing itself
        with pytest.raises(PolygonError):
            build_polygon(0, [(0, 0), (2, 0), (2, 1), (1, -0.5), (0, 1)])

    def test_antipodal_spherical_side_rejected(self):
        with pytest.raises(PolygonError, match="pi"):
            build_polygon(1, [(1, 0, 0), (-1, 0, 0), (0, 0, 1)])

    def test_reversed_input_flagged(self):
        sq = build_polygon(0, [(0, 0), (0, 1), (1, 1), (1, 0)])
        assert sq.reversed_input
        assert sq.angles == pytest.approx([math.pi / 2] * 4)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_vertex_rejected(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PolygonError, match="vertex 1: non-finite"):
                build_polygon(0, [(0.0, 0.0), (bad, 0.0), (0.0, 1.0)])
            with pytest.raises(PolygonError, match="vertex 2: non-finite"):
                build_polygon(1, [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0),
                                  (0.0, bad, 0.0)])

    def test_straight_angle_rejected(self):
        # a vertex inside a side: the square with its bottom side split,
        # the theta = 1 sphere triangle with its equator side split, and the
        # right-angled pentagon with its first side split at the midpoint
        with pytest.raises(PolygonError, match="straight angle .* vertex 1"):
            build_polygon(0, [(0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1)])
        with pytest.raises(PolygonError, match="straight angle .* vertex 2"):
            build_polygon(1, [(0, 0, 1), (1, 0, 0),
                              (math.cos(0.5), math.sin(0.5), 0),
                              (math.cos(1.0), math.sin(1.0), 0)])
        verts = [tuple(v) for v in hyperbolic_pentagon().vertices]
        m = np.add(verts[0], verts[1])
        m = m / math.sqrt(m[2] ** 2 - m[0] ** 2 - m[1] ** 2)
        with pytest.raises(PolygonError, match="straight angle .* vertex 1"):
            build_polygon(-1, [verts[0], tuple(m)] + verts[1:],
                          model="hyperboloid")

    def test_pentagon_right_angles(self, pentagon):
        assert pentagon.angles == pytest.approx([math.pi / 2] * 5, abs=1e-12)
        assert len(set(round(s.length, 9) for s in pentagon.sides)) == 1

    def test_nonconvex_reflex_angle(self):
        poly = build_polygon(0, [(0, 0), (2, 0), (2, 2), (1, 0.5), (0, 2)])
        assert max(poly.angles) > math.pi

    def test_hole_outside_rejected(self):
        with pytest.raises(PolygonError, match="inside"):
            build_polygon(0, [(0, 0), (1, 0), (1, 1), (0, 1)],
                          holes=[[(2, 2), (3, 2), (3, 3), (2, 3)]])


class TestModels:
    SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]

    def test_default_model_per_curvature(self):
        assert P.MODEL_FOR_K == {0: "plane", -1: "poincare-disc",
                                 1: "unit-sphere"}
        assert list(P.MODELS) == ["plane", "poincare-disc", "unit-sphere"]

    @pytest.mark.parametrize("k, coords, message", [
        (0, [(0, 0, 1), (1, 0), (0, 1)], "vertex 0: expected 2 coordinates, got 3"),
        (-1, [(0, 0), (0.3,), (0, 0.3)], "vertex 1: expected 2 coordinates, got 1"),
        (1, [(0, 0, 1), (1, 0, 0), (0, 1)], "vertex 2: expected 3 coordinates, got 2")])
    def test_coordinate_count(self, k, coords, message):
        with pytest.raises(PolygonError, match=message):
            build_polygon(k, coords)

    def test_unknown_model(self):
        with pytest.raises(PolygonError, match="vertex 0: unknown model 'klein'"):
            build_polygon(0, self.SQUARE, model="klein")

    @pytest.mark.parametrize("k, model", [(1, "plane"), (0, "poincare-disc"),
                                          (-1, "unit-sphere"),
                                          (0, "hyperboloid")])
    def test_curvature_mismatch(self, k, model):
        # the internal hyperboloid model, too, is the curvature -1 one
        with pytest.raises(PolygonError,
                           match=f"model '{model}' does not match curvature {k}"):
            build_polygon(k, self.SQUARE, model=model)

    def test_hyperboloid_model(self, pentagon):
        # hyperbolic_pentagon's own vertices, given back as 3-vectors
        poly = build_polygon(-1, [tuple(v) for v in pentagon.vertices],
                             model="hyperboloid")
        np.testing.assert_allclose(poly.vertices, pentagon.vertices,
                                   rtol=1e-15)

    @pytest.mark.parametrize("make", [
        square, hyperbolic_pentagon, lambda: sphere_triangle(1.0),
        lambda: build_polygon(0, [(0, 0), (0, 3), (3, 3), (3, 0)],
                              holes=[[(1, 1), (2, 1), (2, 2), (1, 2)]])])
    def test_side_i_starts_at_vertex_i(self, make):
        # the diagonal search reads the side leaving vertex i as sides[i],
        # also after reversed loops are turned round
        poly = make()
        assert [s.start for s in poly.sides] == list(range(poly.n_vertices))


class TestNamedTables:
    @pytest.mark.parametrize("theta", [0.0, math.pi, -1.0, math.nan])
    def test_triangle_angle_out_of_range(self, theta):
        with pytest.raises(PolygonError, match="opening angle must be in"):
            sphere_triangle(theta)

    def test_triangle_needs_theta(self):
        with pytest.raises(PolygonError, match="requires --theta"):
            named_table("sphere-triangle")

    def test_unknown_table(self):
        with pytest.raises(PolygonError, match="unknown table 'cube'"):
            named_table("cube")


class TestPerimeterAndGaussBonnet:
    def test_perimeter_matches_pairwise_distances(self, pentagon):
        total = 0.0
        n = pentagon.n_vertices
        for i in range(n):
            total += K.distance(-1, pentagon.vertices[i],
                                pentagon.vertices[(i + 1) % n])
        assert sum(s.length for s in pentagon.sides) == \
            pytest.approx(total, abs=1e-10)

    def test_square_angle_sum(self, sq):
        assert sum(sq.angles) == pytest.approx(2 * math.pi, abs=1e-9)

    def test_spherical_triangle_area(self):
        theta = 0.6
        tri = sphere_triangle(theta)
        # angle sum = pi + area, area = theta for this family
        assert sum(tri.angles) - math.pi == pytest.approx(theta, abs=1e-9)


class TestInterior:
    def test_square_center(self, sq):
        assert interior_contains(sq, G.plane_point(0.5, 0.5))

    def test_square_boundary_point(self, sq):
        assert not interior_contains(sq, G.plane_point(0.5, 0.0))

    def test_square_outside(self, sq):
        assert not interior_contains(sq, G.plane_point(1.5, 0.5))

    def test_antipode_outside_triangle(self, tri1):
        assert not interior_contains(tri1, np.array([0., 0., -1.]))

    def test_triangle_interior_point(self, tri1):
        p = np.array([math.cos(0.5) * math.cos(0.6),
                      math.sin(0.5) * math.cos(0.6), math.sin(0.6)])
        assert interior_contains(tri1, p)

    def test_pentagon_center(self, pentagon):
        assert interior_contains(pentagon, np.array([0., 0., 1.]))

    def test_annulus(self):
        ann = build_polygon(0, [(0, 0), (3, 0), (3, 3), (0, 3)],
                            holes=[[(1, 1), (2, 1), (2, 2), (1, 2)]])
        assert interior_contains(ann, G.plane_point(0.5, 0.5))
        assert not interior_contains(ann, G.plane_point(1.5, 1.5))
        assert not interior_contains(ann, G.plane_point(1.0, 1.5))

    def test_antipode_of_interior_point_outside(self, tri1):
        # before, a winding sum seen from the point read the antipode of
        # every interior point of a spherical table as inside
        p = np.array([math.cos(0.5) * math.cos(0.6),
                      math.sin(0.5) * math.cos(0.6), math.sin(0.6)])
        assert not interior_contains(tri1, -p)

    def test_reference_at_the_point_is_skipped(self, sq):
        # side 1's reference: its midpoint (0.5, 0) moved out by half its
        # distance 0.5 to the other sides
        assert not interior_contains(sq, G.plane_point(0.5, -0.25))

    def test_reference_through_a_vertex_is_skipped(self):
        # a notch from the top with its tip at (2, 1): the segment from
        # (2, 2) down to side 1's reference (2, -0.5) runs through the tip
        poly = build_polygon(0, [(0, 0), (4, 0), (4, 4), (3, 4), (2, 1),
                                 (2.5, 4), (0, 4)])
        assert interior_contains(poly, G.plane_point(2.0, 2.0))
        assert not interior_contains(poly, G.plane_point(2.6, 3.5))

    def test_antipodal_reference_is_skipped(self, tri1):
        # the antipode of side 1's reference, which lies on the side's
        # right, half way to the side at opening angle 1
        gap = math.asin(math.sin(1.0) / math.sqrt(2.0))
        mid = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
        ref = math.cos(0.5 * gap) * mid - math.sin(0.5 * gap) * np.array(
            [0.0, 1.0, 0.0])
        assert not interior_contains(tri1, -ref)
        assert not interior_contains(tri1, ref)

    def test_no_reference_left(self, sq, monkeypatch):
        monkeypatch.setattr(P, "VERTEX_SEP_TOL", 10.0)
        with pytest.raises(PolygonError, match="failed to resolve"):
            interior_contains(sq, G.plane_point(0.5, 0.5))


# ---------------------------------------------------------------------------
# the interior test against ground truth on seeded uniform points
# ---------------------------------------------------------------------------

def uniform_points(poly, n, seed):
    """n seeded uniform points: on the whole sphere, in the Poincare disc
    of radius 0.95, or in the plane table's bounding box padded by 0.5."""
    rng = np.random.default_rng(seed)
    if poly.k == 1:
        v = rng.normal(size=(n, 3))
        return list(v / np.linalg.norm(v, axis=1)[:, None])
    if poly.k == -1:
        r = 0.95 * np.sqrt(rng.random(n))
        a = rng.uniform(0.0, 2.0 * math.pi, n)
        return [G.poincare_to_hyperboloid(x, y)
                for x, y in zip(r * np.cos(a), r * np.sin(a))]
    xy = np.array(poly.vertices)[:, :2]
    lo, hi = xy.min(axis=0) - 0.5, xy.max(axis=0) + 0.5
    return [G.plane_point(*c) for c in rng.uniform(lo, hi, size=(n, 2))]


def sphere_star(n=10, outer=0.8, inner=0.3):
    """A star in the open upper hemisphere: its gnomonic image has the
    vertices at radii outer and inner in turn."""
    pts = []
    for i in range(n):
        r = outer if i % 2 == 0 else inner
        a = 2.0 * math.pi * i / n
        pts.append(tuple(np.array([r * math.cos(a), r * math.sin(a), 1.0])
                         / math.hypot(r, 1.0)))
    return build_polygon(1, pts)


def circle_loop(center, rho, n):
    """n vertices evenly round the circle of radius rho about the unit
    vector center on the sphere."""
    c = np.array(center, dtype=float)
    e1 = np.cross(c, [0.0, 1.0, 0.0] if abs(c[1]) < 0.9 else [1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(c, e1)
    return [tuple(math.cos(rho) * c + math.sin(rho) * (
        math.cos(a) * e1 + math.sin(a) * e2))
        for a in 2.0 * math.pi * np.arange(n) / n]


NORTH, SOUTH = (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)
EAST, WEST = (math.sin(0.5), 0.0, math.cos(0.5)), (-math.sin(0.5), 0.0, math.cos(0.5))


@pytest.mark.parametrize("theta", [0.3, math.pi / 4, 1.0, 2.0, 3.0])
def test_pole_triangle_matches_side_functionals(theta):
    # the triangle is convex: inside iff every side functional is positive;
    # each point's antipode is tested too
    tri = sphere_triangle(theta)
    for p in uniform_points(tri, 100, 1):
        for q in (p, -p):
            want = all(K.mdot(1, s.normal, q) > 0.0 for s in tri.sides)
            assert interior_contains(tri, q) == want


PROJECTED = {
    "square": square,
    "holed-square": lambda: build_polygon(
        0, [(0, 0), (3, 0), (3, 3), (0, 3)],
        holes=[[(1, 1), (2, 1), (2, 2), (1, 2)]]),
    "L-shape": lambda: build_polygon(
        0, [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]),
    "pentagon": hyperbolic_pentagon,
    "nonconvex-pentagon": lambda: build_polygon(
        -1, [(-0.5, -0.4), (0.5, -0.4), (0.5, 0.5), (0.0, 0.05), (-0.5, 0.5)]),
    "sphere-star": sphere_star,
    "sphere-cap-holes": lambda: build_polygon(
        1, circle_loop(NORTH, 1.2, 8),
        holes=[circle_loop(EAST, 0.2, 5), circle_loop(WEST, 0.3, 3)]),
}


@pytest.mark.parametrize("name", sorted(PROJECTED))
def test_interior_matches_projected_oracle(name):
    poly = PROJECTED[name]()
    for p in uniform_points(poly, 150, 2):
        assert interior_contains(poly, p) == O.projected_contains(poly, p)


class TestHoleChecks:
    # the south cap bounded by six vertices at z = -0.5
    CAP = circle_loop(SOUTH, math.pi / 3, 6)

    def test_hole_round_the_far_pole_rejected(self):
        # before, the hole round the north pole passed: its vertex and
        # the antipode lie on different sides of the south cap's boundary
        with pytest.raises(PolygonError, match="hole loop 1 is not inside "
                                               "the outer boundary"):
            build_polygon(1, self.CAP, holes=[circle_loop(NORTH, 0.3, 3)])

    def test_hole_round_the_near_pole_builds(self):
        poly = build_polygon(1, self.CAP, holes=[circle_loop(SOUTH, 0.3, 3)])
        assert poly.boundary_components == 2
        assert not interior_contains(poly, np.array(SOUTH))
        assert interior_contains(poly, np.array(circle_loop(SOUTH, 0.6, 1)[0]))

    @pytest.mark.parametrize("inner_first", [True, False])
    def test_nested_holes_on_the_sphere_rejected(self, inner_first):
        holes = [circle_loop(EAST, 0.1, 3), circle_loop(EAST, 0.3, 6)]
        with pytest.raises(PolygonError, match="are nested"):
            build_polygon(1, circle_loop(NORTH, 1.2, 8),
                          holes=holes if inner_first else holes[::-1])


class TestVertexRadius:
    def test_square(self, sq):
        for i in range(4):
            assert vertex_neighborhood_radius(sq, i) == pytest.approx(0.5)

    def test_equilateral_triangle(self):
        tri = build_polygon(0, [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
        # the opposite side at distance sqrt(3)/2 binds before the side length
        for i in range(3):
            assert vertex_neighborhood_radius(tri, i) == \
                pytest.approx(math.sqrt(3) / 4, abs=1e-12)

    def test_brute_force_oracle(self, pentagon):
        # dense sampling of boundary distances bounds the closed form
        rng = np.random.default_rng(0)
        for i in range(pentagon.n_vertices):
            eps = vertex_neighborhood_radius(pentagon, i)
            v = pentagon.vertices[i]
            best = math.inf
            for s in pentagon.sides:
                if s.start == i or s.end == i:
                    best = min(best, s.length)
                    continue
                for t in np.linspace(0, s.length, 400):
                    q = K.renorm_point(-1, K.geodesic_point(
                        -1, s.geodesic.point, s.geodesic.direction, t))
                    best = min(best, K.distance(-1, v, q))
            for j, w in enumerate(pentagon.vertices):
                if j != i:
                    best = min(best, K.distance(-1, v, w))
            assert eps == pytest.approx(0.5 * best, abs=1e-6)

    @pytest.mark.parametrize("i", [-1, 4, 1.0, True, np.float64(1.0),
                                   math.nan, "1"],
                             ids=["negative", "past-end", "float", "bool",
                                  "numpy-float", "nan", "str"])
    def test_bad_vertex_index_rejected(self, sq, i):
        # 1.0 used to fail with a TypeError indexing the vertex list, and
        # True ran as vertex 1
        with pytest.raises(PolygonError, match="vertex index"):
            vertex_neighborhood_radius(sq, i)

    def test_numpy_integer_vertex_index_accepted(self, sq):
        assert (vertex_neighborhood_radius(sq, np.int64(2))
                == vertex_neighborhood_radius(sq, 2))

    def test_close_opposite_side_binds(self):
        # thin sliver: the far side passes close to vertex 0
        poly = build_polygon(0, [(0, 0), (4, 0), (4, 1), (2, 0.05), (0, 1)])
        eps = vertex_neighborhood_radius(poly, 3)
        gap = G.segment_distance(poly.vertices[3], poly.sides[0].geodesic,
                                 poly.sides[0].length, 0)
        assert eps == pytest.approx(0.5 * gap, abs=1e-12)


class TestDoubleSurface:
    def test_boundary_identifies_sheets(self, sq):
        p = G.plane_point(0.5, 0.0)
        a = DoubleSurfacePoint("top", p)
        b = DoubleSurfacePoint("bottom", p)
        assert double_points_equal(a, b, sq)

    def test_interior_keeps_sheets_apart(self, sq):
        p = G.plane_point(0.5, 0.5)
        a = DoubleSurfacePoint("top", p)
        b = DoubleSurfacePoint("bottom", p)
        assert not double_points_equal(a, b, sq)
        assert double_points_equal(a, DoubleSurfacePoint("top", p), sq)

    def test_invalid_sheet_rejected(self, sq):
        with pytest.raises(PolygonError):
            DoubleSurfacePoint("middle", G.plane_point(0, 0))

    def test_point_on_boundary(self, tri1):
        q = np.array([math.cos(0.4), math.sin(0.4), 0.0])
        assert point_on_boundary(tri1, q)
        assert not point_on_boundary(tri1, np.array([0., 0., 1e-3]) +
                                     np.array([math.cos(0.4), math.sin(0.4), 0.])
                                     / np.linalg.norm([math.cos(0.4),
                                                       math.sin(0.4), 1e-3]))


# ---------------------------------------------------------------------------
# the boundary check against the numpy oracle it replaced
# ---------------------------------------------------------------------------

def boundary_verdicts(sides, k):
    """Every side pair's intersection verdict from ``build_polygon``'s test
    and from the oracle, at the builder's end tolerances."""
    got, want = [], []
    for i, a in enumerate(sides):
        for b in sides[i + 1:]:
            tol = (P.VERTEX_SEP_TOL if {a.start, a.end} & {b.start, b.end}
                   else -1e-12)
            got.append(G.geodesics_intersect(*P._side_segments((a, b)), k,
                                             end_tol=tol))
            want.append(O.geodesics_intersect(a.geodesic, a.length,
                                              b.geodesic, b.length, k,
                                              end_tol=tol))
    return got, want


TABLES = {
    "square": square, "pentagon": hyperbolic_pentagon,
    "triangle-1": lambda: sphere_triangle(1.0),
    "triangle-pi4": lambda: sphere_triangle(math.pi / 4),
    **{f"dart{k:+d}": (lambda k=k: DARTS[k]) for k in (0, 1, -1)},
    **{f"spec-{name.lower()}": (lambda text=text: parse_polygon_spec(text))
       for name, text in (("SQUARE", S.SQUARE), ("DISC", S.DISC),
                          ("SPHERE", S.SPHERE), ("ANNULUS", S.ANNULUS))}}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_boundary_verdicts_match_oracle(name):
    poly = TABLES[name]()
    got, want = boundary_verdicts(poly.sides, poly.k)
    assert got == want
    assert not any(got)


@settings(max_examples=40, deadline=None)
@given(table=star_polygons(), order=st.permutations(range(7)))
def test_shuffled_polygon_verdicts_match_oracle(table, order):
    # a star polygon's vertices in a drawn order: most orders make sides
    # cross, so both verdicts occur
    k, coords = table
    coords = [coords[i] for i in order if i < len(coords)]
    pts = P._embed_loop(k, coords, P.MODEL_FOR_K[k])
    try:
        sides, _, _ = P._loop_sides_angles(k, pts, 0, 0)
    except PolygonError:
        assume(False)
    got, want = boundary_verdicts(sides, k)
    assert got == want


@settings(max_examples=20, deadline=None)
@given(poly=small_tables())
def test_small_table_verdicts_match_oracle(poly):
    got, want = boundary_verdicts(poly.sides, poly.k)
    assert got == want
