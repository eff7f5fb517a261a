import math
import warnings

import numpy as np
import pytest

from ccbilliards import (BoundaryState, DegenerateStateError, GeometryError,
                         PolygonError, SearchBudget, VertexHit, classify,
                         collision_step, conjugated_vertices, crossing_labels,
                         generalized_diagonals, itinerary, probe_pair,
                         sphere_triangle, unfold)
from ccbilliards import _kernels as K
from ccbilliards import collision as C


class TestCollisionStep:
    def test_perpendicular_bounce(self, sq):
        out = collision_step(BoundaryState(1, 0.5, math.pi / 2), sq)
        assert out.side == 3
        assert out.s == pytest.approx(0.5, abs=1e-12)
        assert out.psi == pytest.approx(math.pi / 2, abs=1e-12)

    def test_mirror_law_45(self, sq):
        out = collision_step(BoundaryState(1, 0.5, math.pi / 4), sq)
        assert out.side == 2
        assert out.s == pytest.approx(0.5, abs=1e-12)
        assert out.psi == pytest.approx(math.pi / 4, abs=1e-12)

    def test_meridian_hits_pole(self, tri1):
        out = collision_step(BoundaryState(2, 0.4, math.pi / 2), tri1)
        assert isinstance(out, VertexHit)
        assert out.vertex == 1
        assert out.flight == pytest.approx(math.pi / 2, abs=1e-12)

    def test_grazing_rejected(self, sq):
        with pytest.raises(DegenerateStateError):
            collision_step(BoundaryState(1, 0.5, 1e-12), sq)

    def test_reflection_angle_law(self, sq, pentagon, tri1):
        # incoming angle (of the reversed incoming direction) plus outgoing
        # angle equals pi at every collision
        for poly, seed in ((sq, 1), (pentagon, 2), (tri1, 3)):
            rng = np.random.default_rng(seed)
            checked = 0
            while checked < 60:
                label = int(rng.integers(1, poly.n_sides + 1))
                b = BoundaryState(label,
                                  rng.uniform(0.1, 0.9) * poly.side(label).length,
                                  rng.uniform(0.2, math.pi - 0.2))
                p, v = C.embed_state(poly, b)
                out = collision_step(b, poly)
                if isinstance(out, VertexHit):
                    continue
                k = poly.k
                g = poly.side(out.side).geodesic
                q = K.renorm_point(k, K.geodesic_point(k, g.point, g.direction,
                                                       out.s))
                w = K.renorm_tangent(k, q, K.geodesic_dir(k, g.point,
                                                          g.direction, out.s))
                tau = K.geodesic_dir(k, p, v, K.distance(k, p, q))
                back = K.renorm_tangent(k, q, (-tau[0], -tau[1], -tau[2]))
                psi_in = K.signed_angle(k, q, w, back) % (2 * math.pi)
                assert psi_in + out.psi == pytest.approx(math.pi, abs=1e-10)
                checked += 1

    def test_time_reversal_involution(self, sq, pentagon, tri1):
        for poly, seed in ((sq, 4), (pentagon, 5), (tri1, 6)):
            rng = np.random.default_rng(seed)
            checked = 0
            while checked < 60:
                label = int(rng.integers(1, poly.n_sides + 1))
                b = BoundaryState(label,
                                  rng.uniform(0.1, 0.9) * poly.side(label).length,
                                  rng.uniform(0.2, math.pi - 0.2))
                out = collision_step(b, poly)
                if isinstance(out, VertexHit):
                    continue
                back = collision_step(out.reversed(), poly)
                assert isinstance(back, BoundaryState)
                again = back.reversed()
                assert again.side == b.side
                assert again.s == pytest.approx(b.s, abs=1e-9)
                assert again.psi == pytest.approx(b.psi, abs=1e-9)
                checked += 1


class TestTrace:
    def test_ray_from_embedded_state_matches_trace(self, sq, pentagon, tri1):
        # both entry points run the same loop: identical bits, every stop
        cases = ((sq, BoundaryState(1, 0.37, 1.13), 40, math.inf),
                 (sq, BoundaryState(1, 0.37, 1.13), 40, 5.0),
                 (pentagon, BoundaryState(2, 0.3, 1.0), 40, math.inf),
                 (tri1, BoundaryState(2, 0.3, 1.2), 40, math.inf),
                 (tri1, BoundaryState(2, 0.4, math.pi / 2), 5, math.inf))
        stops = set()
        for poly, b, n, max_length in cases:
            tr = C.trace(poly, b, n, max_length)
            ray = C.trace_ray(poly, *C.embed_state(poly, b), n, max_length)
            assert (ray.n_done, ray.status, ray.vertex, ray.length) == (
                tr.n_done, tr.status, tr.vertex, tr.length)
            for name in ("labels", "svals", "psis", "flights"):
                np.testing.assert_array_equal(getattr(ray, name),
                                              getattr(tr, name))
            stops.add(tr.status)
        assert stops == {K.STEP_OK, K.STEP_MAXLEN, K.STEP_VERTEX}


@pytest.mark.parametrize("call, name", [
    (lambda poly, b: C.trace(poly, b, -1), "bounce count"),
    (lambda poly, b: C.trace_ray(poly, *C.embed_state(poly, b), -1),
     "bounce count"),
    (lambda poly, b: unfold(b, poly, -3), "bounce count"),
    (lambda poly, b: crossing_labels(poly, b, -2), "bounce count"),
    (lambda poly, b: itinerary(b, poly, -1), "horizon"),
    (lambda poly, b: probe_pair(b, b.reversed(), poly, -1), "horizon"),
], ids=["trace", "trace_ray", "unfold", "crossing_labels", "itinerary",
        "probe_pair"])
def test_negative_count_rejected(sq, call, name):
    with pytest.raises(ValueError, match=name):
        call(sq, BoundaryState(1, 0.5, 1.0))


@pytest.mark.parametrize("max_length", [0.0, -1.0, math.nan, -math.inf])
@pytest.mark.parametrize("call", [
    lambda poly, b, m: C.trace(poly, b, 3, max_length=m),
    lambda poly, b, m: C.trace_ray(poly, *C.embed_state(poly, b), 3, m),
], ids=["trace", "trace_ray"])
def test_bad_max_length_rejected(sq, call, max_length):
    # a nan bound used to disable the length stop silently
    with pytest.raises(ValueError, match="max_length"):
        call(sq, BoundaryState(1, 0.5, 1.0), max_length)


def far_unit_non_tangent(r):
    """A ray r from the hyperboloid's origin whose direction is a unit
    vector with mdot(p, v) = -1: sqrt(2) u + p for a unit tangent u."""
    p = np.array([math.sinh(r), 0.0, math.cosh(r)])
    return p, math.sqrt(2.0) * np.array([0.0, 1.0, 0.0]) + p


@pytest.mark.parametrize("table, point, direction", [
    ("sq", (math.nan, 0.5, 1.0), (1.0, 0.0, 0.0)),
    ("sq", (math.inf, 0.5, 1.0), (1.0, 0.0, 0.0)),
    ("sq", (0.5, 0.5, 1.0), (0.6, math.nan, 0.0)),
    ("sq", (0.5, 0.5, 1.0), (-math.inf, 0.0, 0.0)),
    ("sq", (0.5, 0.5, 1.0), (0.0, 0.0, 0.0)),
    ("sq", (0.5, 0.5), (1.0, 0.0, 0.0)),
    ("sq", (0.5, 0.5, 0.0), (1.0, 0.3, 0.0)),
    ("sq", (0.5, 0.5, 1.0), (1.0, 0.3, 0.5)),
    ("sq", (0.5, 0.5, 1.0), (0.6, 0.0, 0.8)),
    ("sq", (0.5, 0.5, 1.0), (1.2, 1.6, 0.0)),
    ("sq", (0.5, 0.5, 1.0), (0.3, 0.4, 0.0)),
    ("pentagon", *far_unit_non_tangent(3.0)),
    ("pentagon", *far_unit_non_tangent(8.0)),
], ids=["nan-point", "inf-point", "nan-direction", "inf-direction",
        "zero-direction", "short-point", "off-surface-point",
        "non-tangent-direction", "unit-non-tangent-direction",
        "doubled-direction", "halved-direction",
        "unit-non-tangent-at-3", "unit-non-tangent-at-8"])
def test_trace_ray_bad_input_rejected(request, table, point, direction):
    # these used to come back as status 3 with no bounce, some with a
    # numpy RuntimeWarning on the way; a ray off the plane z = 1 or not
    # parallel to it is not a billiard ray.  The loops move at unit speed,
    # so a direction of any other length would scale every flight.  A
    # tangency test relative to |p| |v| let the ray 8 out through.
    poly = request.getfixturevalue(table)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError):
            C.trace_ray(poly, point, direction, 5)


def test_far_hyperbolic_unit_ray_accepted(pentagon):
    # 14 from the origin a renormalised unit tangent has |v|^2 ~ 7e11, and
    # its Minkowski norm misses 1 by 6e-5 in float64; a doubled one is
    # still rejected there
    r = 14.0
    p = np.array([math.sinh(r), 0.0, math.cosh(r)])
    v = np.array(K.renorm_tangent(-1, p, (0.3, 1.0, 0.2)))
    assert abs(K.mdot(-1, v, v) - 1.0) > 1e-6
    C.check_ray(pentagon, p, v)
    with pytest.raises(GeometryError):
        C.check_ray(pentagon, p, 2.0 * v)


@pytest.mark.parametrize("side", [1.0, 2.5, True, np.float64(1.0)])
def test_non_integer_side_label_rejected(sq, side):
    # a float label failed indexing a list, and True was traced as side 1
    b = BoundaryState(side, 0.3, 1.0)
    with pytest.raises(PolygonError, match="side label must be an integer"):
        C.trace(sq, b, 3)
    with pytest.raises(PolygonError, match="side label must be an integer"):
        collision_step(b, sq)


@pytest.mark.parametrize("side", [np.int64(1), np.int32(1), np.uint8(1)])
def test_numpy_integer_side_label_accepted(sq, side):
    want = C.trace(sq, BoundaryState(1, 0.3, 1.0), 5)
    got = C.trace(sq, BoundaryState(side, 0.3, 1.0), 5)
    assert (got.labels, got.svals) == (want.labels, want.svals)


class TestDirectionLabels:
    B = BoundaryState(1, 0.5, 1.0)

    @staticmethod
    def traced(n_done, status):
        # a hand-built trace of B: n_done bounces off sides 3, 2, 3, ...
        labels = (3, 2, 3, 2)[:n_done]
        return C.TraceResult(n_done, status, 0, labels, (0.5,) * n_done,
                             (1.0,) * n_done, (1.0,) * n_done, float(n_done))

    def test_horizon_when_the_trace_ran_n_bounces(self):
        tr = self.traced(4, K.STEP_OK)
        assert C.direction_labels(self.B, tr, 4) == ([1, 3, 2, 3, 2],
                                                     "horizon")
        assert C.direction_labels(self.B, tr, 2) == ([1, 3, 2], "horizon")

    @pytest.mark.parametrize("status, tag", [
        (K.STEP_VERTEX, "vertex_hit"), (K.STEP_GRAZING, "degenerate")])
    def test_stop_within_n_gives_its_tag(self, status, tag):
        tr = self.traced(2, status)
        assert C.direction_labels(self.B, tr, 3) == ([1, 3, 2], tag)
        # a stop past n is not reached
        assert C.direction_labels(self.B, tr, 2) == ([1, 3, 2], "horizon")

    def test_escape_within_n_raises(self):
        tr = self.traced(1, K.STEP_ESCAPED)
        with pytest.raises(GeometryError, match="no boundary intersection"):
            C.direction_labels(self.B, tr, 3)
        assert C.direction_labels(self.B, tr, 1) == ([1, 3], "horizon")


class TestItinerary:
    def test_square_period_two(self, sq):
        it = itinerary(BoundaryState(1, 0.5, math.pi / 2), sq, 4)
        assert it.labels == (1, 3, 1, 3)
        assert it.termination == "horizon"
        assert it.start_index == 0

    def test_vertex_hit_termination(self, tri1):
        it = itinerary(BoundaryState(2, 0.4, math.pi / 2), tri1, 5)
        assert it.labels == (2,)
        assert it.termination == "vertex_hit"

    def test_zero_horizon_rejected(self, sq, tri1):
        # a bool horizon used to trace, 2.5 to fail on a "bounce count" of
        # 1.5, and probe_pair (so classify on a sphere) to fail slicing
        a = BoundaryState(1, 0.5, math.pi / 2)
        b = BoundaryState(1, 0.5, 1.0)
        for horizon in (0, True, 2.5, math.nan):
            with pytest.raises(ValueError, match="horizon"):
                itinerary(a, sq, horizon)
            with pytest.raises(ValueError, match="horizon"):
                probe_pair(a, b, sq, horizon)
        with pytest.raises(ValueError, match="horizon"):
            classify(tri1, SearchBudget(horizon=2.5, samples=1,
                                        periodic_bounces=1))

    def test_backward_matches_reversed_forward(self, pentagon):
        b = BoundaryState(2, 0.3, 1.0)
        fwd = itinerary(b.reversed(), pentagon, 6)
        bwd = itinerary(b, pentagon, 6, direction="backward")
        assert bwd.labels == tuple(reversed(fwd.labels))
        assert bwd.start_index == -5

    def test_bidirectional_indexing(self, sq):
        b = BoundaryState(1, 0.5, math.pi / 2)
        it = itinerary(b, sq, 3, direction="bidirectional")
        assert it.start_index == -2
        assert it.labels[0 - it.start_index] == 1
        assert len(it.labels) == 5

    def test_export(self, sq, tmp_path):
        it = itinerary(BoundaryState(1, 0.5, math.pi / 2), sq, 4)
        path = tmp_path / "it.txt"
        C.write_itinerary(it, path)
        assert path.read_text() == "1,3,1,3\ntermination=horizon\n"

    def test_export_backward(self, tri1, tmp_path):
        # backward from the meridian start, the orbit came from a vertex
        it = itinerary(BoundaryState(2, 0.4, math.pi / 2), tri1, 5,
                       direction="backward")
        path = tmp_path / "it.txt"
        C.write_itinerary(it, path)
        assert path.read_text() == ("2\ntermination=horizon\n"
                                    "termination_backward=vertex_hit\n")

    def test_unknown_direction(self, sq):
        with pytest.raises(ValueError, match="unknown direction 'sideways'"):
            itinerary(BoundaryState(1, 0.5, 1.0), sq, 4, direction="sideways")

    @pytest.mark.parametrize("s", [-0.1, 1.5, math.nan])
    def test_arc_parameter_outside_the_side(self, sq, s):
        b = BoundaryState(1, s, 1.0)
        for call in (lambda: itinerary(b, sq, 4), lambda: C.trace(sq, b, 4),
                     lambda: C.embed_state(sq, b)):
            with pytest.raises(GeometryError, match="outside \\[0, 1.0\\]"):
                call()


def _lattice_vector(d):
    """The integer vector (p, q) that a diagonal of the unit square unfolds
    to, in its start corner's frame (x along the side leaving the corner),
    checked to 1e-8."""
    x = d.length * math.cos(d.angle)
    y = d.length * math.sin(d.angle)
    p, q = round(x), round(y)
    assert math.hypot(x - p, y - q) < 1e-8
    return p, q


class TestGeneralizedDiagonals:
    def test_square_direct_diagonals(self, sq):
        ds = generalized_diagonals(sq, 0, 10.0, angles_per_vertex=64)
        assert len(ds) == 2
        for d in ds:
            assert d.sequence == ()
            assert d.length == pytest.approx(math.sqrt(2), abs=1e-12)
        assert {(d.start, d.end) for d in ds} == {(1, 3), (2, 4)}

    def test_sphere_pole_diagonal(self, tri1):
        ds = generalized_diagonals(tri1, 1, 4.0, angles_per_vertex=128)
        pole = [d for d in ds if d.start == 1 and d.end == 1 and d.sequence == (2,)]
        assert len(pole) == 1
        assert pole[0].length == pytest.approx(math.pi, abs=1e-12)

    def test_max_length_cutoff(self, sq):
        assert generalized_diagonals(sq, 0, 0.5, angles_per_vertex=32) == []

    @pytest.mark.parametrize("angles", [0, -1])
    def test_empty_fan_rejected(self, sq, tri1, angles):
        with pytest.raises(ValueError):
            generalized_diagonals(sq, 2, 4.0, angles_per_vertex=angles)
        with pytest.raises(ValueError):
            conjugated_vertices(tri1, 2, 4.0, angles_per_vertex=angles)

    @pytest.mark.parametrize("max_bounces, angles, name", [
        (2.5, 4, "max_bounces"), (True, 4, "max_bounces"),
        (math.nan, 4, "max_bounces"), (-1, 4, "max_bounces"),
        (2, 2.5, "angles_per_vertex"), (2, True, "angles_per_vertex"),
        (2, math.nan, "angles_per_vertex")])
    def test_non_integer_counts_rejected(self, sq, tri1, max_bounces, angles,
                                         name):
        # 2.5 bounces failed multiplying a list, 2.5 angles in range, and
        # True ran as one angle
        with pytest.raises(ValueError, match=name):
            generalized_diagonals(sq, max_bounces, 5.0, angles)
        with pytest.raises(ValueError, match=name):
            conjugated_vertices(tri1, max_bounces, 5.0, angles)

    def test_numpy_integer_counts_accepted(self, sq):
        got = generalized_diagonals(sq, np.int64(0), 10.0, np.int32(64))
        assert got == generalized_diagonals(sq, 0, 10.0, 64)

    @pytest.mark.parametrize("max_length", [math.nan, 0.0, -1.0])
    def test_bad_max_length_rejected(self, sq, tri1, max_length):
        with pytest.raises(ValueError):
            generalized_diagonals(sq, 2, max_length, angles_per_vertex=8)
        with pytest.raises(ValueError):
            conjugated_vertices(tri1, 2, max_length, angles_per_vertex=8)

    def test_square_diagonals_are_lattice_vectors(self, sq):
        # from a corner of the unit square the diagonals unfold to the
        # primitive lattice vectors (p, q), p, q >= 1, of length
        # sqrt(p^2 + q^2); up to 4.2 there are 9 of them
        want = {(p, q) for p in range(1, 5) for q in range(1, 5)
                if math.gcd(p, q) == 1 and math.hypot(p, q) <= 4.2}
        assert len(want) == 9
        got = set()
        for d in generalized_diagonals(sq, 40, 4.2, 200):
            p, q = _lattice_vector(d)
            assert math.gcd(p, q) == 1
            assert d.length == pytest.approx(math.hypot(p, q), abs=1e-8)
            got.add((p, q))
        assert got == want

    @pytest.mark.xfail(strict=True, reason=(
        "the sqrt(10) and sqrt(17) diagonals are each reported twice, from "
        "opposite ends, with a spurious bounce about 1e-9 from the end "
        "vertex: 26 diagonals"))
    def test_square_diagonals_counted_once(self, sq):
        # 4 corners x 9 lattice vectors, each diagonal kept once with its
        # reverse, and p + q - 2 bounces on the way
        ds = generalized_diagonals(sq, 40, 4.2, 200)
        assert len(ds) == 18
        for d in ds:
            p, q = _lattice_vector(d)
            assert len(d.sequence) == p + q - 2

    def test_every_diagonal_resimulates(self, tri1):
        ds = generalized_diagonals(tri1, 2, 6.0, angles_per_vertex=256)
        assert ds
        for d in ds:
            from ccbilliards.collision import _launch, trace_ray
            p, v = _launch(tri1, d.start - 1, d.angle)
            tr = trace_ray(tri1, p, v, len(d.sequence) + 1, 10.0)
            assert tr.vertex == d.end
            assert tr.length == pytest.approx(d.length, abs=1e-9)


class TestConjugatedVertices:
    def test_sphere_example(self, tri1):
        pairs = conjugated_vertices(tri1, 2, 4.0, angles_per_vertex=128)
        assert any(p.vertices == (1, 1) and p.m == 1 for p in pairs)
        for p in pairs:
            assert p.residual < 1e-8

    def test_small_triangle_empty(self):
        tri = sphere_triangle(0.4)
        # max_length below pi cannot produce a conjugated pair
        assert conjugated_vertices(tri, 2, 3.0, angles_per_vertex=64) == []

    def test_flat_rejected(self, sq):
        with pytest.raises(GeometryError):
            conjugated_vertices(sq, 2, 4.0)
