import math
import warnings

import numpy as np
import pytest

from ccbilliards import (BoundaryState, DegenerateStateError, GeometryError,
                         VertexHit, collision_step, conjugated_vertices,
                         crossing_labels, generalized_diagonals, itinerary,
                         sphere_triangle, unfold)
from ccbilliards import _kernels as K
from ccbilliards import collision as C
from ccbilliards import geometry as G


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
                side = poly.side(out.side)
                hit = G.geodesic_at(side.geodesic, out.s, poly.k)
                tau = G.geodesic_at(G.Geodesic(p, v),
                                    G.distance(p, hit.point, poly.k), poly.k)
                psi_in = G.signed_angle(
                    G.Tangent(hit.point, hit.direction),
                    G.Tangent(hit.point, -tau.direction), poly.k) % (2 * math.pi)
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


@pytest.mark.parametrize("call", [
    lambda poly, b: C.trace(poly, b, -1),
    lambda poly, b: C.trace_ray(poly, *C.embed_state(poly, b), -1),
    lambda poly, b: unfold(b, poly, -3),
    lambda poly, b: crossing_labels(poly, b, -2),
], ids=["trace", "trace_ray", "unfold", "crossing_labels"])
def test_negative_count_rejected(sq, call):
    with pytest.raises(ValueError, match="bounce count"):
        call(sq, BoundaryState(1, 0.5, 1.0))


@pytest.mark.parametrize("max_length", [0.0, -1.0, math.nan, -math.inf])
@pytest.mark.parametrize("call", [
    lambda poly, b, m: C.trace(poly, b, 3, max_length=m),
    lambda poly, b, m: C.trace_many(poly, [b], 3, max_length=m),
    lambda poly, b, m: C.trace_ray(poly, *C.embed_state(poly, b), 3, m),
], ids=["trace", "trace_many", "trace_ray"])
def test_bad_max_length_rejected(sq, call, max_length):
    # a nan bound used to disable the length stop silently
    with pytest.raises(ValueError, match="max_length"):
        call(sq, BoundaryState(1, 0.5, 1.0), max_length)


@pytest.mark.parametrize("point, direction", [
    ((math.nan, 0.5, 1.0), (1.0, 0.0, 0.0)),
    ((math.inf, 0.5, 1.0), (1.0, 0.0, 0.0)),
    ((0.5, 0.5, 1.0), (0.6, math.nan, 0.0)),
    ((0.5, 0.5, 1.0), (-math.inf, 0.0, 0.0)),
    ((0.5, 0.5, 1.0), (0.0, 0.0, 0.0)),
    ((0.5, 0.5), (1.0, 0.0, 0.0)),
    ((0.5, 0.5, 0.0), (1.0, 0.3, 0.0)),
    ((0.5, 0.5, 1.0), (1.0, 0.3, 0.5)),
], ids=["nan-point", "inf-point", "nan-direction", "inf-direction",
        "zero-direction", "short-point", "off-surface-point",
        "non-tangent-direction"])
def test_trace_ray_bad_input_rejected(sq, point, direction):
    # these used to come back as status 3 with no bounce, some with a
    # numpy RuntimeWarning on the way; a ray off the plane z = 1 or not
    # parallel to it is not a billiard ray
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError):
            C.trace_ray(sq, point, direction, 5)


class TestItinerary:
    def test_square_period_two(self, sq):
        it = itinerary(BoundaryState(1, 0.5, math.pi / 2), sq, 4)
        assert it.labels == (1, 3, 1, 3)
        assert it.termination == "horizon"
        assert it.index_range() == (0, 3)

    def test_vertex_hit_termination(self, tri1):
        it = itinerary(BoundaryState(2, 0.4, math.pi / 2), tri1, 5)
        assert it.labels == (2,)
        assert it.termination == "vertex_hit"

    def test_zero_horizon_rejected(self, sq):
        with pytest.raises(ValueError):
            itinerary(BoundaryState(1, 0.5, math.pi / 2), sq, 0)

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
        assert it.label_at(0) == 1
        assert len(it.labels) == 5

    def test_export(self, sq, tmp_path):
        it = itinerary(BoundaryState(1, 0.5, math.pi / 2), sq, 4)
        path = tmp_path / "it.txt"
        C.write_itinerary(it, path)
        assert path.read_text() == "1,3,1,3\ntermination=horizon\n"


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

    @pytest.mark.parametrize("max_length", [math.nan, 0.0, -1.0])
    def test_bad_max_length_rejected(self, sq, tri1, max_length):
        with pytest.raises(ValueError):
            generalized_diagonals(sq, 2, max_length, angles_per_vertex=8)
        with pytest.raises(ValueError):
            conjugated_vertices(tri1, 2, max_length, angles_per_vertex=8)

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
