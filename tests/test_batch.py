"""The batched engine (collision.trace_many) against the scalar trace."""

import math

import numpy as np
import pytest

from ccbilliards import (BoundaryState, DegenerateStateError, GeometryError,
                         PolygonError, find_periodic, sphere_triangle,
                         square)
from ccbilliards import _kernels as K
from ccbilliards import collision as C
from ccbilliards import unfolding as U

# (fixture, bounces, (s, psi) tolerance): pentagon rows separate like the
# scalar trace's own rounding past ~10 bounces
TABLES = (("sq", 50, 1e-11), ("tri1", 50, 1e-11), ("pentagon", 10, 1e-8))


def scalar_trace_many(poly, states, n, max_length=math.inf):
    """trace_many built row by row from the scalar trace."""
    rows = [C.trace(poly, b, n, max_length) for b in states]
    labels = np.zeros((len(rows), n), dtype=np.int64)
    floats = [np.full((len(rows), n), np.nan) for _ in range(3)]
    for r, tr in enumerate(rows):
        labels[r, :tr.n_done] = tr.labels
        for out, xs in zip(floats, (tr.svals, tr.psis, tr.flights)):
            out[r, :tr.n_done] = xs
    return C.TraceBatch(
        np.array([tr.n_done for tr in rows], dtype=np.int64),
        np.array([tr.status for tr in rows], dtype=np.int64),
        np.array([tr.vertex for tr in rows], dtype=np.int64),
        labels, *floats, np.array([tr.length for tr in rows]))


def random_states(poly, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        label = int(rng.integers(1, poly.n_sides + 1))
        out.append(BoundaryState(label,
                                 rng.uniform(0.0, poly.side(label).length),
                                 rng.uniform(0.05, math.pi - 0.05)))
    return out


def assert_rows_match(got, want, tol):
    np.testing.assert_array_equal(got.n_done, want.n_done)
    np.testing.assert_array_equal(got.status, want.status)
    np.testing.assert_array_equal(got.vertex, want.vertex)
    np.testing.assert_array_equal(got.labels, want.labels)
    for name in ("svals", "psis"):
        a, b = getattr(got, name), getattr(want, name)
        np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
        assert np.nanmax(np.abs(a - b), initial=0.0) <= tol, name
    np.testing.assert_allclose(got.flights, want.flights, rtol=0, atol=tol)
    np.testing.assert_allclose(got.length, want.length, rtol=0, atol=tol * 50)


@pytest.mark.parametrize("table,bounces,tol", TABLES)
def test_rows_match_scalar_trace(request, table, bounces, tol):
    poly = request.getfixturevalue(table)
    states = random_states(poly, 60, seed=7)
    states += [BoundaryState(label, f * poly.side(label).length, a)
               for label in range(1, poly.n_sides + 1)
               for f in (0.25, 0.5) for a in U._CANONICAL_ANGLES]
    got = C.trace_many(poly, states, bounces)
    assert got.labels.shape == (len(states), bounces)
    assert_rows_match(got, scalar_trace_many(poly, states, bounces), tol)
    for r in (0, len(states) - 1):
        row = got.row(r)
        assert len(row.labels) == row.n_done == int(got.n_done[r])


def test_first_flight_vertex_hit(tri1):
    states = [BoundaryState(2, 0.4, math.pi / 2), BoundaryState(2, 0.3, 1.2)]
    got = C.trace_many(tri1, states, 20)
    assert got.status[0] == K.STEP_VERTEX
    assert got.n_done[0] == 0 and got.vertex[0] == 1
    assert got.length[0] == pytest.approx(math.pi / 2, abs=1e-12)
    assert got.status[1] == K.STEP_OK
    assert_rows_match(got, scalar_trace_many(tri1, states, 20), 1e-11)


def test_grazing_stop(sq):
    # launched 5e-11 above the bottom side, 1e-10 rad off parallel to it
    states = [BoundaryState(4, 1 - 5e-11, math.pi / 2 - 1e-10),
              BoundaryState(1, 0.5, 1.0)]
    got = C.trace_many(sq, states, 5)
    assert list(got.status) == [K.STEP_GRAZING, K.STEP_OK]
    assert_rows_match(got, scalar_trace_many(sq, states, 5), 1e-11)


def test_max_length_stop(sq):
    states = random_states(sq, 20, seed=3)
    got = C.trace_many(sq, states, 50, max_length=3.0)
    assert np.all(got.status == K.STEP_MAXLEN)
    assert np.all(got.length > 3.0)
    assert_rows_match(got, scalar_trace_many(sq, states, 50, 3.0), 1e-11)


def test_no_states(sq):
    got = C.trace_many(sq, [], 5)
    assert got.n_done.shape == (0,)
    assert got.labels.shape == (0, 5)


def test_zero_bounces(pentagon):
    states = random_states(pentagon, 4, seed=1)
    got = C.trace_many(pentagon, states, 0)
    assert got.labels.shape == (4, 0)
    assert_rows_match(got, scalar_trace_many(pentagon, states, 0), 0.0)


@pytest.mark.parametrize("bad,error", [
    (BoundaryState(1, 0.5, 1e-12), DegenerateStateError),
    (BoundaryState(1, 2.0, 1.0), GeometryError),
    (BoundaryState(9, 0.5, 1.0), PolygonError),
])
def test_invalid_state_rejected_like_trace(sq, bad, error):
    with pytest.raises(error):
        C.trace(sq, bad, 5)
    with pytest.raises(error):
        C.trace_many(sq, [BoundaryState(1, 0.5, 1.0), bad], 5)


def test_negative_count_rejected(sq):
    with pytest.raises(ValueError):
        C.trace_many(sq, [BoundaryState(1, 0.5, 1.0)], -1)


@pytest.mark.parametrize("make", [square, lambda: sphere_triangle(math.pi / 4)],
                         ids=["square", "triangle-pi4"])
def test_find_periodic_matches_scalar_sweep(monkeypatch, make):
    poly = make()
    got = find_periodic(poly, 20, 200, seed=0)
    assert got
    monkeypatch.setattr(C, "trace_many", scalar_trace_many)
    assert find_periodic(poly, 20, 200, seed=0) == got
