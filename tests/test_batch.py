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


def scalar_trace_many(poly, side, s, psi, n):
    """trace_many built row by row from the scalar trace."""
    rows = [C.trace(poly, BoundaryState(int(a), float(b), float(c)), n)
            for a, b, c in zip(side, s, psi)]
    labels = np.zeros((len(rows), n), dtype=np.int64)
    svals = np.full((len(rows), n), np.nan)
    psis = np.full((len(rows), n), np.nan)
    for r, tr in enumerate(rows):
        labels[r, :tr.n_done] = tr.labels
        svals[r, :tr.n_done] = tr.svals
        psis[r, :tr.n_done] = tr.psis
    return labels, svals, psis


def as_arrays(states):
    """(side, s, psi) arrays of a list of boundary states."""
    return (np.array([b.side for b in states], dtype=np.int64),
            np.array([b.s for b in states]), np.array([b.psi for b in states]))


def random_states(poly, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        label = int(rng.integers(1, poly.n_sides + 1))
        out.append(BoundaryState(label,
                                 rng.uniform(0.0, poly.side(label).length),
                                 rng.uniform(0.05, math.pi - 0.05)))
    return out


def assert_rows_match(poly, states, n, tol):
    """trace_many on the states against the scalar trace, row by row: the
    same labels (so each row stops at the same bounce) and (s, psi) within
    tol, nan where the row has stopped."""
    got = C.trace_many(poly, *as_arrays(states), n)
    want = scalar_trace_many(poly, *as_arrays(states), n)
    assert got[0].shape == (len(states), n)
    np.testing.assert_array_equal(got[0], want[0])
    for a, b in zip(got[1:], want[1:]):
        np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
        assert np.nanmax(np.abs(a - b), initial=0.0) <= tol
    return got


@pytest.mark.parametrize("table,bounces,tol", TABLES)
def test_rows_match_scalar_trace(request, table, bounces, tol):
    poly = request.getfixturevalue(table)
    states = random_states(poly, 60, seed=7)
    states += [BoundaryState(label, f * poly.side(label).length, a)
               for label in range(1, poly.n_sides + 1)
               for f in (0.25, 0.5) for a in U._CANONICAL_ANGLES]
    assert_rows_match(poly, states, bounces, tol)


def test_first_flight_vertex_hit(tri1):
    states = [BoundaryState(2, 0.4, math.pi / 2), BoundaryState(2, 0.3, 1.2)]
    assert C.trace(tri1, states[0], 20).status == K.STEP_VERTEX
    assert C.trace(tri1, states[1], 20).status == K.STEP_OK
    labels, _, _ = assert_rows_match(tri1, states, 20, 1e-11)
    assert not labels[0].any() and labels[1].all()


def test_grazing_stop(sq):
    # launched 5e-11 above the bottom side, 1e-10 rad off parallel to it
    states = [BoundaryState(4, 1 - 5e-11, math.pi / 2 - 1e-10),
              BoundaryState(1, 0.5, 1.0)]
    assert [C.trace(sq, b, 5).status for b in states] == [K.STEP_GRAZING,
                                                         K.STEP_OK]
    labels, _, _ = assert_rows_match(sq, states, 5, 1e-11)
    assert labels[1].all()


def test_no_states(sq, tri1, pentagon):
    for poly in (sq, tri1, pentagon):
        for n in (0, 5):
            labels, svals, psis = C.trace_many(
                poly, np.array([], dtype=np.int64), [], [], n)
            assert labels.shape == svals.shape == psis.shape == (0, n)


def test_zero_bounces(pentagon):
    labels, _, _ = assert_rows_match(pentagon, random_states(pentagon, 4, 1),
                                     0, 0.0)
    assert labels.shape == (4, 0)


@pytest.mark.parametrize("bad,error", [
    (BoundaryState(1, 0.5, 1e-12), DegenerateStateError),
    (BoundaryState(1, 2.0, 1.0), GeometryError),
    (BoundaryState(9, 0.5, 1.0), PolygonError),
    (BoundaryState(1, math.nan, 1.0), GeometryError),
    (BoundaryState(1, 0.5, math.nan), DegenerateStateError),
    (BoundaryState(0, 0.5, 1.0), PolygonError),
])
def test_invalid_state_rejected_like_trace(sq, bad, error):
    with pytest.raises(error) as want:
        C.trace(sq, bad, 5)
    # the first bad row is the one reported
    states = [BoundaryState(1, 0.5, 1.0), bad, BoundaryState(1, -1.0, 1.0)]
    with pytest.raises(error) as got:
        C.trace_many(sq, *as_arrays(states), 5)
    assert str(got.value) == str(want.value)


def test_negative_count_rejected(sq):
    with pytest.raises(ValueError):
        C.trace_many(sq, *as_arrays([BoundaryState(1, 0.5, 1.0)]), -1)


@pytest.mark.parametrize("side", [[1.0, 2.0], [True, False], [1.5, 2.0]])
def test_non_integer_side_dtype_rejected(sq, side):
    # a float array failed in numpy's cast, a bool one would run as 1 and 0
    with pytest.raises(ValueError, match="side labels must be integers"):
        C.trace_many(sq, side, [0.5, 0.5], [1.0, 1.0], 5)


@pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.int64])
def test_integer_side_dtypes_accepted(sq, dtype):
    side = np.array([1, 2], dtype=dtype)
    got = C.trace_many(sq, side, [0.5, 0.25], [1.0, 2.0], 5)
    want = C.trace_many(sq, [1, 2], [0.5, 0.25], [1.0, 2.0], 5)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def test_unequal_lengths_rejected(sq):
    with pytest.raises(ValueError, match="one length"):
        C.trace_many(sq, [1, 2], [0.5, 0.5], [1.0], 5)


@pytest.mark.parametrize("make", [square, lambda: sphere_triangle(math.pi / 4)],
                         ids=["square", "triangle-pi4"])
def test_find_periodic_matches_scalar_sweep(monkeypatch, make):
    poly = make()
    got = find_periodic(poly, 20, 200, seed=0)
    assert got
    monkeypatch.setattr(C, "trace_many", scalar_trace_many)
    assert find_periodic(poly, 20, 200, seed=0) == got
