"""The batched engine (_batch.trace_columns) against the scalar trace, and
bit for bit against the broadcast engine of the test oracle.

``kernel_oracle.batch_trace_states`` keeps the engine in the form it had
before its grids were tiled, bouncing as the engine does: a ray goes on
from its hit point and reflected direction, and from (s, psi) embedded
again only where s was clamped.  The engine must give its (labels, svals, psis)
bytes on the sweep states of all three curvatures, on hits aimed inside
VERTEX_TOL of a side end, in the vertex window and past it, on clamped
arc parameters and grazing stops, and its first hits where the sphere
needs the roots past t0.  Against the scalar trace, which embeds every
bounce, rows agree in labels and in (s, psi) up to rounding.  The engine
checks no state, so every state the sweep draws is held to ``trace``'s
checks here.
"""

import math

import numpy as np
import pytest

import kernel_oracle as O
from ccbilliards import (BoundaryState, find_periodic, hyperbolic_pentagon,
                         sphere_triangle, square)
from ccbilliards import _batch as B
from ccbilliards import _collision_loops as L
from ccbilliards import _kernels as K
from ccbilliards import collision as C
from ccbilliards import unfolding as U

# (fixture, bounces, (s, psi) tolerance): pentagon rows separate like the
# scalar trace's own rounding past ~10 bounces
TABLES = (("sq", 50, 1e-11), ("tri1", 50, 1e-11), ("tri_pi4", 50, 1e-11),
          ("pentagon", 10, 1e-8))

SWEEP_TABLES = {"square": square(),
                "triangle-pi4": sphere_triangle(math.pi / 4),
                "triangle-1": sphere_triangle(1.0),
                "pentagon": hyperbolic_pentagon()}


@pytest.fixture(scope="module")
def tri_pi4():
    """The spherical triangle with opening angle pi/4 (periodic orbits)."""
    return SWEEP_TABLES["triangle-pi4"]


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
    got = O.trace_many(poly, *as_arrays(states), n)
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


def test_columns_end_when_every_ray_has_stopped(monkeypatch, sq):
    # aimed from (0.5, 0) at the corner (1, 1): the one ray stops at its
    # first bounce, so the engine yields that bounce's empty column and
    # none of the other four
    monkeypatch.setattr(B, "BLOCK", 16)
    psi = math.atan2(1.0, 0.5)
    assert C.trace(sq, BoundaryState(1, 0.5, psi), 5).status == K.STEP_VERTEX
    cols = list(B.trace_columns(0, *sq.kernel_pack()[:7], np.array([1]),
                                np.array([0.5]), np.array([psi]), 5))
    assert len(cols) == 1
    assert all(x.size == 0 for x in cols[0])


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
            labels, svals, psis = O.trace_many(
                poly, np.array([], dtype=np.int64), [], [], n)
            assert labels.shape == svals.shape == psis.shape == (0, n)


def test_zero_bounces(pentagon):
    labels, _, _ = assert_rows_match(pentagon, random_states(pentagon, 4, 1),
                                     0, 0.0)
    assert labels.shape == (4, 0)


@pytest.mark.parametrize("name", sorted(SWEEP_TABLES))
def test_sweep_states_pass_trace_checks(name):
    # the engine checks no state, so every state the sweep draws must pass
    # the tests of collision._validate_state: side in range, 0 <= s <=
    # length and psi off grazing
    poly = SWEEP_TABLES[name]
    lengths = np.array(poly.kernel_pack()[3])
    for samples in (1, 3, 200, 10000):
        for seed in range(16):
            side, s, psi = U._sweep_states(poly, samples, seed)
            assert side.dtype == np.int64
            assert s.dtype == psi.dtype == np.float64
            assert ((1 <= side) & (side <= poly.n_sides)).all()
            assert ((0.0 <= s) & (s <= lengths[side - 1])).all()
            assert ((C.GRAZE_TOL < psi)
                    & (psi < math.pi - C.GRAZE_TOL)).all()


@pytest.mark.parametrize("name", sorted(SWEEP_TABLES))
def test_find_periodic_matches_scalar_sweep(monkeypatch, name):
    # the sweep's reports depend on the engine only through the candidates
    # it finds, so scalar traces in its place give the same full search
    # and the same first verified orbit
    poly = SWEEP_TABLES[name]
    seeds = (0, 1)

    def search():
        return [(find_periodic(poly, 20, 200, seed),
                 U.first_verified_orbit(poly, 20, 200, seed))
                for seed in seeds]

    got = search()
    # the theta = 1 triangle has no periodic orbits, and the pentagon's
    # sweep finds none
    assert all(rep for _, rep in got) == (name in ("square", "triangle-pi4"))
    traced = {}

    def scalar_columns(*args):
        side, s, psi, n = args[-4:]
        key = s.tobytes()
        if key not in traced:
            traced[key] = scalar_trace_many(poly, side, s, psi, n)
        return O.columns(traced[key], n)

    monkeypatch.setattr(B, "trace_columns", scalar_columns)
    assert search() == got
    assert len(traced) == len(seeds)


# ---------------------------------------------------------------------------
# bit for bit against the oracle's broadcast engine
# ---------------------------------------------------------------------------

def engine_and_oracle(poly, side, s, psi, n, pack=None):
    """``_batch.trace_columns``, gathered with its labels made 0-based, and
    the oracle on 1-based (side, s, psi), with the polygon's pack unless
    one is given, at the engine's pad ``B.VERTEX_TOL``."""
    if pack is None:
        pack = poly.kernel_pack()[:7]
    side = np.asarray(side)
    s, psi = np.asarray(s, float), np.asarray(psi, float)
    labels, svals, psis = O.gather(B.trace_columns(poly.k, *pack, side, s,
                                                   psi, n),
                                   len(side), n, 0)
    want = O.batch_trace_states(poly.k, *pack, side - 1, s, psi, n,
                                C.FLIGHT_MIN, B.VERTEX_TOL, C.GRAZE_TOL)
    return (labels - 1, svals, psis), want


def assert_same_bits(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def sweep_batch(poly, samples, seeds):
    """The sweep states of the seeds, one after the other.  Rows are traced
    independently, so one batch gives each row the bits of its own."""
    parts = [U._sweep_states(poly, samples, seed) for seed in seeds]
    return tuple(np.concatenate(x) for x in zip(*parts))


@pytest.mark.parametrize("name", sorted(SWEEP_TABLES))
def test_blocks_do_not_change_the_bits(monkeypatch, name):
    # 7 rays to a grid puts block edges all through the sweep; the first
    # block holds 7 rays aimed at a vertex, so it empties at the first
    # bounce while the others go on
    poly = SWEEP_TABLES[name]
    k = poly.k
    sa, su, _, sl, _, sv1, verts = poly.kernel_pack()[:7]
    bp = K.renorm_point(k, K.geodesic_point(k, sa[0], su[0], 0.5 * sl[0]))
    w = K.renorm_tangent(k, bp, K.geodesic_dir(k, sa[0], su[0], 0.5 * sl[0]))
    psi = K.signed_angle(k, bp, w, K.log_map(k, bp, verts[sv1[1]]))
    aimed = [1] * 7, [0.5 * sl[0]] * 7, [psi] * 7
    states = tuple(np.concatenate(x) for x in
                   zip(aimed, U._sweep_states(poly, 200, 0)))
    want = O.trace_many(poly, *states, 20)
    monkeypatch.setattr(B, "BLOCK", 7)
    got = O.gather(B.trace_columns(k, *poly.kernel_pack()[:7], *states, 20),
                   len(states[0]), 20, 0)
    assert_same_bits(got, want)
    assert not got[0][:7].any() and got[0][7:, -1].any()


@pytest.mark.parametrize("name", sorted(SWEEP_TABLES))
def test_sweep_states_match_oracle(name):
    # the find_periodic sweep at 200 samples, seeds 0-15, 12 bounces; and
    # seed 0 alone, a batch of find_periodic's size
    poly = SWEEP_TABLES[name]
    for seeds in (range(16), [0]):
        got, want = engine_and_oracle(poly, *sweep_batch(poly, 200, seeds),
                                      12)
        assert_same_bits(got, want)
        assert (got[0][:, -1] >= 0).mean() > 0.9


@pytest.mark.parametrize("name", sorted(SWEEP_TABLES))
def test_dense_sweep_states_match_oracle(name):
    # 10,000 samples at seeds 0 and 1: starts near the side ends and near
    # grazing, over two bounces
    poly = SWEEP_TABLES[name]
    got, want = engine_and_oracle(poly, *sweep_batch(poly, 10000, (0, 1)),
                                  2)
    assert_same_bits(got, want)


# arc offsets from a side end for aimed hits: inside VERTEX_TOL (vertex
# hits), just outside it, within the vertex window and just past it
END_OFFSETS = (0.0, 0.5e-9, 0.9e-9, 1.1e-9, 2e-9, 1e-7, 1e-5, 0.999e-4,
               1e-4, 1.001e-4, 2e-4, 1e-2)


def aimed_states(poly):
    """(states, offsets): from the middle of side j + 1, aimed at the
    points END_OFFSETS from either end of side j."""
    k = poly.k
    sa, su, _, sl = poly.kernel_pack()[:4]
    states, offsets = [], []
    for j in range(poly.n_sides):
        i = (j + 1) % poly.n_sides
        bp = K.renorm_point(k, K.geodesic_point(k, sa[i], su[i], 0.5 * sl[i]))
        w = K.renorm_tangent(k, bp, K.geodesic_dir(k, sa[i], su[i],
                                                   0.5 * sl[i]))
        for off in END_OFFSETS:
            for s in (off, sl[j] - off):
                q = K.renorm_point(k, K.geodesic_point(k, sa[j], su[j], s))
                psi = K.signed_angle(k, bp, w, K.log_map(k, bp, q))
                if C.GRAZE_TOL < psi < math.pi - C.GRAZE_TOL:
                    states.append((i + 1, 0.5 * sl[i], psi))
                    offsets.append(off)
    return tuple(zip(*states)), np.array(offsets)


@pytest.mark.parametrize("name", ["square", "triangle-1", "pentagon"])
def test_hits_near_side_ends_match_oracle(name):
    poly = SWEEP_TABLES[name]
    states, offsets = aimed_states(poly)
    got, want = engine_and_oracle(poly, *states, 6)
    assert_same_bits(got, want)
    # first hits that stop on a vertex inside VERTEX_TOL, and first hits
    # that go on from the vertex window and from past it
    first = got[0][:, 0] >= 0
    assert not first[offsets < 0.9 * C.VERTEX_TOL].any()
    assert (offsets[first] < L.VERTEX_WINDOW).any()
    assert (offsets[first] > L.VERTEX_WINDOW).any()


def test_clamped_arc_parameters_match_oracle(monkeypatch):
    # the built tables clamp only within rounding of a vertex, where the
    # vertex stop fires first; with the sides shortened to 80%, a pad of a
    # quarter side and the vertex stop off (nan vertices), every hit on a
    # side's last fifth is clamped and the trace goes on from there
    for poly in (SWEEP_TABLES["square"], SWEEP_TABLES["triangle-1"],
                 SWEEP_TABLES["pentagon"]):
        sa, su, sn, sl, sv0, sv1, verts = poly.kernel_pack()[:7]
        short = tuple(0.8 * ln for ln in sl)
        pack = (sa, su, sn, short, sv0, sv1, ((math.nan,) * 3,) * len(verts))
        side, s, psi = sweep_batch(poly, 200, [0])
        s = 0.8 * s
        monkeypatch.setattr(B, "VERTEX_TOL", 0.25 * max(sl))
        got, want = engine_and_oracle(poly, side, s, psi, 20, pack)
        assert_same_bits(got, want)
        # clamped bounces that the trace goes on from
        labels, svals = got[0][:, :-1], got[1][:, :-1]
        ends = np.array(short)[np.maximum(labels, 0)]
        assert ((svals == ends) & (got[0][:, 1:] >= 0)).any()


@pytest.mark.parametrize("name", sorted(SWEEP_TABLES))
def test_grazing_stops_match_oracle(name):
    # states just before a side's end, turned 1e-10 short of parallel to
    # the next side, graze it; the mid-side states go on
    poly = SWEEP_TABLES[name]
    states = []
    for side in range(1, poly.n_sides + 1):
        length = poly.side(side).length
        theta = poly.angles[poly.side(side).end]
        states += [(side, length * (1.0 - 1e-11), math.pi - theta - 1e-10),
                   (side, 0.5 * length, 1.0)]
    got, want = engine_and_oracle(poly, *zip(*states), 5)
    assert_same_bits(got, want)
    first = got[0][:, 0] >= 0
    assert not first[0::2].any() and first[1::2].all()
    grazing = [C.trace(poly, BoundaryState(*b), 5).status for b in states]
    assert grazing[0::2] == [K.STEP_GRAZING] * poly.n_sides


@pytest.mark.parametrize("tmin", [3.0, 4.5])
def test_later_sphere_roots_match_oracle(tmin):
    # the sweep never needs the roots t0 + pi and t0 + 2 pi; past a tmin
    # above every t0 of a ray, its first hit is one of them.  _side_hits
    # must pick the oracle's side, t and s, and give the cos/sin and the
    # point of that t
    poly = sphere_triangle(1.0)
    pack = poly.kernel_pack()[:7]
    side, s, psi = U._sweep_states(poly, 200, 0)
    sa, su, sn = (tuple(np.array(x)[:, c] for c in range(3))
                  for x in pack[:3])
    sl = np.array(pack[3])
    j0 = side - 1
    p, v = O._batch_boundary_embed(1, O._batch_gather(sa, j0),
                                   O._batch_gather(su, j0), s, psi)
    n = p[0].size
    with np.errstate(all="ignore"):
        tw, sw = O.batch_side_hits(1, (sa, su, sn, sl), p, v, tmin,
                                   C.VERTEX_TOL)
        sides = B._Sides(1, *pack, n)
        j, t, s_hit, ct, st, *q = B._side_hits(1, sides.table, p, v, tmin,
                                               C.VERTEX_TOL)
    rows = np.arange(n)
    want_j = np.argmin(tw, axis=1)
    assert_same_bits((j, t, s_hit), (want_j, tw[rows, want_j],
                                     sw[rows, want_j]))
    hit = t < L.INF
    assert hit.mean() > 0.9
    assert_same_bits((ct[hit], st[hit]), (np.cos(t[hit]), np.sin(t[hit])))
    want_q = O._batch_geodesic_point(1, p, v, t)
    assert_same_bits(tuple(x[hit] for x in q),
                     tuple(x[hit] for x in want_q))
    # every first hit is a later root, some t0 + pi and some t0 + 2 pi
    assert (t[hit] >= math.pi).all()
    assert (t[hit] < 2 * math.pi).any() and (t[hit] >= 2 * math.pi).any()


@pytest.mark.parametrize("name", sorted(SWEEP_TABLES))
def test_gathered_arc_matches_grid(name):
    # _bounce computes the nearest crossing's arc parameter, cos/sin and
    # hit point on (n,) arrays gathered for one side per ray, where the
    # oracle computes them over the (n, nsides) grid of the rays broadcast
    # against the sides.  The bits agree only if numpy's transcendental
    # loops give an element the same bits on both; a failure here, on
    # another machine, points to numpy's SIMD dispatch
    # (numpy.show_runtime()), not to the engine
    poly = SWEEP_TABLES[name]
    k = poly.k
    side, s0, psi0 = U._sweep_states(poly, 200, 0)
    n, ns = side.size, poly.n_sides
    sides = B._Sides(k, *poly.kernel_pack()[:7], n)
    p, v = B._embed(k, sides.table[:, side - 1], s0, psi0)
    grid = np.repeat(np.concatenate(p + v), ns).reshape(-1, n, ns)
    half = len(p)
    with np.errstate(all="ignore"):
        t, ok, _ = B._crossings(k, sides.tiles[:, :n], grid[:half],
                                grid[half:], C.FLIGHT_MIN)
        t = np.where(ok, t, 0.5)
        want = B._arc(k, sides.table, tuple(x[:, None] for x in p),
                      tuple(x[:, None] for x in v), t)
        for j in range(ns):
            got = B._arc(k, sides.table[:, np.full(n, j)], p, v,
                         t[:, j].copy())
            for a, b in zip(got[:3] + got[3], want[:3] + want[3]):
                if a is not None:
                    assert a.tobytes() == b[:, j].copy().tobytes(), (
                        "numpy gave a gathered array other bits than the "
                        "grid: see numpy.show_runtime() for its SIMD "
                        "dispatch")
