"""Batched collision engine: many rays advanced together in numpy.

The scalar trace loops of ``_collision_loops`` (``_trace_plane``,
``_trace_sphere``, ``_trace_hyperbolic``) vectorised over N boundary
states, for the periodic-orbit sweep.  Each bounce takes the crossing
time of each of the n rays still live with every side over an (n,
nsides) grid, picks each ray's nearest crossing, computes the arc
parameter, the hit point and the cos/sin (cosh/sinh) of t on the n rays
for that side only, applies the scalar loop's escape, vertex and grazing
stops as one mask of the rays that go on, clamps s, and compacts the rays
down to those.  It gives what the sweep reads (side label, s and psi
per bounce), not stop reasons, vertex ids or flights: ``trace_columns``
yields them one bounce at a time.

The grids are same-shape contiguous arrays, so numpy's inner loops run
over the whole grid, not over one row of nsides: ``trace_columns`` tiles
the side functionals once per call as (block, nsides) arrays, a bounce takes
their first n rows (compaction keeps the rays in order, and every row of
a tile is the same), and repeats the rays' points and directions once.
A ray starts its next bounce from the normalised hit point and the
reflected unit direction that this bounce computed; only the start
states, and rows whose s was clamped, are embedded from (s, psi), as the
scalar loops embed every bounce.

The pick is the scalar loops': the least (t, side) over the crossings past
``FLIGHT_MIN`` that land in the window padded by ``VERTEX_TOL`` (the pad
of the loops' side records), and a hit is tested against the side's
vertices only within ``VERTEX_TOL + VERTEX_WINDOW`` of a side end (the
proofs are in the ``_collision_loops`` docstring).  The grid holds each
side's first crossing past FLIGHT_MIN, on the sphere its first root t0
when that is past it; ``argmin`` picks the least, the lowest side on a
tie.  When that crossing lands in its window, and on the sphere lies
below pi (a side's later roots t0 + pi are never below pi), it is the
pick.  Where it misses (a reflex corner, a hole, a hit past the pad) a
later crossing may win, so those rows run ``_side_hits``: the oracle's
one loop over the roots of every side, which the built-in tables' sweeps
need for no row.

Dot products are written as component sums in the scalar order (no ``@``
or ``einsum``, whose BLAS/FMA paths round differently).  The engine gives
the bits of the oracle ``batch_trace_states`` in
``tests/kernel_oracle.py``, as long as numpy's transcendental functions
give an element the same bits on an (n,) array of gathered operands as
on the grid (``test_gathered_arc_matches_grid`` in ``tests/test_batch.py``
checks this; which SIMD loops numpy dispatches to is shown by
``numpy.show_runtime()``).  A row agrees with the scalar trace closely
but not bit for bit: it goes on from the carried hit point and direction
where the scalar loops embed (s, psi) again, numpy's transcendental
functions may differ from ``math``'s by an ulp, and numpy computes an
array's ``x ** 2`` as ``x * x``, which rounds differently from the
scalar loops' Python ``x ** 2`` (``_renorm_point`` and ``_distance``
keep ``** 2``, the oracle's operations).

The scalar loops stay the N = 1 engine: for one ray of 20-50 bounces
this one takes 18-26x as long as ``collision.trace`` (square, theta = 1
triangle and pentagon, 2 vCPUs).  Its one caller is the periodic sweep of
``unfolding``, in blocks of ``SWEEP_BLOCK`` states that ``_sweep_states``
draws in range, so the engine checks no state.
"""

import math

import numpy as np

from ._collision_loops import (FLIGHT_MIN, GRAZE_TOL, INF, VERTEX_TOL,
                               VERTEX_WINDOW)
# mdot and perp take tuples of arrays as they take float triples
from ._kernels import mdot, perp


def _cos_sin(k, t):
    if k == 1:
        return np.cos(t), np.sin(t)
    return np.cosh(t), np.sinh(t)


def _renorm_point(k, p):
    """p scaled back onto the model surface (k = 1 or -1)."""
    if k == 1:
        n = np.sqrt(p[0] ** 2 + p[1] ** 2 + p[2] ** 2)
    else:
        n = np.sqrt(p[2] ** 2 - p[0] ** 2 - p[1] ** 2)
    return p[0] / n, p[1] / n, p[2] / n


def _renorm_tangent(k, p, v):
    """v made tangent at p (k = 1 or -1) and normalised."""
    c = mdot(k, v, p)
    if k == 1:
        o = (v[0] - c * p[0], v[1] - c * p[1], v[2] - c * p[2])
        # a sum of squares is never below +0, so it needs no abs
        n = np.sqrt(mdot(k, o, o))
    else:
        o = (v[0] + c * p[0], v[1] + c * p[1], v[2] + c * p[2])
        n = np.sqrt(np.abs(mdot(k, o, o)))
    return o[0] / n, o[1] / n, o[2] / n


def _distance(k, a, b):
    if k == 1:
        ch = np.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2
                     + (a[2] - b[2]) ** 2)
        return 2.0 * np.arcsin(np.minimum(0.5 * ch, 1.0))
    if k == -1:
        d0 = a[0] - b[0]
        d1 = a[1] - b[1]
        d2 = a[2] - b[2]
        q = np.maximum(d0 * d0 + d1 * d1 - d2 * d2, 0.0)
        return 2.0 * np.arcsinh(0.5 * np.sqrt(q))
    return np.hypot(a[0] - b[0], a[1] - b[1])


# rows of _Sides.table: start point, start tangent, functional (3 each),
# length, length - near, start and end vertex (3 each), plane unit tangent
_A, _U, _N, _SL, _SL_NEAR, _W0, _W1, _T = 0, 3, 6, 9, 10, 11, 14, 17


class _Sides:
    """A polygon's side constants as the engine reads them.

    ``table`` holds one row per constant over the sides (the rows above,
    with near = VERTEX_TOL + VERTEX_WINDOW), so that ``table[:, j]`` gathers
    them for the sides j that the rays hit.  ``tiles`` holds what the grid
    reads, the functional, as three (N, nsides) arrays, and ``grid_base``
    the flat index of each grid row's first cell.
    """

    def __init__(self, k, sa, su, sn, sl, sv0, sv1, verts, nray):
        sa, su, sn, sl, verts = (np.asarray(x, dtype=float)
                                 for x in (sa, su, sn, sl, verts))
        table = np.array([*sa.T, *su.T, *sn.T, sl,
                          sl - (VERTEX_TOL + VERTEX_WINDOW),
                          *verts[np.asarray(sv0)].T,
                          *verts[np.asarray(sv1)].T])
        if k == 0:
            # geodesic_dir on the plane is u, whatever s: the side tangent
            # at a start state, normalised once
            h = np.hypot(table[_U], table[_U + 1])
            table = np.vstack((table, table[_U] / h, table[_U + 1] / h))
        self.table = table
        self.nsides = nsides = sl.shape[0]
        self.tiles = np.tile(table[_N:_N + 3, None, :], (1, nray, 1))
        self.grid_base = np.arange(nray) * nsides


def _crossings(k, sn, p, v, tmin):
    """(t, ok, live) over the (n, nsides) grid: each ray's crossing time t
    with each side, on the sphere its first root t0 in [0, pi], and ok
    where t is past tmin on a side the ray crosses.  On the sphere live
    marks the sides whose great circle the ray does not run along (the
    later roots need it); elsewhere it is None."""
    live = None
    if k == 0:
        # p[2] = 1 and v[2] = 0 on the plane; b is exact but for the sign
        # of a zero, and |b| < 1e-15 rejects a zero b anyway
        a = sn[0] * p[0] + sn[1] * p[1] + sn[2]
        b = sn[0] * v[0] + sn[1] * v[1]
        t = -a / b
        ok = (np.abs(b) >= 1e-15) & (t > tmin)
    elif k == -1:
        a = mdot(k, sn, p)
        b = mdot(k, sn, v)
        t = np.arctanh(-a / b)
        ok = (np.abs(b) > np.abs(a)) & (t > tmin)
    else:
        a = mdot(k, sn, p)
        b = mdot(k, sn, v)
        live = ~((np.abs(a) < 1e-15) & (np.abs(b) < 1e-15))
        t = np.arctan2(-a, b) % math.pi
        ok = (t > tmin) & live
    return t, ok, live


def _arc(k, g, p, v, t):
    """(s, ct, st, q) of the crossings at t of the rays (p, v) with the
    sides whose start point and tangent are g's rows _A and _U (the table,
    broadcast against the rays, or a gather of it): the arc parameter, the
    cos/sin (cosh/sinh) of t and the unnormalised hit point.  On the plane
    ct and st are None and q holds (x, y)."""
    if k == 0:
        q = (p[0] + t * v[0], p[1] + t * v[1])
        return ((q[0] - g[_A]) * g[_U] + (q[1] - g[_A + 1]) * g[_U + 1],
                None, None, q)
    ct, st = _cos_sin(k, t)
    q = (ct * p[0] + st * v[0], ct * p[1] + st * v[1],
         ct * p[2] + st * v[2])
    u = g[_U:_U + 3]
    if k == 1:
        return np.arctan2(mdot(k, q, u), mdot(k, q, g[_A:_A + 3])), ct, st, q
    return np.arcsinh(mdot(k, q, u)), ct, st, q


def _side_hits(k, table, p, v, tmin, pad):
    """First side crossing of the rays (p, v), (m,) arrays broadcast
    against the sides' ``table`` as in the oracle ``batch_side_hits``: the
    full search, which ``_bounce`` runs where the nearest crossing misses.

    Returns per ray [j, t, s, ct, st, *q]: the side, t (INF where the
    scalar loop finds no crossing, with j = 0 and the rest 0.0), its arc
    parameter s, the cos/sin (cosh/sinh) ct, st of t and the unnormalised
    hit point q.  On the plane ct and st are None and q holds (x, y).
    """
    p = tuple(x[:, None] for x in p)
    v = tuple(x[:, None] for x in v)
    t0, ok, live = _crossings(k, table[_N:_N + 3], p, v, tmin)
    # (t, s, ct, st, *q) of each side's first root that passes: t0, or on
    # the sphere, whose roots repeat every pi, t0 + pi or t0 + 2 pi
    hit = [INF] + [0.0] * (3 + len(p))
    for m in range(3 if k == 1 else 1):
        t = t0
        if m:
            t = t0 + m * math.pi
            ok = (t > tmin) & live & (hit[0] == INF)
        s, ct, st, q = _arc(k, table, p, v, t)
        # the generic engine's t < INF
        take = ok & (s >= -pad) & (s <= table[_SL] + pad) & (t < INF)
        hit = [x if x is None else np.where(take, x, h)
               for x, h in zip((t, s, ct, st) + q, hit)]
    # argmin takes the first minimum: the lowest side index wins a tie,
    # and a ray with no hit (a row of INF) gets side 0
    j = np.argmin(hit[0], axis=1)
    rows = np.arange(j.size)
    return [j] + [x if x is None else x[rows, j] for x in hit]


def _embed(k, g, s, psi):
    """``boundary_embed`` of (s, psi) on the sides whose constants g
    gathers.  Returns (p, v), on the plane as (x, y) pairs: p[2] = 1 and
    v[2] = 0."""
    c, sn = np.cos(psi), np.sin(psi)
    if k == 0:
        t0, t1 = g[_T], g[_T + 1]
        d0 = c * t0 - sn * t1
        d1 = c * t1 + sn * t0
        h = np.hypot(d0, d1)
        return (g[_A] + s * g[_U], g[_A + 1] + s * g[_U + 1]), (d0 / h,
                                                                d1 / h)
    a0, a1, a2, u0, u1, u2 = g[_A:_A + 6]
    cs, ss = _cos_sin(k, s)
    p = _renorm_point(k, (cs * a0 + ss * u0, cs * a1 + ss * u1,
                          cs * a2 + ss * u2))
    ks = -ss if k == 1 else ss
    w = _renorm_tangent(k, p, (ks * a0 + cs * u0, ks * a1 + cs * u1,
                               ks * a2 + cs * u2))
    e = perp(k, p, w)
    d = (c * w[0] + sn * e[0], c * w[1] + sn * e[1], c * w[2] + sn * e[2])
    return p, _renorm_tangent(k, p, d)


def _outgoing(k, g, p, v, s, ct, st, q):
    """(q, psi, r) at the hits s on the sides g, from the rays (p, v) and
    the hits' cos/sin (cosh/sinh) ct, st and unnormalised points q: the
    normalised hit point, the outgoing angle and the reflected unit
    direction.  Only the reflection is normalised: psi's atan2 takes the
    side's tangent at the hit unnormalised."""
    if k == 0:
        # v is a unit vector: a start direction or the last reflection
        d0, d1 = g[_U], g[_U + 1]
        c2 = 2.0 * (v[0] * d0 + v[1] * d1)
        r0 = c2 * d0 - v[0]
        r1 = c2 * d1 - v[1]
        h = np.hypot(r0, r1)
        r0 = r0 / h
        r1 = r1 / h
        # the generic determinant at (x, y, 1) with zero z-components adds
        # a signed zero, which moves psi only on a grazing stop
        return q, np.arctan2(d0 * r1 - d1 * r0, d0 * r0 + d1 * r1), (r0, r1)
    q = _renorm_point(k, q)
    ks = -st if k == 1 else st
    w = (ks * p[0] + ct * v[0], ks * p[1] + ct * v[1], ks * p[2] + ct * v[2])
    n0, n1, n2 = g[_N:_N + 3]
    c2 = 2.0 * mdot(k, w, (n0, n1, n2))
    r = _renorm_tangent(k, q, (w[0] - c2 * n0, w[1] - c2 * n1,
                               w[2] - c2 * n2))
    cs, ss = _cos_sin(k, s)
    ks = -ss if k == 1 else ss
    a0, a1, a2, u0, u1, u2 = g[_A:_A + 6]
    sd = (ks * a0 + cs * u0, ks * a1 + cs * u1, ks * a2 + cs * u2)
    det = (q[0] * (sd[1] * r[2] - sd[2] * r[1])
           - q[1] * (sd[0] * r[2] - sd[2] * r[0])
           + q[2] * (sd[0] * r[1] - sd[1] * r[0]))
    return q, np.arctan2(det, mdot(k, sd, r)), r


def _bounce(k, sides, p, v):
    """One bounce of the scalar trace loop for the n live rays (p, v):
    (ok, j, s, psi, q, r), ok False where it stops the ray (escape, vertex
    or grazing), j the side hit, s its unclamped arc parameter, q the
    normalised hit point and r the reflected unit direction."""
    n = p[0].size
    nsides = sides.nsides
    grid = np.repeat(np.concatenate(p + v), nsides).reshape(-1, n, nsides)
    half = len(p)
    t, ok, _ = _crossings(k, sides.tiles[:, :n], grid[:half], grid[half:],
                          FLIGHT_MIN)
    tgrid = np.where(ok, t, INF)
    # argmin takes the first minimum: the lowest side index wins a tie
    j = np.argmin(tgrid, axis=1)
    t = tgrid.ravel()[sides.grid_base[:n] + j]
    g = sides.table[:, j]
    s, ct, st, q = _arc(k, g, p, v, t)
    # the nearest crossing is the scalar loops' hit when it lands in its
    # window; a sphere root t0 >= pi may lose to a later root of another
    # side, t0 + pi
    lim = math.pi if k == 1 else INF
    miss = np.flatnonzero(~((t < lim) & (s >= -VERTEX_TOL)
                            & (s <= g[_SL] + VERTEX_TOL)))
    if miss.size:
        j[miss], *hits = _side_hits(k, sides.table, tuple(x[miss] for x in p),
                                    tuple(x[miss] for x in v), FLIGHT_MIN,
                                    VERTEX_TOL)
        g[:, miss] = sides.table[:, j[miss]]
        for x, y in zip((t, s, ct, st) + q, hits):
            if x is not None:
                x[miss] = y
    q, psi, r = _outgoing(k, g, p, v, s, ct, st, q)
    ok = (t < INF) & ~((psi < GRAZE_TOL) | (psi > math.pi - GRAZE_TOL))
    # between the bands near the side ends no vertex is within VERTEX_TOL
    near = VERTEX_TOL + VERTEX_WINDOW
    test = np.flatnonzero(~((near < s) & (s < g[_SL_NEAR])))
    if test.size:
        qt = tuple(x[test] for x in q)
        gt = g[:, test]
        ok[test] &= ~((_distance(k, qt, gt[_W0:_W0 + 3]) < VERTEX_TOL)
                      | (_distance(k, qt, gt[_W1:_W1 + 3]) < VERTEX_TOL))
    return ok, j, s, psi, q, r


def trace_columns(k, sa, su, sn, sl, sv0, sv1, verts, side, s, psi, nmax,
                  block):
    """Vectorised ``trace_orbit`` over the boundary states (side, s, psi)
    of the polygon whose ``kernel_pack()[:7]`` is (sa, ..., verts), one
    bounce at a time.

    side holds 1-based labels and s, psi floats; no state is checked, so
    each must be one that ``collision.trace`` accepts.  A generator:
    bounce i yields (idx, labels, s, psi), the input rows of the rays still
    live after it, in input order, their 1-based sides hit, clamped s and
    psi.  It stops after nmax bounces, or after the first bounce that
    leaves no ray live.  Each bounce runs under its own ``np.errstate``, so
    none is open while the caller holds a column.

    The rays run in blocks of ``block`` input rows, one grid per block, so
    the grids hold at most that many rows; a ray's bits do not depend on
    its block.  Between bounces a block keeps for each live ray only its
    row, the point it starts from and its unit direction.
    """
    nray = side.shape[0]
    if nray == 0 or nmax == 0:
        return
    sides = _Sides(k, sa, su, sn, sl, sv0, sv1, verts, min(nray, block))
    with np.errstate(all="ignore"):
        blocks = [(np.arange(lo, min(lo + block, nray)),
                   *_embed(k, sides.table[:, side[lo:lo + block] - 1],
                           s[lo:lo + block], psi[lo:lo + block]))
                  for lo in range(0, nray, block)]
    for _ in range(nmax):
        # in place, so that no more than one block's old state is live
        with np.errstate(all="ignore"):
            for i, b in enumerate(blocks):
                blocks[i] = _advance(k, sides, *b)
        if len(blocks) == 1:
            idx, j, sc, ps = blocks[0][:4]
        else:
            idx, j, sc, ps = (np.concatenate(x)
                              for x in zip(*(b[:4] for b in blocks)))
        yield idx, j + 1, sc, ps
        blocks = [(b[0], *b[4:]) for b in blocks if b[0].size]
        if not blocks:
            return


def _advance(k, sides, idx, p, v):
    """One bounce of a block's live rays: their input rows idx, start
    points p and unit directions v.  Returns the rays that go on as (idx,
    j, s, psi, p, v), with their sides hit, clamped s and psi; a ray goes
    on from its hit, or from the clamped state where s was clamped."""
    ok, j, s, psi, p, v = _bounce(k, sides, p, v)
    # most bounces stop no ray; _bounce's arrays are fresh, so the clamp
    # below may write into them whether or not they were compacted
    if not ok.all():
        idx, j, s, psi = idx[ok], j[ok], s[ok], psi[ok]
        p, v = (tuple(x[ok] for x in y) for y in (p, v))
    length = sides.table[_SL, j]
    sc = np.minimum(np.maximum(s, 0.0), length)
    redo = np.flatnonzero(sc != s)
    if redo.size:
        pr, vr = _embed(k, sides.table[:, j[redo]], sc[redo], psi[redo])
        for x, y in zip(p + v, pr + vr):
            x[redo] = y
    return idx, j, sc, psi, p, v
