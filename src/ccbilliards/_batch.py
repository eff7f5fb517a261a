"""Batched collision engine: many rays advanced together in numpy.

Vectorised copies of ``_kernels.boundary_embed``, the ray-side root
(``ray_side_hit`` in ``tests/kernel_oracle.py``) and the scalar trace
loops of ``_collision_loops`` (``_trace_plane``, ``_trace_sphere``,
``_trace_hyperbolic``) for N boundary states at once, written once for
all three curvatures.  Each bounce solves the ray-side root over the
(N, nsides) grid, picks the first hit per ray, applies the scalar loop's
vertex, grazing and clamp logic as a per-ray status mask, and compacts
the arrays down to the rays still live.

The branch logic is the scalar loops': on equal t the lowest side index
wins, the sphere takes the first of the roots t0 + m pi past tmin that
lands in the pad window, the start vertex is tested before the end vertex.
Dot products are written as component sums in the scalar order (no ``@``
or ``einsum``, whose BLAS/FMA paths round differently).  numpy's
transcendental functions may still differ from ``math``'s by an ulp, so a
row agrees with the scalar trace closely but not bit for bit.

The scalar loops stay the N = 1 engine (this one is 30-55x slower for a
single ray of 20-50 bounces) and this module's test oracle.  Vectors are
tuples (x, y, z) of equally shaped arrays.
"""

import math

import numpy as np

# mdot and perp take tuples of arrays as they take float triples
from ._kernels import (INF, STEP_ESCAPED, STEP_GRAZING, STEP_MAXLEN, STEP_OK,
                       STEP_VERTEX, mdot, perp)


def _cos_sin(k, t):
    if k == 1:
        return np.cos(t), np.sin(t)
    return np.cosh(t), np.sinh(t)


def _geodesic_point(k, p, v, t):
    if k == 0:
        # cos_0 = 1 exactly, so 1.0 * p drops out
        return p[0] + t * v[0], p[1] + t * v[1], p[2] + t * v[2]
    c, s = _cos_sin(k, t)
    return c * p[0] + s * v[0], c * p[1] + s * v[1], c * p[2] + s * v[2]


def _geodesic_dir(k, p, v, t):
    if k == 0:
        return v[0], v[1], np.zeros_like(v[0])
    c, s = _cos_sin(k, t)
    ks = -k * s
    return ks * p[0] + c * v[0], ks * p[1] + c * v[1], ks * p[2] + c * v[2]


def _renorm_point(k, p):
    if k == 1:
        n = np.sqrt(p[0] ** 2 + p[1] ** 2 + p[2] ** 2)
    elif k == -1:
        n = np.sqrt(p[2] ** 2 - p[0] ** 2 - p[1] ** 2)
    else:
        return p[0], p[1], np.ones_like(p[0])
    return p[0] / n, p[1] / n, p[2] / n


def _renorm_tangent(k, p, v):
    if k == 0:
        n = np.hypot(v[0], v[1])
        return v[0] / n, v[1] / n, np.zeros_like(v[0])
    c = mdot(k, v, p)
    if k == 1:
        o = (v[0] - c * p[0], v[1] - c * p[1], v[2] - c * p[2])
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


def _gather(vec, j):
    return tuple(x[j] for x in vec)


def _boundary_embed(k, a, u, s, psi):
    bp = _renorm_point(k, _geodesic_point(k, a, u, s))
    w = _renorm_tangent(k, bp, _geodesic_dir(k, a, u, s))
    e2 = perp(k, bp, w)
    c = np.cos(psi)
    sn = np.sin(psi)
    d = (c * w[0] + sn * e2[0], c * w[1] + sn * e2[1], c * w[2] + sn * e2[2])
    return bp, _renorm_tangent(k, bp, d)


def _side_hits(k, sides, p, v, tmin, pad):
    """(t, s) of every ray against every side, shape (N, nsides).

    t is INF where the oracle's ``ray_side_hit`` would report no crossing.
    """
    sa, su, sn, sl = sides
    p = tuple(x[:, None] for x in p)
    v = tuple(x[:, None] for x in v)
    a = mdot(k, sn, p)
    b = mdot(k, sn, v)
    if k == 0:
        t = -a / b
        ok = (np.abs(b) >= 1e-15) & (t > tmin)
        q = _geodesic_point(0, p, v, t)
        s = (q[0] - sa[0]) * su[0] + (q[1] - sa[1]) * su[1]
        ok &= (s >= -pad) & (s <= sl + pad)
    elif k == -1:
        t = np.arctanh(-a / b)
        ok = (np.abs(b) > np.abs(a)) & (t > tmin)
        q = _geodesic_point(-1, p, v, t)
        s = np.arcsinh(q[0] * su[0] + q[1] * su[1] - q[2] * su[2])
        ok &= (s >= -pad) & (s <= sl + pad)
    else:
        # roots repeat every pi along the great circle: keep the first of
        # t0, t0 + pi, t0 + 2 pi that passes both tests
        t0 = np.arctan2(-a, b) % math.pi
        t = np.full(t0.shape, INF)
        s = np.zeros(t0.shape)
        ok = np.zeros(t0.shape, dtype=bool)
        live = ~((np.abs(a) < 1e-15) & (np.abs(b) < 1e-15))
        for m in range(3):
            tm = t0 + m * math.pi
            q = _geodesic_point(1, p, v, tm)
            sm = np.arctan2(q[0] * su[0] + q[1] * su[1] + q[2] * su[2],
                            q[0] * sa[0] + q[1] * sa[1] + q[2] * sa[2])
            take = live & ~ok & (tm > tmin) & (sm >= -pad) & (sm <= sl + pad)
            t = np.where(take, tm, t)
            s = np.where(take, sm, s)
            ok |= take
    # a nan t fails `t < best_t` in the scalar loop; drop it here too
    ok &= t < INF
    return np.where(ok, t, INF), s


def _step(k, sides, sv0, sv1, verts, p, v, tmin, tol_v, graze):
    """One bounce of the scalar trace loop for every ray: (status, side, s,
    psi, flight, vertex)."""
    sa, su, sn, sl = sides
    tgrid, sgrid = _side_hits(k, sides, p, v, tmin, tol_v)
    rows = np.arange(tgrid.shape[0])
    # argmin takes the first minimum: the lowest side index wins a tie
    j = np.argmin(tgrid, axis=1)
    t = tgrid[rows, j]
    s = sgrid[rows, j]
    status = np.full(rows.shape, STEP_OK, dtype=np.int64)
    vertex = np.full(rows.shape, -1, dtype=np.int64)
    status[t >= INF] = STEP_ESCAPED
    j = np.where(status == STEP_ESCAPED, 0, j)

    q = _renorm_point(k, _geodesic_point(k, p, v, t))
    i0 = sv0[j]
    i1 = sv1[j]
    at0 = _distance(k, q, tuple(verts[i0, c] for c in range(3))) < tol_v
    at1 = _distance(k, q, tuple(verts[i1, c] for c in range(3))) < tol_v
    live = status == STEP_OK
    hit0 = live & at0
    hit1 = live & ~at0 & at1
    status[hit0 | hit1] = STEP_VERTEX
    vertex[hit0] = i0[hit0]
    vertex[hit1] = i1[hit1]

    w = _renorm_tangent(k, q, _geodesic_dir(k, p, v, t))
    if k == 0:
        d0 = su[0][j]
        d1 = su[1][j]
        c2 = w[0] * d0 + w[1] * d1
        r = (2.0 * c2 * d0 - w[0], 2.0 * c2 * d1 - w[1], np.zeros_like(c2))
    else:
        nj = _gather(sn, j)
        c2 = mdot(k, w, nj)
        r = (w[0] - 2.0 * c2 * nj[0], w[1] - 2.0 * c2 * nj[1],
             w[2] - 2.0 * c2 * nj[2])
    r = _renorm_tangent(k, q, r)
    sd = _geodesic_dir(k, _gather(sa, j), _gather(su, j), s)
    sd = _renorm_tangent(k, q, sd)
    det = (q[0] * (sd[1] * r[2] - sd[2] * r[1])
           - q[1] * (sd[0] * r[2] - sd[2] * r[0])
           + q[2] * (sd[0] * r[1] - sd[1] * r[0]))
    psi = np.arctan2(det, mdot(k, sd, r))
    grazing = (psi < graze) | (psi > math.pi - graze)
    status[(status == STEP_OK) & grazing] = STEP_GRAZING
    ok = status == STEP_OK
    s = np.where(ok, np.minimum(np.maximum(s, 0.0), sl[j]), s)
    return status, j, s, psi, t, vertex


def trace_states(k, sa, su, sn, sl, sv0, sv1, verts, side0, s0, psi0,
                 nmax, maxlen, tmin, tol_v, graze):
    """Vectorised ``trace_orbit`` over the boundary states (side0, s0, psi0).

    Returns (n_done, status, vertex, labels, svals, psis, flens, length):
    per-ray arrays, and (N, nmax) bounce arrays whose rows are filled up
    to n_done (0-based labels, -1 past the end; nan floats past the end).
    vertex is 0-based on STEP_VERTEX, else -1.
    """
    sa, su, sn, sl, sv0, sv1, verts = (np.asarray(x) for x in
                                       (sa, su, sn, sl, sv0, sv1, verts))
    nray = side0.shape[0]
    n_done = np.full(nray, nmax, dtype=np.int64)
    status = np.full(nray, STEP_OK, dtype=np.int64)
    vertex = np.full(nray, -1, dtype=np.int64)
    labels = np.full((nray, nmax), -1, dtype=np.int64)
    svals = np.full((nray, nmax), np.nan)
    psis = np.full((nray, nmax), np.nan)
    flens = np.full((nray, nmax), np.nan)
    length = np.zeros(nray)
    if nray == 0 or nmax == 0:
        return n_done, status, vertex, labels, svals, psis, flens, length
    sides = tuple(tuple(arr[:, c] for c in range(3)) for arr in (sa, su, sn))
    sides += (sl,)
    with np.errstate(all="ignore"):
        p, v = _boundary_embed(k, _gather(sides[0], side0),
                               _gather(sides[1], side0), s0, psi0)
        idx = np.arange(nray)          # rays still live, in input order
        total = np.zeros(nray)
        for i in range(nmax):
            st, j, s, psi, tf, vtx = _step(k, sides, sv0, sv1, verts, p, v,
                                           tmin, tol_v, graze)
            ok = st == STEP_OK
            hit = st == STEP_VERTEX
            done = idx[~ok]
            n_done[done] = i
            status[done] = st[~ok]
            length[done] = total[~ok]
            vertex[idx[hit]] = vtx[hit]
            length[idx[hit]] += tf[hit]
            rows = idx[ok]
            labels[rows, i] = j[ok]
            svals[rows, i] = s[ok]
            psis[rows, i] = psi[ok]
            flens[rows, i] = tf[ok]
            total = total + tf
            over = ok & (total > maxlen)
            n_done[idx[over]] = i + 1
            status[idx[over]] = STEP_MAXLEN
            length[idx[over]] = total[over]
            live = ok & ~over
            idx, total = idx[live], total[live]
            if idx.size == 0 or i + 1 == nmax:
                break
            j = j[live]
            p, v = _boundary_embed(k, _gather(sides[0], j), _gather(sides[1], j),
                                   s[live], psi[live])
        length[idx] = total
    return n_done, status, vertex, labels, svals, psis, flens, length
