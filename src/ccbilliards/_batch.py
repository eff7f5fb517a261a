"""Batched collision engine: many rays advanced together in numpy.

Vectorised copies of ``_kernels.boundary_embed``, the ray-side root
(``ray_side_hit`` in ``tests/kernel_oracle.py``) and the scalar trace
loops of ``_collision_loops`` (``_trace_plane``, ``_trace_sphere``,
``_trace_hyperbolic``) for N boundary states at once, written once for
all three curvatures.  Each bounce solves the ray-side root over the
(N, nsides) grid, picks the first hit per ray, applies the scalar loop's
escape, vertex and grazing stops as one mask of the rays that go on,
clamps s, and compacts the arrays down to those rays.  It records what
the periodic-orbit sweep reads (side label, s and psi per bounce), not
stop reasons, vertex ids or flights.

The branch logic is the scalar loops': on equal t the lowest side index
wins, the sphere takes the first of the roots t0 + m pi past tmin that
lands in the pad window, the start vertex is tested before the end vertex.
Dot products are written as component sums in the scalar order (no ``@``
or ``einsum``, whose BLAS/FMA paths round differently).  numpy's
transcendental functions may still differ from ``math``'s by an ulp, so a
row agrees with the scalar trace closely but not bit for bit.

The scalar loops stay the N = 1 engine (this one is 20-50x slower for a
single ray of 20-50 bounces) and this module's test oracle.  Its one
caller is ``collision.trace_many``, which ``unfolding.find_periodic``
feeds the (side, s, psi) arrays of its sweep.  Vectors are tuples
(x, y, z) of equally shaped arrays.
"""

import math

import numpy as np

# mdot and perp take tuples of arrays as they take float triples
from ._kernels import INF, mdot, perp


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
    """One bounce of the scalar trace loop for every ray: (ok, side, s,
    psi), ok False where it stops the ray (escape, vertex or grazing)."""
    sa, su, sn, sl = sides
    tgrid, sgrid = _side_hits(k, sides, p, v, tmin, tol_v)
    rows = np.arange(tgrid.shape[0])
    # argmin takes the first minimum: the lowest side index wins a tie,
    # and a ray with no hit (a row of INF) gets side 0
    j = np.argmin(tgrid, axis=1)
    t = tgrid[rows, j]
    s = sgrid[rows, j]

    q = _renorm_point(k, _geodesic_point(k, p, v, t))
    at0 = _distance(k, q, tuple(verts[sv0[j], c] for c in range(3))) < tol_v
    at1 = _distance(k, q, tuple(verts[sv1[j], c] for c in range(3))) < tol_v

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
    ok = (t < INF) & ~at0 & ~at1 & ~grazing
    return ok, j, np.minimum(np.maximum(s, 0.0), sl[j]), psi


def trace_states(k, sa, su, sn, sl, sv0, sv1, verts, side0, s0, psi0,
                 nmax, tmin, tol_v, graze):
    """Vectorised ``trace_orbit`` over the boundary states (side0, s0, psi0).

    side0 holds 0-based labels.  Returns the (N, nmax) arrays (labels,
    svals, psis): row r holds the bounces ``trace_orbit`` records for
    state r, as 0-based labels, then -1 and nan floats past the bounce
    where the scalar loop stops the ray.
    """
    sa, su, sn, sl, sv0, sv1, verts = (np.asarray(x) for x in
                                       (sa, su, sn, sl, sv0, sv1, verts))
    nray = side0.shape[0]
    labels = np.full((nray, nmax), -1, dtype=np.int64)
    svals = np.full((nray, nmax), np.nan)
    psis = np.full((nray, nmax), np.nan)
    sides = tuple(tuple(arr[:, c] for c in range(3)) for arr in (sa, su, sn))
    sides += (sl,)
    with np.errstate(all="ignore"):
        p, v = _boundary_embed(k, _gather(sides[0], side0),
                               _gather(sides[1], side0), s0, psi0)
        idx = np.arange(nray)          # rays still live, in input order
        for i in range(nmax):
            ok, j, s, psi = _step(k, sides, sv0, sv1, verts, p, v,
                                  tmin, tol_v, graze)
            idx, j, s, psi = idx[ok], j[ok], s[ok], psi[ok]
            labels[idx, i] = j
            svals[idx, i] = s
            psis[idx, i] = psi
            if idx.size == 0 or i + 1 == nmax:
                break
            p, v = _boundary_embed(k, _gather(sides[0], j),
                                   _gather(sides[1], j), s, psi)
    return labels, svals, psis
