"""The generic scalar collision step and trace loop, and the diagonal
search on ``trace_ray``, kept as test oracles.

The package traces with one straight-line loop per curvature
(``_collision_loops._trace_plane``, ``_trace_sphere``,
``_trace_hyperbolic``).  This is the code they replaced: one step that
calls the generic geometry helpers, each branching on k, and one loop
around it.  The per-curvature loops must reproduce it bit for bit
(``test_kernels.py``).

``generalized_diagonals`` is the diagonal search as it was before its rays
went through ``collision._vertex_shooter``: a numpy launch per angle and a
``trace_ray`` per ray, whose ``TraceResult`` gives the signature.  The
package's search must find the same list bit for bit
(``test_collision.py``).
"""

import math

import numpy as np

from ccbilliards import collision as C

from ccbilliards._kernels import (INF, STEP_ESCAPED, STEP_GRAZING, STEP_MAXLEN,
                                  STEP_OK, STEP_VERTEX, boundary_embed,
                                  distance, geodesic_dir, geodesic_point,
                                  log_map, mdot, perp, ray_side_hit,
                                  renorm_point, renorm_tangent, signed_angle)


def step_ray(k, sa, su, sn, sl, sv0, sv1, verts, p, v, tmin, tol_v, graze):
    """One collision of the ray (p, v) with the polygon boundary.

    Returns (status, side, s, psi, flight, vertex).  psi is the outgoing
    angle from the hit side's forward tangent; vertex is the 0-based vertex
    id on STEP_VERTEX, else -1.
    """
    best_t = INF
    best_j = -1
    best_s = 0.0
    for j in range(len(sl)):
        t, s = ray_side_hit(k, p, v, sa[j], su[j], sn[j], sl[j], tmin, tol_v)
        if t < best_t:
            best_t = t
            best_j = j
            best_s = s
    if best_j < 0:
        return STEP_ESCAPED, -1, 0.0, 0.0, 0.0, -1
    q = renorm_point(k, geodesic_point(k, p, v, best_t))
    i0 = sv0[best_j]
    i1 = sv1[best_j]
    if distance(k, q, verts[i0]) < tol_v:
        return STEP_VERTEX, best_j, best_s, 0.0, best_t, i0
    if distance(k, q, verts[i1]) < tol_v:
        return STEP_VERTEX, best_j, best_s, 0.0, best_t, i1
    w_in = renorm_tangent(k, q, geodesic_dir(k, p, v, best_t))
    if k == 0:
        sd0 = su[best_j]
        c2 = w_in[0] * sd0[0] + w_in[1] * sd0[1]
        r = (2.0 * c2 * sd0[0] - w_in[0], 2.0 * c2 * sd0[1] - w_in[1], 0.0)
    else:
        nj = sn[best_j]
        c2 = mdot(k, w_in, nj)
        r = (w_in[0] - 2.0 * c2 * nj[0], w_in[1] - 2.0 * c2 * nj[1],
             w_in[2] - 2.0 * c2 * nj[2])
    r = renorm_tangent(k, q, r)
    sd = renorm_tangent(k, q, geodesic_dir(k, sa[best_j], su[best_j], best_s))
    psi = signed_angle(k, q, sd, r)
    if psi < graze or psi > math.pi - graze:
        return STEP_GRAZING, best_j, best_s, psi, best_t, -1
    s1 = best_s
    if s1 < 0.0:
        s1 = 0.0
    if s1 > sl[best_j]:
        s1 = sl[best_j]
    return STEP_OK, best_j, s1, psi, best_t, -1


def trace_loop(k, sa, su, sn, sl, sv0, sv1, verts,
               p, v, nmax, maxlen, tmin, tol_v, graze,
               labels, svals, psis, flens):
    """Iterate the collision map from the interior ray (p, v).

    Fills per-bounce buffers and returns (n_done, status, vertex, length);
    length includes the final leg on a vertex hit.
    """
    pt = (float(p[0]), float(p[1]), float(p[2]))
    dv = (float(v[0]), float(v[1]), float(v[2]))
    maxlen = float(maxlen)
    tmin = float(tmin)
    tol_v = float(tol_v)
    graze = float(graze)
    total = 0.0
    for i in range(nmax):
        st, j, s, psi, tf, vtx = step_ray(
            k, sa, su, sn, sl, sv0, sv1, verts, pt, dv, tmin, tol_v, graze)
        if st == STEP_VERTEX:
            return i, STEP_VERTEX, vtx, total + tf
        if st != STEP_OK:
            return i, st, -1, total
        labels[i] = j
        svals[i] = s
        psis[i] = psi
        flens[i] = tf
        total += tf
        if total > maxlen:
            return i + 1, STEP_MAXLEN, -1, total
        if i + 1 < nmax:
            pt, dv = boundary_embed(k, sa[j], su[j], s, psi)
    return nmax, STEP_OK, -1, total


def trace_orbit(k, sa, su, sn, sl, sv0, sv1, verts,
                side0, s0, psi0, nmax, maxlen, tmin, tol_v, graze,
                labels, svals, psis, flens):
    """Iterate the collision map from a boundary state (see trace_loop)."""
    p, v = boundary_embed(k, sa[side0], su[side0], float(s0), float(psi0))
    return trace_loop(k, sa, su, sn, sl, sv0, sv1, verts,
                      p, v, nmax, maxlen, tmin, tol_v, graze,
                      labels, svals, psis, flens)


def launch(poly, vi, alpha):
    """The ray from vertex vi at angle alpha, on numpy arrays."""
    d0, _ = C._vertex_frame(poly, vi)
    p = poly.vertices[vi]
    e2 = np.array(perp(poly.k, p, d0))
    d = math.cos(alpha) * d0 + math.sin(alpha) * e2
    return p, np.array(renorm_tangent(poly.k, p, d))


def diagonal_signature(tr):
    return (tuple(int(x) for x in tr.labels), tr.status, tr.vertex)


def record_if_diagonal(found, vi, alpha, tr, max_bounces, max_length):
    if tr.status != STEP_VERTEX or tr.n_done > max_bounces:
        return False
    if tr.length > max_length:
        return False
    seq = tuple(int(x) for x in tr.labels)
    start, end = vi + 1, int(tr.vertex)
    key = min((start, end, seq), (end, start, tuple(reversed(seq))))
    if key in found:
        return True
    found[key] = C.Diagonal(start, end, seq, float(tr.length), float(alpha))
    return True


def bisect_transition(found, poly, vi, a, b, sig_a, sig_b, nmax,
                      max_bounces, max_length, budget):
    stack = [(a, b, sig_a, sig_b, 0)]
    while stack:
        if budget[0] <= 0:
            return
        lo, hi, slo, shi, depth = stack.pop()
        if hi - lo < 1e-14 or depth > 60:
            continue
        mid = 0.5 * (lo + hi)
        pt, dv = launch(poly, vi, mid)
        budget[0] -= 1
        tr = C.trace_ray(poly, pt, dv, nmax, max_length)
        if record_if_diagonal(found, vi, mid, tr, max_bounces, max_length):
            continue
        sm = diagonal_signature(tr)
        if not C._same_branch(sm, slo):
            stack.append((lo, mid, slo, sm, depth + 1))
        if not C._same_branch(sm, shi):
            stack.append((mid, hi, sm, shi, depth + 1))


def generalized_diagonals(poly, max_bounces, max_length,
                          angles_per_vertex=10000):
    """The diagonal search with one ``trace_ray`` per ray."""
    found = {}
    margin = 10.0 * C.GRAZE_TOL
    nmax = max_bounces + 1
    for vi in range(poly.n_vertices):
        d0, theta = C._vertex_frame(poly, vi)
        p = poly.vertices[vi]
        alphas = set()
        for j in range(angles_per_vertex):
            alphas.add(theta * (j + 0.5) / angles_per_vertex)
        for wj, w in enumerate(poly.vertices):
            if wj == vi:
                continue
            d = distance(poly.k, p, w)
            if d < C.VERTEX_TOL or (poly.k == 1 and d > math.pi - 1e-12):
                continue
            a = signed_angle(poly.k, p, d0, log_map(poly.k, p, w))
            if margin < a < theta - margin:
                alphas.add(a)
        alphas = sorted(alphas)
        sigs = []
        for a in alphas:
            tr = C.trace_ray(poly, *launch(poly, vi, a), nmax, max_length)
            sigs.append(diagonal_signature(tr))
            record_if_diagonal(found, vi, a, tr, max_bounces, max_length)
        budget = [8 * angles_per_vertex]
        for i in range(len(alphas) - 1):
            if not C._same_branch(sigs[i], sigs[i + 1]):
                bisect_transition(found, poly, vi, alphas[i], alphas[i + 1],
                                  sigs[i], sigs[i + 1], nmax, max_bounces,
                                  max_length, budget)
    return sorted(found.values(),
                  key=lambda d: (d.length, d.start, d.end, d.sequence))
