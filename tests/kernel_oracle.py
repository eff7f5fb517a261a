"""The generic scalar collision step and trace loop, the diagonal search
on ``trace_ray``, the generic crossing loop and the Dormand-Prince
integrator on generic field calls, kept as test oracles.

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

``unfold_crossings`` is the crossing loop on the generic helpers that
``_collision_loops._cross_plane``, ``_cross_sphere`` and
``_cross_hyperbolic`` replaced, and ``rk45`` (with ``field_eval``,
``_dense_terms`` and ``_dense``) the integrator before its field was
picked once per run, its records went to Python lists and its exit
bisection stopped at the fixed point.  The package must give their
results bit for bit (``test_unfolding.py``, ``test_flow.py``).  The
oracle ``rk45`` carries the package's end-time rule: an accepted step
that lands past t1 records t1.
"""

import math

import numpy as np

from ccbilliards import collision as C

from ccbilliards._kernels import (FIELD_CHART_ARC, FIELD_POLAR, INF,
                                  RK_BUFFER_FULL, RK_DONE, RK_EXITED,
                                  RK_UNDERFLOW, STEP_ESCAPED, STEP_GRAZING,
                                  STEP_MAXLEN, STEP_OK, STEP_VERTEX,
                                  boundary_embed, cosk, distance,
                                  geodesic_dir, geodesic_point, log_map, mdot,
                                  perp, ray_side_hit, renorm_point,
                                  renorm_tangent, signed_angle, sink)


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


# ---------------------------------------------------------------------------
# crossing labels of the unfolded line
# ---------------------------------------------------------------------------

def unfold_crossings(k, sa, su, sn, sl, refl, p0, v0, nmax, tmin, pad, labels):
    """Crossing labels of the unfolded straight line, pulled back stepwise.

    refl holds one reflection matrix per side, as a tuple of three row
    tuples; matrices act on embedded 3-vectors for every curvature
    (homogeneous form when k = 0, where they also transport directions
    since those have zero last component).  Never touches boundary
    (s, psi) coordinates: independent route to the itinerary.
    """
    p = (float(p0[0]), float(p0[1]), float(p0[2]))
    v = (float(v0[0]), float(v0[1]), float(v0[2]))
    tmin = float(tmin)
    pad = float(pad)
    n_done = 0
    for m in range(nmax):
        best_t = INF
        best_j = -1
        for j in range(len(sl)):
            t, s = ray_side_hit(k, p, v, sa[j], su[j], sn[j], sl[j], tmin, pad)
            if t < best_t:
                best_t = t
                best_j = j
        if best_j < 0:
            return n_done
        labels[m] = best_j
        n_done = m + 1
        q = renorm_point(k, geodesic_point(k, p, v, best_t))
        w = renorm_tangent(k, q, geodesic_dir(k, p, v, best_t))
        r0, r1, r2 = refl[best_j]
        p = renorm_point(k, (r0[0] * q[0] + r0[1] * q[1] + r0[2] * q[2],
                             r1[0] * q[0] + r1[1] * q[1] + r1[2] * q[2],
                             r2[0] * q[0] + r2[1] * q[1] + r2[2] * q[2]))
        v = renorm_tangent(k, p, (r0[0] * w[0] + r0[1] * w[1] + r0[2] * w[2],
                                  r1[0] * w[0] + r1[1] * w[1] + r1[2] * w[2],
                                  r2[0] * w[0] + r2[1] * w[1] + r2[2] * w[2]))
    return n_done


# ---------------------------------------------------------------------------
# the Dormand-Prince integrator
# ---------------------------------------------------------------------------

# the field value at a point outside the field's domain
FIELD_NAN = (math.nan, math.nan, math.nan, math.nan)


def field_eval(field_id, k, pf, y):
    """The field at the point (y[0], y[1], y[2]) as a float 4-tuple.

    y may carry a 4th component, which no field reads.  The 4th component
    of the value is the geodesic-time rate for FIELD_CHART_ARC and 0.0
    otherwise.  Outside the field's domain, where sink(k, r) = 0 for the
    polar field or 1 - k (x^2 + y^2) < 0 for the chart field, every
    component is nan.
    """
    if field_id == FIELD_POLAR:
        r = y[0]
        beta = y[2]
        sk = sink(k, r)
        if sk == 0.0:
            return FIELD_NAN
        ck = cosk(k, r)
        sb = math.sin(beta)
        return (math.cos(beta), sb / sk, -ck * sb / sk, 0.0)
    x = y[0]
    yy = y[1]
    z = y[2]
    ff = 1.0 - k * (x * x + yy * yy)
    if ff < 0.0:
        return FIELD_NAN
    f = math.sqrt(ff)
    cz = math.cos(z)
    sz = math.sin(z)
    arc = math.hypot(x, yy) if field_id == FIELD_CHART_ARC else 0.0
    return (f * x * cz - pf * yy * sz, f * yy * cz + pf * x * sz, -f * sz, arc)


def _field_radius(field_id, y):
    if field_id == FIELD_POLAR:
        return y[0]
    return math.hypot(y[0], y[1])


def _dense_terms(y, yn, a1, a3, a4, a5, a6, a7, h):
    # one component's coefficients of the Dormand-Prince 4th-order
    # continuous extension of the step y -> yn (Hairer-Norsett-Wanner,
    # Solving ODEs I, II.6; dopri5 contd5)
    dy = yn - y
    bspl = h * a1 - dy
    r4 = dy - h * a7 - bspl
    r5 = h * (-12715105075.0 / 11282082432.0 * a1
              + 87487479700.0 / 32700410799.0 * a3
              - 10690763975.0 / 1880347072.0 * a4
              + 701980252875.0 / 199316789632.0 * a5
              - 1453857185.0 / 822651844.0 * a6
              + 69997945.0 / 29380423.0 * a7)
    return dy, bspl, r4, r5


def _dense(y, c, th):
    # the continuous extension at t + th h; c holds _dense_terms per component
    th1 = 1.0 - th
    c0, c1, c2, c3 = c
    return (y[0] + th * (c0[0] + th1 * (c0[1] + th * (c0[2] + th1 * c0[3]))),
            y[1] + th * (c1[0] + th1 * (c1[1] + th * (c1[2] + th1 * c1[3]))),
            y[2] + th * (c2[0] + th1 * (c2[1] + th * (c2[2] + th1 * c2[3]))),
            y[3] + th * (c3[0] + th1 * (c3[1] + th * (c3[2] + th1 * c3[3]))))


def rk45(field_id, k, pf, y0, t0, t1, rtol, atol, rlo, rhi,
         tbuf, ybuf, record):
    """Adaptive Dormand-Prince 5(4) with a radial exit window.

    y0 holds 3 components, or 4 for FIELD_CHART_ARC.  The step loop runs on
    Python floats: the state and the field values are float 4-tuples, and
    a 3-component state carries 0.0 as its 4th component, which stays out
    of the error norm.  The stage points are float triples, since no field
    reads a 4th component.  Each step evaluates the field six times; the
    7th stage of an accepted step is the 1st of the next (FSAL).

    Integration stops when the field radius leaves [rlo, rhi]; the crossing
    is bisected on the step's dense output, which costs no further field
    evaluations.  A stage outside the field's domain gives a nan error norm,
    which rejects the step and shrinks h by the least factor, 0.2.
    Accepted states go to the buffers tbuf (cap,) and ybuf (cap, dim) when
    record != 0.  Returns (status, nrec, t_end, y_end), y_end a 4-tuple.
    """
    # arrays or numpy scalars in, Python floats through the loop
    dim = len(y0)
    y = (float(y0[0]), float(y0[1]), float(y0[2]),
         float(y0[3]) if dim == 4 else 0.0)
    t = float(t0)
    t1 = float(t1)
    rtol = float(rtol)
    atol = float(atol)
    rlo = float(rlo)
    rhi = float(rhi)
    nrec = 0
    cap = tbuf.shape[0]
    if record != 0:
        tbuf[0] = t
        for i in range(dim):
            ybuf[0, i] = y[i]
        nrec = 1
    span = t1 - t
    if span == 0.0:
        return RK_DONE, nrec, t, y
    sgn = 1.0 if span > 0.0 else -1.0
    h = span / 128.0
    k1 = field_eval(field_id, k, pf, y)
    while (t - t1) * sgn < 0.0:
        if (t + h - t1) * sgn > 0.0:
            h = t1 - t
        k2 = field_eval(field_id, k, pf, (
            y[0] + h * (0.2 * k1[0]),
            y[1] + h * (0.2 * k1[1]),
            y[2] + h * (0.2 * k1[2])))
        k3 = field_eval(field_id, k, pf, (
            y[0] + h * (3.0 / 40.0 * k1[0] + 9.0 / 40.0 * k2[0]),
            y[1] + h * (3.0 / 40.0 * k1[1] + 9.0 / 40.0 * k2[1]),
            y[2] + h * (3.0 / 40.0 * k1[2] + 9.0 / 40.0 * k2[2])))
        k4 = field_eval(field_id, k, pf, (
            y[0] + h * (44.0 / 45.0 * k1[0] - 56.0 / 15.0 * k2[0]
                        + 32.0 / 9.0 * k3[0]),
            y[1] + h * (44.0 / 45.0 * k1[1] - 56.0 / 15.0 * k2[1]
                        + 32.0 / 9.0 * k3[1]),
            y[2] + h * (44.0 / 45.0 * k1[2] - 56.0 / 15.0 * k2[2]
                        + 32.0 / 9.0 * k3[2])))
        k5 = field_eval(field_id, k, pf, (
            y[0] + h * (19372.0 / 6561.0 * k1[0] - 25360.0 / 2187.0 * k2[0]
                        + 64448.0 / 6561.0 * k3[0] - 212.0 / 729.0 * k4[0]),
            y[1] + h * (19372.0 / 6561.0 * k1[1] - 25360.0 / 2187.0 * k2[1]
                        + 64448.0 / 6561.0 * k3[1] - 212.0 / 729.0 * k4[1]),
            y[2] + h * (19372.0 / 6561.0 * k1[2] - 25360.0 / 2187.0 * k2[2]
                        + 64448.0 / 6561.0 * k3[2] - 212.0 / 729.0 * k4[2])))
        k6 = field_eval(field_id, k, pf, (
            y[0] + h * (9017.0 / 3168.0 * k1[0] - 355.0 / 33.0 * k2[0]
                        + 46732.0 / 5247.0 * k3[0] + 49.0 / 176.0 * k4[0]
                        - 5103.0 / 18656.0 * k5[0]),
            y[1] + h * (9017.0 / 3168.0 * k1[1] - 355.0 / 33.0 * k2[1]
                        + 46732.0 / 5247.0 * k3[1] + 49.0 / 176.0 * k4[1]
                        - 5103.0 / 18656.0 * k5[1]),
            y[2] + h * (9017.0 / 3168.0 * k1[2] - 355.0 / 33.0 * k2[2]
                        + 46732.0 / 5247.0 * k3[2] + 49.0 / 176.0 * k4[2]
                        - 5103.0 / 18656.0 * k5[2])))
        ynew = (
            y[0] + h * (35.0 / 384.0 * k1[0] + 500.0 / 1113.0 * k3[0]
                        + 125.0 / 192.0 * k4[0] - 2187.0 / 6784.0 * k5[0]
                        + 11.0 / 84.0 * k6[0]),
            y[1] + h * (35.0 / 384.0 * k1[1] + 500.0 / 1113.0 * k3[1]
                        + 125.0 / 192.0 * k4[1] - 2187.0 / 6784.0 * k5[1]
                        + 11.0 / 84.0 * k6[1]),
            y[2] + h * (35.0 / 384.0 * k1[2] + 500.0 / 1113.0 * k3[2]
                        + 125.0 / 192.0 * k4[2] - 2187.0 / 6784.0 * k5[2]
                        + 11.0 / 84.0 * k6[2]),
            y[3] + h * (35.0 / 384.0 * k1[3] + 500.0 / 1113.0 * k3[3]
                        + 125.0 / 192.0 * k4[3] - 2187.0 / 6784.0 * k5[3]
                        + 11.0 / 84.0 * k6[3]))
        k7 = field_eval(field_id, k, pf, ynew)
        errn = 0.0
        for i in range(dim):
            e = h * (71.0 / 57600.0 * k1[i] - 71.0 / 16695.0 * k3[i]
                     + 71.0 / 1920.0 * k4[i] - 17253.0 / 339200.0 * k5[i]
                     + 22.0 / 525.0 * k6[i] - 1.0 / 40.0 * k7[i])
            ay = abs(y[i])
            an = abs(ynew[i])
            sc = atol + rtol * (ay if ay > an else an)
            q = e / sc
            errn += q * q
        errn = math.sqrt(errn / dim)
        if errn <= 1.0:
            rad = _field_radius(field_id, ynew)
            if rad > rhi or rad < rlo:
                c = (_dense_terms(y[0], ynew[0], k1[0], k3[0], k4[0], k5[0],
                                  k6[0], k7[0], h),
                     _dense_terms(y[1], ynew[1], k1[1], k3[1], k4[1], k5[1],
                                  k6[1], k7[1], h),
                     _dense_terms(y[2], ynew[2], k1[2], k3[2], k4[2], k5[2],
                                  k6[2], k7[2], h),
                     _dense_terms(y[3], ynew[3], k1[3], k3[3], k4[3], k5[3],
                                  k6[3], k7[3], h))
                lo = 0.0
                hi = 1.0
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    rr = _field_radius(field_id, _dense(y, c, mid))
                    if rr > rhi or rr < rlo:
                        hi = mid
                    else:
                        lo = mid
                yex = _dense(y, c, hi)
                tex = t + hi * h
                if record != 0 and nrec < cap:
                    tbuf[nrec] = tex
                    for i in range(dim):
                        ybuf[nrec, i] = yex[i]
                    nrec += 1
                return RK_EXITED, nrec, tex, yex
            t = t + h
            if (t - t1) * sgn > 0.0:
                t = t1
            y = ynew
            k1 = k7
            if record != 0:
                if nrec >= cap:
                    return RK_BUFFER_FULL, nrec, t, y
                tbuf[nrec] = t
                for i in range(dim):
                    ybuf[nrec, i] = y[i]
                nrec += 1
            if errn == 0.0:
                fac = 5.0
            else:
                fac = 0.9 * errn ** -0.2
                if fac > 5.0:
                    fac = 5.0
                if fac < 0.2:
                    fac = 0.2
            h = h * fac
        else:
            fac = 0.9 * errn ** -0.2
            if not fac >= 0.2:   # nan on a stage outside the domain
                fac = 0.2
            h = h * fac
        # a last step clipped to end at t1 may land an ulp short of it and
        # leave a tiny h behind; only a step that cannot reach t1 underflows
        if (t - t1) * sgn < 0.0 and abs(h) < 1e-14 * (1.0 + abs(t)):
            return RK_UNDERFLOW, nrec, t, y
    return RK_DONE, nrec, t, y
