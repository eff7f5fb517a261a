"""Scalar numerical kernels for the three constant-curvature models.

Points live on a quadric embedded in R^3:

* k = +1  unit sphere, Euclidean inner product;
* k = -1  upper hyperboloid sheet x^2 + y^2 - z^2 = -1 (z > 0), Minkowski
  form diag(1, 1, -1);
* k = 0   affine plane z = 1, tangent vectors have zero z-component.

Geodesics are ``cos_k(t) p + sin_k(t) v`` with (cosh, sinh) for k = -1 and
(1, t) for k = 0, which makes side intersections a one-variable root of
``a cos_k t + b sin_k t = 0`` in every curvature.

Everything here must stay nopython-compilable: floats, int64 flags,
homogeneous tuples and float64 arrays, no lists or dicts.  3-vectors are
(x, y, z) float triples: the geometry helpers return tuples, and the
collision kernels get their sides from ``Polygon.kernel_pack()`` as nested
float tuples (start point, unit start tangent, interior-positive plane
functional, length, endpoint vertex ids).  Uncompiled, this keeps the hot
loop on Python floats, with no ``np.empty(3)`` per vector and no numpy
scalar arithmetic, and gives the same bits as arrays would: every
expression keeps its operation order, and ``x ** 2`` stays ``x ** 2``
(numpy's float64 power and Python's agree bit for bit; ``x * x`` does
not).  The entry kernels convert array or numpy-scalar arguments with
``float()``.  Per-bounce outputs still go to caller-owned arrays.
Compiled, a tuple's length is part of its type, so numba compiles the
collision kernels once per side count.

The Dormand-Prince integrator ``rk45`` runs on Python floats the same
way: its state and stages are float 4-tuples (a 3-component state carries
a 0.0 4th component), ``field_eval`` returns a new tuple instead of
filling an array, and only accepted states are written to the caller's
record buffers.  ``tests/test_golden.py`` pins its outputs bit for bit.

These are the N = 1 engine.  The periodic-orbit seed sweep instead runs
many rays at once in :mod:`ccbilliards._batch`, plain numpy that is never
numba-compiled; whether the compiled scalar sweep would beat it on a
machine with numba has not been measured.
"""

import math

from ._accel import jit_kernel

INF = 1e300

# step / trace status codes
STEP_OK = 0
STEP_VERTEX = 1
STEP_GRAZING = 2
STEP_ESCAPED = 3
STEP_MAXLEN = 4

# rk45 status codes
RK_DONE = 0
RK_EXITED = 1
RK_UNDERFLOW = 2
RK_BUFFER_FULL = 3


@jit_kernel
def cosk(k, t):
    if k == 1:
        return math.cos(t)
    if k == -1:
        return math.cosh(t)
    return 1.0


@jit_kernel
def sink(k, t):
    if k == 1:
        return math.sin(t)
    if k == -1:
        return math.sinh(t)
    return t


@jit_kernel
def mdot(k, u, v):
    # model pairing: Minkowski for k=-1, Euclidean otherwise (k=0 uses it
    # only for tangents with zero z and for line functionals)
    if k == -1:
        return u[0] * v[0] + u[1] * v[1] - u[2] * v[2]
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


@jit_kernel
def det3(a, b, c):
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


@jit_kernel
def renorm_point(k, p):
    if k == 1:
        n = math.sqrt(p[0] ** 2 + p[1] ** 2 + p[2] ** 2)
        return p[0] / n, p[1] / n, p[2] / n
    if k == -1:
        n = math.sqrt(p[2] ** 2 - p[0] ** 2 - p[1] ** 2)
        return p[0] / n, p[1] / n, p[2] / n
    return p[0], p[1], 1.0


@jit_kernel
def renorm_tangent(k, p, v):
    if k == 0:
        n = math.hypot(v[0], v[1])
        return v[0] / n, v[1] / n, 0.0
    c = mdot(k, v, p)
    if k == 1:
        o = (v[0] - c * p[0], v[1] - c * p[1], v[2] - c * p[2])
    else:
        # <p,p>_M = -1, so the tangential part is v + <v,p>_M p
        o = (v[0] + c * p[0], v[1] + c * p[1], v[2] + c * p[2])
    n = math.sqrt(abs(mdot(k, o, o)))
    return o[0] / n, o[1] / n, o[2] / n


@jit_kernel
def geodesic_point(k, p, v, t):
    c = cosk(k, t)
    s = sink(k, t)
    return c * p[0] + s * v[0], c * p[1] + s * v[1], c * p[2] + s * v[2]


@jit_kernel
def geodesic_dir(k, p, v, t):
    if k == 0:
        return v[0], v[1], 0.0
    c = cosk(k, t)
    s = sink(k, t)
    return (-k * s * p[0] + c * v[0], -k * s * p[1] + c * v[1],
            -k * s * p[2] + c * v[2])


@jit_kernel
def distance(k, a, b):
    # chordal forms keep full precision near zero distance
    if k == 1:
        ch = math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2)
        h = 0.5 * ch
        if h > 1.0:
            h = 1.0
        return 2.0 * math.asin(h)
    if k == -1:
        d0 = a[0] - b[0]
        d1 = a[1] - b[1]
        d2 = a[2] - b[2]
        q = d0 * d0 + d1 * d1 - d2 * d2
        if q < 0.0:
            q = 0.0
        return 2.0 * math.asinh(0.5 * math.sqrt(q))
    return math.hypot(a[0] - b[0], a[1] - b[1])


@jit_kernel
def perp(k, p, w):
    # +90 degree rotation of the tangent w in the oriented tangent plane at p
    if k == 0:
        return -w[1], w[0], 0.0
    cz = p[0] * w[1] - p[1] * w[0]
    if k != 1:
        cz = -cz
    return p[1] * w[2] - p[2] * w[1], p[2] * w[0] - p[0] * w[2], cz


@jit_kernel
def signed_angle(k, p, u, v):
    # CCW angle from u to v in the oriented tangent plane at p, in (-pi, pi]
    c = mdot(k, u, v)
    s = det3(p, u, v)
    return math.atan2(s, c)


@jit_kernel
def log_map(k, p, q):
    # unit tangent at p toward q; caller guarantees q != p (and q != -p on
    # the sphere)
    if k == 0:
        d0 = q[0] - p[0]
        d1 = q[1] - p[1]
        n = math.hypot(d0, d1)
        return d0 / n, d1 / n, 0.0
    c = mdot(k, q, p)
    if k == 1:
        o = (q[0] - c * p[0], q[1] - c * p[1], q[2] - c * p[2])
    else:
        o = (q[0] + c * p[0], q[1] + c * p[1], q[2] + c * p[2])
    n = math.sqrt(abs(mdot(k, o, o)))
    return o[0] / n, o[1] / n, o[2] / n


@jit_kernel
def boundary_embed(k, a, u, s, psi):
    """Embed a boundary state: point at arc s on the side (a, u), direction
    rotated by psi from the side's forward tangent."""
    bp = renorm_point(k, geodesic_point(k, a, u, s))
    w = renorm_tangent(k, bp, geodesic_dir(k, a, u, s))
    e2 = perp(k, bp, w)
    c = math.cos(psi)
    sn = math.sin(psi)
    d = (c * w[0] + sn * e2[0], c * w[1] + sn * e2[1], c * w[2] + sn * e2[2])
    return bp, renorm_tangent(k, bp, d)


@jit_kernel
def ray_side_hit(k, p, v, a_pt, u, n, seg_len, tmin, pad):
    """First crossing of the geodesic (p, v) with one side segment.

    Returns (t, s); t = INF when no crossing with t > tmin lands at an arc
    parameter s in [-pad, seg_len + pad].
    """
    a = mdot(k, n, p)
    b = mdot(k, n, v)
    if k == 0:
        if abs(b) < 1e-15:
            return INF, 0.0
        t = -a / b
        if t <= tmin:
            return INF, 0.0
        qx = p[0] + t * v[0]
        qy = p[1] + t * v[1]
        s = (qx - a_pt[0]) * u[0] + (qy - a_pt[1]) * u[1]
        if s < -pad or s > seg_len + pad:
            return INF, 0.0
        return t, s
    if k == -1:
        if abs(b) <= abs(a):
            return INF, 0.0
        t = math.atanh(-a / b)
        if t <= tmin:
            return INF, 0.0
        q = geodesic_point(-1, p, v, t)
        s = math.asinh(q[0] * u[0] + q[1] * u[1] - q[2] * u[2])
        if s < -pad or s > seg_len + pad:
            return INF, 0.0
        return t, s
    # sphere: roots repeat every pi along the great circle
    if abs(a) < 1e-15 and abs(b) < 1e-15:
        return INF, 0.0
    t0 = math.atan2(-a, b) % math.pi
    for m in range(3):
        t = t0 + m * math.pi
        if t <= tmin:
            continue
        q = geodesic_point(1, p, v, t)
        s = math.atan2(q[0] * u[0] + q[1] * u[1] + q[2] * u[2],
                       q[0] * a_pt[0] + q[1] * a_pt[1] + q[2] * a_pt[2])
        if -pad <= s <= seg_len + pad:
            return t, s
    return INF, 0.0


@jit_kernel
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


@jit_kernel
def _trace_loop(k, sa, su, sn, sl, sv0, sv1, verts,
                p, v, nmax, maxlen, tmin, tol_v, graze,
                labels, svals, psis, flens):
    """Iterate the collision map from the interior ray (p, v).

    Fills per-bounce buffers and returns (n_done, status, vertex, length);
    length includes the final leg on a vertex hit.
    """
    # arrays or numpy scalars in, Python floats through the loop
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


@jit_kernel
def trace_orbit(k, sa, su, sn, sl, sv0, sv1, verts,
                side0, s0, psi0, nmax, maxlen, tmin, tol_v, graze,
                labels, svals, psis, flens):
    """Iterate the collision map from a boundary state (see _trace_loop)."""
    p, v = boundary_embed(k, sa[side0], su[side0], float(s0), float(psi0))
    return _trace_loop(k, sa, su, sn, sl, sv0, sv1, verts,
                       p, v, nmax, maxlen, tmin, tol_v, graze,
                       labels, svals, psis, flens)


# launched from an arbitrary interior ray; the diagonal search starts its
# rays at polygon vertices
trace_from_point = _trace_loop


@jit_kernel
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
# adaptive Runge-Kutta (Dormand-Prince 5(4)) for the two vertex fields
# ---------------------------------------------------------------------------

# field ids
FIELD_POLAR = 0       # (r, gamma, beta) geodesic field, curvature k
FIELD_CHART = 1       # (x, y, z) rescaled chart field, pf = pi / theta
FIELD_CHART_ARC = 2   # chart field augmented with accumulated geodesic time

# the field value at a point outside the field's domain
FIELD_NAN = (math.nan, math.nan, math.nan, math.nan)


@jit_kernel
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


@jit_kernel
def _field_radius(field_id, y):
    if field_id == FIELD_POLAR:
        return y[0]
    return math.hypot(y[0], y[1])


@jit_kernel
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


@jit_kernel
def _dense(y, c, th):
    # the continuous extension at t + th h; c holds _dense_terms per component
    th1 = 1.0 - th
    c0, c1, c2, c3 = c
    return (y[0] + th * (c0[0] + th1 * (c0[1] + th * (c0[2] + th1 * c0[3]))),
            y[1] + th * (c1[0] + th1 * (c1[1] + th * (c1[2] + th1 * c1[3]))),
            y[2] + th * (c2[0] + th1 * (c2[1] + th * (c2[2] + th1 * c2[3]))),
            y[3] + th * (c3[0] + th1 * (c3[1] + th * (c3[2] + th1 * c3[3]))))


@jit_kernel
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
