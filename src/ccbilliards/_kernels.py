"""Scalar numerical kernels for the three constant-curvature models.

Points live on a quadric embedded in R^3:

* k = +1  unit sphere, Euclidean inner product;
* k = -1  upper hyperboloid sheet x^2 + y^2 - z^2 = -1 (z > 0), Minkowski
  form diag(1, 1, -1);
* k = 0   affine plane z = 1, tangent vectors have zero z-component.

Geodesics are ``cos_k(t) p + sin_k(t) v`` with (cosh, sinh) for k = -1 and
(1, t) for k = 0, which makes side intersections a one-variable root of
``a cos_k t + b sin_k t = 0`` in every curvature.

The code is written for CPython and runs uncompiled.  3-vectors are
(x, y, z) float triples: the geometry helpers return tuples, and the
collision kernels get their sides from ``Polygon.kernel_pack()`` as nested
float tuples (start point, unit start tangent, interior-positive plane
functional, length, endpoint vertex ids).  This keeps the hot loops on
Python floats, with no ``np.empty(3)`` per vector and no numpy scalar
arithmetic, and gives the same bits as arrays would: every expression
keeps its operation order, and ``x ** 2`` stays ``x ** 2`` (numpy's
float64 power and Python's agree bit for bit; ``x * x`` does not).
Per-bounce outputs go to caller-owned buffers, numpy arrays or Python
lists.

``trace_orbit``, ``trace_from_point`` and ``unfold_crossings`` are the
only entries to the straight-line loops of
:mod:`ccbilliards._collision_loops` and pick one per call from k.  Each
converts the ray to two float triples and every scalar to a Python float,
once, and builds the side records; ``trace_orbit`` calls its loop itself,
not through ``trace_from_point``.  ``trace_from_point`` serves
``collision_step`` (nmax = 1), ``trace_ray`` (numpy buffers) and the
diagonal search's per-vertex shooter (``collision._vertex_shooter``:
float-triple rays, Python-list buffers).  The helpers stay for the
geometry layer, ``collision.embed_triples`` and the launch directions.

The Dormand-Prince integrator ``rk45`` runs on Python floats the same
way.  It picks its field function (``polar_field``, ``chart_field`` or
``chart_arc_field``) once per run and calls it with each stage point as
three floats; the stage values are unpacked into locals, accepted states
go to Python lists that are copied into the caller's record buffers once,
and the chart-exit bisection evaluates only the radius components of the
dense output.  ``tests/test_golden.py`` pins its outputs bit for bit.

These are the N = 1 engine.  The periodic-orbit seed sweep instead runs
many rays at once in :mod:`ccbilliards._batch`, in numpy.
"""

import math

# the step / trace status codes belong to the loops; INF is also the "no
# crossing" of ray_side_hit
from ._collision_loops import (CROSSING_LOOPS, INF, STEP_ESCAPED,
                               STEP_GRAZING, STEP_MAXLEN, STEP_OK,
                               STEP_VERTEX, TRACE_LOOPS, _side_records)

# rk45 status codes
RK_DONE = 0
RK_EXITED = 1
RK_UNDERFLOW = 2
RK_BUFFER_FULL = 3


def cosk(k, t):
    if k == 1:
        return math.cos(t)
    if k == -1:
        return math.cosh(t)
    return 1.0


def sink(k, t):
    if k == 1:
        return math.sin(t)
    if k == -1:
        return math.sinh(t)
    return t


def mdot(k, u, v):
    # model pairing: Minkowski for k=-1, Euclidean otherwise (k=0 uses it
    # only for tangents with zero z and for line functionals)
    if k == -1:
        return u[0] * v[0] + u[1] * v[1] - u[2] * v[2]
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def det3(a, b, c):
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def renorm_point(k, p):
    if k == 1:
        n = math.sqrt(p[0] ** 2 + p[1] ** 2 + p[2] ** 2)
        return p[0] / n, p[1] / n, p[2] / n
    if k == -1:
        n = math.sqrt(p[2] ** 2 - p[0] ** 2 - p[1] ** 2)
        return p[0] / n, p[1] / n, p[2] / n
    return p[0], p[1], 1.0


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


def geodesic_point(k, p, v, t):
    c = cosk(k, t)
    s = sink(k, t)
    return c * p[0] + s * v[0], c * p[1] + s * v[1], c * p[2] + s * v[2]


def geodesic_dir(k, p, v, t):
    if k == 0:
        return v[0], v[1], 0.0
    c = cosk(k, t)
    s = sink(k, t)
    return (-k * s * p[0] + c * v[0], -k * s * p[1] + c * v[1],
            -k * s * p[2] + c * v[2])


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


def perp(k, p, w):
    # +90 degree rotation of the tangent w in the oriented tangent plane at p
    if k == 0:
        return -w[1], w[0], 0.0
    cz = p[0] * w[1] - p[1] * w[0]
    if k != 1:
        cz = -cz
    return p[1] * w[2] - p[2] * w[1], p[2] * w[0] - p[0] * w[2], cz


def signed_angle(k, p, u, v):
    # CCW angle from u to v in the oriented tangent plane at p, in (-pi, pi]
    c = mdot(k, u, v)
    s = det3(p, u, v)
    return math.atan2(s, c)


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


def trace_orbit(k, sa, su, sn, sl, sv0, sv1, verts,
                side0, s0, psi0, nmax, maxlen, tmin, tol_v, graze,
                labels, svals, psis, flens):
    """Iterate the collision map from a boundary state (see trace_from_point)."""
    p, v = boundary_embed(k, sa[side0], su[side0], float(s0), float(psi0))
    tol_v = float(tol_v)
    return TRACE_LOOPS[k](_side_records(sa, su, sn, sl, tol_v), sl, sv0, sv1,
                          verts, p, v, nmax, float(maxlen), float(tmin), tol_v,
                          float(graze), labels, svals, psis, flens)


def trace_from_point(k, sa, su, sn, sl, sv0, sv1, verts,
                     p, v, nmax, maxlen, tmin, tol_v, graze,
                     labels, svals, psis, flens):
    """Iterate the collision map from the interior ray (p, v) with the
    loop for curvature k.  The diagonal search starts its rays at polygon
    vertices; ``collision_step`` is this with nmax = 1."""
    tol_v = float(tol_v)
    return TRACE_LOOPS[k](_side_records(sa, su, sn, sl, tol_v), sl, sv0, sv1,
                          verts, (float(p[0]), float(p[1]), float(p[2])),
                          (float(v[0]), float(v[1]), float(v[2])), nmax,
                          float(maxlen), float(tmin), tol_v, float(graze),
                          labels, svals, psis, flens)


def unfold_crossings(k, sa, su, sn, sl, refl, p0, v0, nmax, tmin, pad, labels):
    """Crossing labels of the unfolded straight line, pulled back stepwise,
    with the loop for curvature k.

    refl holds one reflection matrix per side, as a tuple of three row
    tuples.  Writes 0-based side labels to labels and returns their count;
    never touches boundary (s, psi) coordinates, so this is an
    independent route to the itinerary.
    """
    return CROSSING_LOOPS[k](_side_records(sa, su, sn, sl, float(pad)), refl,
                             (float(p0[0]), float(p0[1]), float(p0[2])),
                             (float(v0[0]), float(v0[1]), float(v0[2])),
                             nmax, float(tmin), labels)


# ---------------------------------------------------------------------------
# adaptive Runge-Kutta (Dormand-Prince 5(4)) for the two vertex fields
# ---------------------------------------------------------------------------

# field ids
FIELD_POLAR = 0       # (r, gamma, beta) geodesic field, curvature k
FIELD_CHART = 1       # (x, y, z) rescaled chart field, pf = pi / theta
FIELD_CHART_ARC = 2   # chart field augmented with accumulated geodesic time

# the field value at a point outside the field's domain
FIELD_NAN = (math.nan, math.nan, math.nan, math.nan)


def polar_field(k, pf, r, gamma, beta):
    """The polar field (FIELD_POLAR) at (r, gamma, beta) as a float 4-tuple.

    Its 4th component is 0.0; where sink(k, r) = 0, outside the field's
    domain, every component is nan.  pf is unused.
    """
    sk = sink(k, r)
    if sk == 0.0:
        return FIELD_NAN
    ck = cosk(k, r)
    sb = math.sin(beta)
    return (math.cos(beta), sb / sk, -ck * sb / sk, 0.0)


def chart_field(k, pf, x, y, z):
    """The chart field (FIELD_CHART) at (x, y, z) as a float 4-tuple.

    Its 4th component is 0.0; where 1 - k (x^2 + y^2) < 0, outside the
    field's domain, every component is nan.
    """
    ff = 1.0 - k * (x * x + y * y)
    if ff < 0.0:
        return FIELD_NAN
    f = math.sqrt(ff)
    cz = math.cos(z)
    sz = math.sin(z)
    return (f * x * cz - pf * y * sz, f * y * cz + pf * x * sz, -f * sz, 0.0)


def chart_arc_field(k, pf, x, y, z):
    """``chart_field`` with the geodesic-time rate hypot(x, y) as its 4th
    component (FIELD_CHART_ARC); outside the domain the other three are
    nan."""
    fx, fy, fz, _ = chart_field(k, pf, x, y, z)
    return fx, fy, fz, math.hypot(x, y)


# field functions by field id
FIELDS = (polar_field, chart_field, chart_arc_field)


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
    # one component of the continuous extension at t + th h, from its
    # _dense_terms c
    th1 = 1.0 - th
    return y + th * (c[0] + th1 * (c[1] + th * (c[2] + th1 * c[3])))


def _exit_fraction(polar, ya, yb, ca, cb, rlo, rhi):
    """The fraction of the step at which the dense output's radius leaves
    [rlo, rhi], by bisection.

    The radius is ya's component for the polar field and the hypot of ya's
    and yb's for the chart fields, so only those components are evaluated.
    Once mid rounds to lo or hi, no later round can move hi: mid == hi
    leaves hi as it is whatever the test says, and mid == lo repeats the
    test lo passed (lo = 0 is never tested, but mid cannot round to 0
    within 80 rounds), so the loop ends there with the bits of 80 rounds.
    """
    a0, a1, a2, a3 = ca
    b0, b1, b2, b3 = cb
    lo = 0.0
    hi = 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        th1 = 1.0 - mid
        rr = ya + mid * (a0 + th1 * (a1 + mid * (a2 + th1 * a3)))
        if not polar:
            rr = math.hypot(
                rr, yb + mid * (b0 + th1 * (b1 + mid * (b2 + th1 * b3))))
        if rr > rhi or rr < rlo:
            hi = mid
        else:
            lo = mid
    return hi


def _flush(ts, ys, tbuf, ybuf, dim):
    # the recorded times and states into the caller's buffers; their count
    n = len(ts)
    if n:
        tbuf[:n] = ts
        ybuf[:n] = ys if dim == 4 else [row[:3] for row in ys]
    return n


def rk45(field_id, k, pf, y0, t0, t1, rtol, atol, rlo, rhi,
         tbuf, ybuf, record):
    """Adaptive Dormand-Prince 5(4) with a radial exit window.

    y0 holds 3 components, or 4 for FIELD_CHART_ARC.  The step loop runs on
    Python floats: the field function for field_id is picked once per run
    and called with each stage point as three floats (no field reads a
    4th component); its value is a float 4-tuple, unpacked into locals.  A
    3-component state carries 0.0 as its 4th component, which stays out of
    the error norm.  Each step evaluates the field six times; the 7th
    stage of an accepted step is the 1st of the next (FSAL).  An accepted
    step that lands past t1, which the last step clipped to h = t1 - t can
    do by an ulp, ends at t1 exactly.

    Integration stops when the field radius leaves [rlo, rhi]; the crossing
    is bisected on the step's dense output, which costs no further field
    evaluations.  A stage outside the field's domain gives a nan error norm,
    which rejects the step and shrinks h by the least factor, 0.2.
    When record != 0, accepted states are collected in Python lists and
    copied once, before returning, into the buffers tbuf (cap,) and ybuf
    (cap, dim).  Returns (status, nrec, t_end, y_end), y_end a 4-tuple.
    """
    f = FIELDS[field_id]
    polar = field_id == FIELD_POLAR
    # arrays or numpy scalars in, Python floats through the loop
    dim = len(y0)
    ya, yb, yc = float(y0[0]), float(y0[1]), float(y0[2])
    yd = float(y0[3]) if dim == 4 else 0.0
    nd = yd     # stays 0.0 for a 3-component state
    t = float(t0)
    t1 = float(t1)
    rtol = float(rtol)
    atol = float(atol)
    rlo = float(rlo)
    rhi = float(rhi)
    ts = []
    ys = []
    nrec = 0
    cap = tbuf.shape[0]
    if record != 0:
        ts.append(t)
        ys.append((ya, yb, yc, yd))
        nrec = 1
    span = t1 - t
    if span == 0.0:
        return RK_DONE, _flush(ts, ys, tbuf, ybuf, dim), t, (ya, yb, yc, yd)
    sgn = 1.0 if span > 0.0 else -1.0
    h = span / 128.0
    k1a, k1b, k1c, k1d = f(k, pf, ya, yb, yc)
    while (t - t1) * sgn < 0.0:
        if (t + h - t1) * sgn > 0.0:
            h = t1 - t
        k2a, k2b, k2c, _ = f(
            k, pf,
            ya + h * (0.2 * k1a),
            yb + h * (0.2 * k1b),
            yc + h * (0.2 * k1c))
        k3a, k3b, k3c, k3d = f(
            k, pf,
            ya + h * (3.0 / 40.0 * k1a + 9.0 / 40.0 * k2a),
            yb + h * (3.0 / 40.0 * k1b + 9.0 / 40.0 * k2b),
            yc + h * (3.0 / 40.0 * k1c + 9.0 / 40.0 * k2c))
        k4a, k4b, k4c, k4d = f(
            k, pf,
            ya + h * (44.0 / 45.0 * k1a - 56.0 / 15.0 * k2a
                      + 32.0 / 9.0 * k3a),
            yb + h * (44.0 / 45.0 * k1b - 56.0 / 15.0 * k2b
                      + 32.0 / 9.0 * k3b),
            yc + h * (44.0 / 45.0 * k1c - 56.0 / 15.0 * k2c
                      + 32.0 / 9.0 * k3c))
        k5a, k5b, k5c, k5d = f(
            k, pf,
            ya + h * (19372.0 / 6561.0 * k1a - 25360.0 / 2187.0 * k2a
                      + 64448.0 / 6561.0 * k3a - 212.0 / 729.0 * k4a),
            yb + h * (19372.0 / 6561.0 * k1b - 25360.0 / 2187.0 * k2b
                      + 64448.0 / 6561.0 * k3b - 212.0 / 729.0 * k4b),
            yc + h * (19372.0 / 6561.0 * k1c - 25360.0 / 2187.0 * k2c
                      + 64448.0 / 6561.0 * k3c - 212.0 / 729.0 * k4c))
        k6a, k6b, k6c, k6d = f(
            k, pf,
            ya + h * (9017.0 / 3168.0 * k1a - 355.0 / 33.0 * k2a
                      + 46732.0 / 5247.0 * k3a + 49.0 / 176.0 * k4a
                      - 5103.0 / 18656.0 * k5a),
            yb + h * (9017.0 / 3168.0 * k1b - 355.0 / 33.0 * k2b
                      + 46732.0 / 5247.0 * k3b + 49.0 / 176.0 * k4b
                      - 5103.0 / 18656.0 * k5b),
            yc + h * (9017.0 / 3168.0 * k1c - 355.0 / 33.0 * k2c
                      + 46732.0 / 5247.0 * k3c + 49.0 / 176.0 * k4c
                      - 5103.0 / 18656.0 * k5c))
        na = ya + h * (35.0 / 384.0 * k1a + 500.0 / 1113.0 * k3a
                       + 125.0 / 192.0 * k4a - 2187.0 / 6784.0 * k5a
                       + 11.0 / 84.0 * k6a)
        nb = yb + h * (35.0 / 384.0 * k1b + 500.0 / 1113.0 * k3b
                       + 125.0 / 192.0 * k4b - 2187.0 / 6784.0 * k5b
                       + 11.0 / 84.0 * k6b)
        nc = yc + h * (35.0 / 384.0 * k1c + 500.0 / 1113.0 * k3c
                       + 125.0 / 192.0 * k4c - 2187.0 / 6784.0 * k5c
                       + 11.0 / 84.0 * k6c)
        k7a, k7b, k7c, k7d = f(k, pf, na, nb, nc)
        # the error norm, one component at a time in the old loop's order
        e = h * (71.0 / 57600.0 * k1a - 71.0 / 16695.0 * k3a
                 + 71.0 / 1920.0 * k4a - 17253.0 / 339200.0 * k5a
                 + 22.0 / 525.0 * k6a - 1.0 / 40.0 * k7a)
        ay = abs(ya)
        an = abs(na)
        q = e / (atol + rtol * (ay if ay > an else an))
        errn = q * q
        e = h * (71.0 / 57600.0 * k1b - 71.0 / 16695.0 * k3b
                 + 71.0 / 1920.0 * k4b - 17253.0 / 339200.0 * k5b
                 + 22.0 / 525.0 * k6b - 1.0 / 40.0 * k7b)
        ay = abs(yb)
        an = abs(nb)
        q = e / (atol + rtol * (ay if ay > an else an))
        errn += q * q
        e = h * (71.0 / 57600.0 * k1c - 71.0 / 16695.0 * k3c
                 + 71.0 / 1920.0 * k4c - 17253.0 / 339200.0 * k5c
                 + 22.0 / 525.0 * k6c - 1.0 / 40.0 * k7c)
        ay = abs(yc)
        an = abs(nc)
        q = e / (atol + rtol * (ay if ay > an else an))
        errn += q * q
        if dim == 4:
            nd = yd + h * (35.0 / 384.0 * k1d + 500.0 / 1113.0 * k3d
                           + 125.0 / 192.0 * k4d - 2187.0 / 6784.0 * k5d
                           + 11.0 / 84.0 * k6d)
            e = h * (71.0 / 57600.0 * k1d - 71.0 / 16695.0 * k3d
                     + 71.0 / 1920.0 * k4d - 17253.0 / 339200.0 * k5d
                     + 22.0 / 525.0 * k6d - 1.0 / 40.0 * k7d)
            ay = abs(yd)
            an = abs(nd)
            q = e / (atol + rtol * (ay if ay > an else an))
            errn += q * q
        errn = math.sqrt(errn / dim)
        if errn <= 1.0:
            rad = na if polar else math.hypot(na, nb)
            if rad > rhi or rad < rlo:
                ca = _dense_terms(ya, na, k1a, k3a, k4a, k5a, k6a, k7a, h)
                cb = _dense_terms(yb, nb, k1b, k3b, k4b, k5b, k6b, k7b, h)
                th = _exit_fraction(polar, ya, yb, ca, cb, rlo, rhi)
                yex = (_dense(ya, ca, th), _dense(yb, cb, th),
                       _dense(yc, _dense_terms(yc, nc, k1c, k3c, k4c, k5c,
                                               k6c, k7c, h), th),
                       _dense(yd, _dense_terms(yd, nd, k1d, k3d, k4d, k5d,
                                               k6d, k7d, h), th))
                tex = t + th * h
                if record != 0 and nrec < cap:
                    ts.append(tex)
                    ys.append(yex)
                return RK_EXITED, _flush(ts, ys, tbuf, ybuf, dim), tex, yex
            t = t + h
            if (t - t1) * sgn > 0.0:
                t = t1
            ya, yb, yc, yd = na, nb, nc, nd
            k1a, k1b, k1c, k1d = k7a, k7b, k7c, k7d
            if record != 0:
                if nrec >= cap:
                    return (RK_BUFFER_FULL, _flush(ts, ys, tbuf, ybuf, dim),
                            t, (ya, yb, yc, yd))
                ts.append(t)
                ys.append((ya, yb, yc, yd))
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
            return (RK_UNDERFLOW, _flush(ts, ys, tbuf, ybuf, dim), t,
                    (ya, yb, yc, yd))
    return RK_DONE, _flush(ts, ys, tbuf, ybuf, dim), t, (ya, yb, yc, yd)
