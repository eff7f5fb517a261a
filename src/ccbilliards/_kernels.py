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
functional, length, endpoint vertex ids, and the loops' side records).
This keeps the hot loops on Python floats, with no ``np.empty(3)`` per
vector and no numpy scalar arithmetic, and gives the same bits as numpy
scalars would: every expression keeps its operation order, and ``x ** 2``
stays ``x ** 2`` (a numpy float64 scalar's power and Python's agree bit
for bit; ``x * x`` does not).  numpy arrays are another matter: they
compute ``x ** 2`` as ``x * x``, which rounds differently from Python's
``x ** 2`` for about 0.09% of inputs, so array code such as
:mod:`ccbilliards._batch` cannot match these kernels bit for bit.
Per-bounce outputs go to caller-owned buffers, numpy arrays or Python
lists.

``trace_orbit``, ``trace_from_point`` and ``unfold_crossings`` are the
only entries to the straight-line loops of
:mod:`ccbilliards._collision_loops` and pick one per call from k.  Each
converts the ray to two float triples and every scalar to a Python float,
once, and hands the loop the side records, the plane's side tangents
and the side functionals that ``Polygon.kernel_pack`` built once per
polygon (``_collision_loops.side_records``, at the pad ``VERTEX_TOL``);
``trace_orbit`` calls its loop itself, not through
``trace_from_point``.  ``trace_from_point`` serves ``collision_step``
(nmax = 1), ``trace_ray`` and the diagonal search's per-vertex shooter
(``collision._vertex_shooter``: float-triple rays), all on Python-list
buffers.  The helpers serve the polygon builder, ``geometry``, the
launches and frames of ``collision``, the unfolding and its SVG, the
expansivity probes, the vertex flow and (as ``mdot`` and ``perp``) the
batched engine :mod:`ccbilliards._batch`.

The Dormand-Prince integrator ``rk45`` of the vertex chart field runs on
Python floats the same way.  It calls no field function: ``chart_field``'s
expressions are written out at each of the seven stage evaluations, in
its operation order, with the arc rate hypot(x, y) of FIELD_CHART_ARC as
the 4th component when a flag set once per run asks for it (0.83-0.85x
the time of a call per stage, two trees in one process, 2 vCPUs).  Accepted states go to Python
lists that are copied into the caller's record buffers once, and the
chart-exit bisection evaluates only the radius components of the dense
output.  ``tests/test_golden.py`` pins its outputs bit for bit, and
``tests/test_flow.py`` holds them to the oracle ``rk45``, which calls a
field function per stage.

These are the N = 1 engine.  The periodic-orbit seed sweep instead runs
its (side, s, psi) sample arrays at once in :mod:`ccbilliards._batch`,
in numpy, which records labels, s and psi per bounce and no stop reasons.
"""

import math

# the step / trace status codes and INF belong to the loops
from ._collision_loops import (CROSSING_LOOPS, INF, STEP_ESCAPED,
                               STEP_GRAZING, STEP_MAXLEN, STEP_OK,
                               STEP_VERTEX, TRACE_LOOPS, VERTEX_TOL,
                               side_records)

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


def trace_orbit(k, sa, su, sn, sl, sv0, sv1, verts, sides,
                side0, s0, psi0, nmax, maxlen, tmin, tol_v, graze,
                labels, svals, psis, flens):
    """Iterate the collision map from a boundary state (see
    trace_from_point, whose preconditions hold here too)."""
    p, v = boundary_embed(k, sa[side0], su[side0], float(s0), float(psi0))
    return TRACE_LOOPS[k](*sides, sl, sv0, sv1, verts, p, v, nmax,
                          float(maxlen), float(tmin), float(tol_v),
                          float(graze), labels, svals, psis, flens)


def trace_from_point(k, sa, su, sn, sl, sv0, sv1, verts, sides,
                     p, v, nmax, maxlen, tmin, tol_v, graze,
                     labels, svals, psis, flens):
    """Iterate the collision map from the interior ray (p, v) with the
    loop for curvature k.

    The first eight arguments after k are ``Polygon.kernel_pack()``:
    ``sides`` holds the loops' (records, tangents, functionals) at the pad
    tol_v.  Fills the per-bounce buffers and returns (n_done, status,
    vertex, length).  The diagonal search starts its rays at polygon
    vertices; ``collision_step`` is this with nmax = 1.  A plane ray must
    lie on z = 1 with a z-direction of 0.  The batched engine ``_batch``
    pads its windows and tests vertex hits at ``VERTEX_TOL``, the records'
    pad, so the two engines agree at tol_v = ``VERTEX_TOL``, which
    ``collision`` passes.
    """
    return TRACE_LOOPS[k](*sides, sl, sv0, sv1, verts,
                          (float(p[0]), float(p[1]), float(p[2])),
                          (float(v[0]), float(v[1]), float(v[2])), nmax,
                          float(maxlen), float(tmin), float(tol_v),
                          float(graze), labels, svals, psis, flens)


def unfold_crossings(k, sides, refl, p0, v0, nmax, tmin, labels):
    """Crossing labels of the unfolded straight line, pulled back stepwise,
    with the loop for curvature k.

    sides are the loops' sides of ``Polygon.kernel_pack()``, whose
    records' pad widens each side's arc window; refl holds one reflection
    matrix per side, as a tuple of three row tuples.  Writes 0-based side
    labels to labels and returns their count; never touches boundary (s,
    psi) coordinates, so this is an independent route to the itinerary.
    A plane line must lie on z = 1 with a z-direction of 0.
    """
    return CROSSING_LOOPS[k](sides[0], sides[2], refl,
                             (float(p0[0]), float(p0[1]), float(p0[2])),
                             (float(v0[0]), float(v0[1]), float(v0[2])),
                             nmax, float(tmin), labels)


# ---------------------------------------------------------------------------
# adaptive Runge-Kutta (Dormand-Prince 5(4)) for the vertex chart field
# ---------------------------------------------------------------------------

# field ids
FIELD_CHART = 0       # (x, y, z) rescaled chart field, pf = pi / theta
FIELD_CHART_ARC = 1   # chart field augmented with accumulated geodesic time

# the field value at a point outside the field's domain
FIELD_NAN = (math.nan, math.nan, math.nan, math.nan)


def chart_field(k, pf, x, y, z):
    """The chart field (FIELD_CHART) at (x, y, z) as a float 4-tuple.

    Its 4th component is 0.0; where 1 - k (x^2 + y^2) < 0, outside the
    field's domain, every component is nan.  ``rk45`` writes these
    expressions out at each stage.
    """
    ff = 1.0 - k * (x * x + y * y)
    if ff < 0.0:
        return FIELD_NAN
    f = math.sqrt(ff)
    cz = math.cos(z)
    sz = math.sin(z)
    return (f * x * cz - pf * y * sz, f * y * cz + pf * x * sz, -f * sz, 0.0)


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


def _exit_fraction(ya, yb, ca, cb, rlo, rhi):
    """The fraction of the step at which the dense output's radius leaves
    [rlo, rhi], by bisection.

    The radius is the hypot of ya's and yb's components, so only those
    two are evaluated.
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
        rr = math.hypot(ya + mid * (a0 + th1 * (a1 + mid * (a2 + th1 * a3))),
                        yb + mid * (b0 + th1 * (b1 + mid * (b2 + th1 * b3))))
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
    Python floats: each stage evaluates ``chart_field``'s expressions at
    its point's first three components, inline, into four locals; the 4th
    is the arc rate hypot(x, y) for FIELD_CHART_ARC, also outside the
    field's domain, where the other three are nan, and 0.0 otherwise.  A
    3-component state carries 0.0 as its 4th component, which stays out of
    the error norm.  Each step evaluates the field six times; the 7th
    stage of an accepted step is the 1st of the next (FSAL).  An accepted
    step that lands past t1, which the last step clipped to h = t1 - t can
    do by an ulp, ends at t1 exactly.

    Integration stops when the radius hypot(x, y) leaves [rlo, rhi]; the
    crossing is bisected on the step's dense output, which costs no further
    field evaluations.  A stage outside the field's domain gives a nan error
    norm, which rejects the step and shrinks h by the least factor, 0.2.
    When record != 0, accepted states are collected in Python lists and
    copied once, before returning, into the buffers tbuf (cap,) and ybuf
    (cap, dim).  Returns (status, nrec, t_end, y_end), y_end a 4-tuple.
    """
    # chart_field written out at each stage, with the arc rate of
    # FIELD_CHART_ARC as 4th component (0.0 otherwise): no call per stage.
    # A float k multiplies as the int did, without the int's conversion,
    # and local names spare each math call a global and attribute lookup
    arc = field_id == FIELD_CHART_ARC
    k = float(k)
    nan = math.nan
    sqrt = math.sqrt
    cos = math.cos
    sin = math.sin
    hypot = math.hypot
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
    ff = 1.0 - k * (ya * ya + yb * yb)
    f = sqrt(ff) if ff >= 0.0 else nan
    cz = cos(yc)
    sz = sin(yc)
    k1a = f * ya * cz - pf * yb * sz
    k1b = f * yb * cz + pf * ya * sz
    k1c = -f * sz
    k1d = hypot(ya, yb) if arc else 0.0
    while (t - t1) * sgn < 0.0:
        if (t + h - t1) * sgn > 0.0:
            h = t1 - t
        x = ya + h * (0.2 * k1a)
        y = yb + h * (0.2 * k1b)
        z = yc + h * (0.2 * k1c)
        ff = 1.0 - k * (x * x + y * y)
        f = sqrt(ff) if ff >= 0.0 else nan
        cz = cos(z)
        sz = sin(z)
        k2a = f * x * cz - pf * y * sz
        k2b = f * y * cz + pf * x * sz
        k2c = -f * sz
        x = ya + h * (3.0 / 40.0 * k1a + 9.0 / 40.0 * k2a)
        y = yb + h * (3.0 / 40.0 * k1b + 9.0 / 40.0 * k2b)
        z = yc + h * (3.0 / 40.0 * k1c + 9.0 / 40.0 * k2c)
        ff = 1.0 - k * (x * x + y * y)
        f = sqrt(ff) if ff >= 0.0 else nan
        cz = cos(z)
        sz = sin(z)
        k3a = f * x * cz - pf * y * sz
        k3b = f * y * cz + pf * x * sz
        k3c = -f * sz
        k3d = hypot(x, y) if arc else 0.0
        x = ya + h * (44.0 / 45.0 * k1a - 56.0 / 15.0 * k2a
                      + 32.0 / 9.0 * k3a)
        y = yb + h * (44.0 / 45.0 * k1b - 56.0 / 15.0 * k2b
                      + 32.0 / 9.0 * k3b)
        z = yc + h * (44.0 / 45.0 * k1c - 56.0 / 15.0 * k2c
                      + 32.0 / 9.0 * k3c)
        ff = 1.0 - k * (x * x + y * y)
        f = sqrt(ff) if ff >= 0.0 else nan
        cz = cos(z)
        sz = sin(z)
        k4a = f * x * cz - pf * y * sz
        k4b = f * y * cz + pf * x * sz
        k4c = -f * sz
        k4d = hypot(x, y) if arc else 0.0
        x = ya + h * (19372.0 / 6561.0 * k1a - 25360.0 / 2187.0 * k2a
                      + 64448.0 / 6561.0 * k3a - 212.0 / 729.0 * k4a)
        y = yb + h * (19372.0 / 6561.0 * k1b - 25360.0 / 2187.0 * k2b
                      + 64448.0 / 6561.0 * k3b - 212.0 / 729.0 * k4b)
        z = yc + h * (19372.0 / 6561.0 * k1c - 25360.0 / 2187.0 * k2c
                      + 64448.0 / 6561.0 * k3c - 212.0 / 729.0 * k4c)
        ff = 1.0 - k * (x * x + y * y)
        f = sqrt(ff) if ff >= 0.0 else nan
        cz = cos(z)
        sz = sin(z)
        k5a = f * x * cz - pf * y * sz
        k5b = f * y * cz + pf * x * sz
        k5c = -f * sz
        k5d = hypot(x, y) if arc else 0.0
        x = ya + h * (9017.0 / 3168.0 * k1a - 355.0 / 33.0 * k2a
                      + 46732.0 / 5247.0 * k3a + 49.0 / 176.0 * k4a
                      - 5103.0 / 18656.0 * k5a)
        y = yb + h * (9017.0 / 3168.0 * k1b - 355.0 / 33.0 * k2b
                      + 46732.0 / 5247.0 * k3b + 49.0 / 176.0 * k4b
                      - 5103.0 / 18656.0 * k5b)
        z = yc + h * (9017.0 / 3168.0 * k1c - 355.0 / 33.0 * k2c
                      + 46732.0 / 5247.0 * k3c + 49.0 / 176.0 * k4c
                      - 5103.0 / 18656.0 * k5c)
        ff = 1.0 - k * (x * x + y * y)
        f = sqrt(ff) if ff >= 0.0 else nan
        cz = cos(z)
        sz = sin(z)
        k6a = f * x * cz - pf * y * sz
        k6b = f * y * cz + pf * x * sz
        k6c = -f * sz
        k6d = hypot(x, y) if arc else 0.0
        na = ya + h * (35.0 / 384.0 * k1a + 500.0 / 1113.0 * k3a
                       + 125.0 / 192.0 * k4a - 2187.0 / 6784.0 * k5a
                       + 11.0 / 84.0 * k6a)
        nb = yb + h * (35.0 / 384.0 * k1b + 500.0 / 1113.0 * k3b
                       + 125.0 / 192.0 * k4b - 2187.0 / 6784.0 * k5b
                       + 11.0 / 84.0 * k6b)
        nc = yc + h * (35.0 / 384.0 * k1c + 500.0 / 1113.0 * k3c
                       + 125.0 / 192.0 * k4c - 2187.0 / 6784.0 * k5c
                       + 11.0 / 84.0 * k6c)
        ff = 1.0 - k * (na * na + nb * nb)
        f = sqrt(ff) if ff >= 0.0 else nan
        cz = cos(nc)
        sz = sin(nc)
        k7a = f * na * cz - pf * nb * sz
        k7b = f * nb * cz + pf * na * sz
        k7c = -f * sz
        k7d = hypot(na, nb) if arc else 0.0
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
            rad = math.hypot(na, nb)
            if rad > rhi or rad < rlo:
                ca = _dense_terms(ya, na, k1a, k3a, k4a, k5a, k6a, k7a, h)
                cb = _dense_terms(yb, nb, k1b, k3b, k4b, k5b, k6b, k7b, h)
                th = _exit_fraction(ya, yb, ca, cb, rlo, rhi)
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
