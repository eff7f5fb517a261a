"""The generic scalar collision step and trace loop, the diagonal search
on ``trace_ray``, the generic crossing loop and the Dormand-Prince
integrator on generic field calls, kept as test oracles.

The package traces with one straight-line loop per curvature
(``_collision_loops._trace_plane``, ``_trace_sphere``,
``_trace_hyperbolic``).  This is the code they replaced: one step that
calls the generic geometry helpers, each branching on k, and one loop
around it.  The per-curvature loops must reproduce it bit for bit
(``test_kernels.py``).  The step's ray-side root ``ray_side_hit`` lives
here with it: only ``step_ray`` and the oracle ``unfold_crossings`` call
it.

``generalized_diagonals`` is the diagonal search as it was before its rays
went through ``collision._vertex_shooter``: a numpy launch per angle and a
``trace_ray`` per ray, whose ``TraceResult`` gives the signature.  The
package's search must find the same list bit for bit
(``test_collision.py``).

``unfold_crossings`` is the crossing loop on the generic helpers that
the per-curvature crossing loops ``_crossing_loops._cross_plane``,
``_cross_sphere`` and ``_cross_hyperbolic`` replaced, and ``rk45`` (with
``field_eval``, ``_dense_terms`` and ``_dense``) the integrator before
its field was picked once per run, its records went to Python lists and
its exit bisection stopped at the fixed point.  The package must give their
results bit for bit (``test_unfolding.py``, ``test_flow.py``).  The
oracle ``rk45`` carries the package's end-time rule: an accepted step
that lands past t1 records t1.

``integrate_polar_flow`` integrates the singular polar field (r, gamma,
beta) itself, on the oracle ``rk45`` with its own field id
``FIELD_POLAR``; the package integrates only the regularised chart field.
It is the numerical route to ``flow.closed_form_flow``
(``test_flow.py``) and records the ``polar_flow`` golden value
(``test_golden.py``).

``sweep_states`` is the sample loop of ``unfolding.find_periodic`` as it
was before the sweep moved to arrays: one ``BoundaryState`` per sample,
from scalar ``rng.random()`` draws.  ``unfolding._sweep_states`` must give
the same (side, s, psi) bits in the same order (``test_unfolding.py``).

``find_periodic`` (with ``canonical_sequence``, ``polish_row`` and
``flat_direction_check``) is the periodic-orbit search with its candidate
scan as it was before the scan learned one set lookup per candidate, and
before the sweep advanced all its samples one bounce at a time: the sweep
is traced whole, every sweep row with a near-return is sliced out of the
arrays and polished row by row, and each candidate's bounce sequence is
compared with the reports through its least rotation or reversal.  Its
polish takes the holonomy from a second trace through ``unfolding.unfold``
and tests the flat direction on that unfolding, where the package
composes the reflections over the polished trace's labels.
``unfolding.find_periodic`` must give equal reports
(``test_unfolding.py``).

``trace_many`` gathers the batched engine ``_batch.trace_columns`` into
(N, n) arrays, and ``columns`` reads such arrays back one bounce at a
time: the tests compare the engine by arrays, and feed a sweep from arrays
they traced once.  Like the sweep, it checks no state.

``same_orbit`` (with ``orbit_states``) is the same-orbit test of
``expansivity.probe_pair`` on the billiard map, built independently of
the traces the package reuses: it steps ``collision.collision_step`` one
bounce at a time from a and from a.reversed(), up to
``SAME_ORBIT_WINDOW`` bounces each way, and compares each iterate with b
in side, s and psi.  ``expansivity._same_orbit`` must give its verdicts
(``test_expansivity.py``).

``geodesics_intersect`` (with ``arc_param``) is the polygon builder's
boundary check on numpy 3-vectors, recomputing both side normals.
``geometry.geodesics_intersect``, on float triples and the stored
normals, must give the same verdicts (``test_geometry.py``).

``projected_contains`` is the ground truth for ``polygon.interior_contains``
off the boundary.  A central projection maps the geodesics to straight
lines: the plane as it is, the hyperboloid to the Klein disc (x/z, y/z),
the open upper hemisphere gnomonically to z = 1.  The even-odd rule then
runs on the projected loops (``test_polygon.py``).

``batch_trace_states`` (with ``batch_side_hits`` and the ``_batch_*``
helpers) is the batched engine in the form it had before its grids were
tiled: every grid operation broadcasts an (N, 1) ray column against the
(nsides,) side constants, the hit's point and cos/sin are recomputed from
t, every hit is tested against both vertices, and the sphere solves all
three roots t0 + m pi over the whole grid.  It bounces as the engine
does: a ray goes on from its normalised hit point and reflected unit
direction, and is embedded from (s, psi) only at the start and where s
was clamped; the incoming velocity is reflected unnormalised and only the
reflection normalised; psi reads the side's tangent unnormalised.
``_batch.trace_columns``, gathered by ``gather``, must give its (labels,
svals, psis) bit for bit, and ``_batch._side_hits`` its first hits
(``test_batch.py``).
"""

import math

import numpy as np

from ccbilliards import _batch as B
from ccbilliards import collision as C
from ccbilliards import expansivity as E
from ccbilliards import geometry as G
from ccbilliards import unfolding as U

from ccbilliards._kernels import (FIELD_CHART, FIELD_CHART_ARC, INF,
                                  RK_BUFFER_FULL, RK_DONE, RK_EXITED,
                                  RK_UNDERFLOW, STEP_ESCAPED, STEP_GRAZING,
                                  STEP_MAXLEN, STEP_OK, STEP_VERTEX,
                                  boundary_embed, cosk, distance,
                                  geodesic_dir, geodesic_point, log_map, mdot,
                                  perp, renorm_point, renorm_tangent,
                                  signed_angle, sink)
from ccbilliards.errors import DegenerateStateError
from ccbilliards.flow import DEFAULT_ATOL, DEFAULT_RTOL, ChartState


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
    return (tr.labels, tr.status, tr.vertex)


def record_if_diagonal(found, vi, alpha, tr, max_bounces, max_length):
    if tr.status != STEP_VERTEX or tr.n_done > max_bounces:
        return False
    if tr.length > max_length:
        return False
    seq = tr.labels
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

# the (r, gamma, beta) geodesic field of curvature k, which the package's
# rk45 does not integrate; an id of its own, apart from the chart fields'
FIELD_POLAR = max(FIELD_CHART, FIELD_CHART_ARC) + 1

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


def integrate_polar_flow(s0, t, k, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Integrate the singular polar field from s0 (r > 0) for time t.

    Returns the final ChartState with gamma unwrapped, comparable to
    ``flow.closed_form_flow``.  A radial ray integrates straight through
    the vertex (and on the sphere through the antipode) to a radius
    outside [0, pi] (k = 1) or below 0.  The field is invariant under
    (r, gamma, beta) -> (-r, gamma + pi, beta - pi), and on the sphere
    2 pi-periodic in r, so such an end state is returned in that form, the
    same point and direction with r >= 0.
    """
    y0 = (float(s0.r), float(s0.gamma), float(s0.beta))
    status, _, _, y_end = rk45(FIELD_POLAR, k, 0.0, y0, 0.0, t, rtol, atol,
                               -INF, INF, np.empty(1), np.empty((1, 3)), 0)
    assert status == RK_DONE, status
    r, gamma, beta = y_end[0], y_end[1], y_end[2]
    if k == 1 and not 0.0 <= r <= math.pi:
        r = math.remainder(r, 2.0 * math.pi)
    if r < 0.0:
        r, gamma, beta = -r, gamma + math.pi, beta - math.pi
    return ChartState(r, gamma, beta)


def sweep_states(poly, samples, seed):
    """The boundary states ``find_periodic`` sweeps, in sweep order."""
    rng = np.random.default_rng(seed)
    ns = poly.n_sides
    states = []
    per_side = max(1, samples // ns)
    n_s = max(1, int(math.sqrt(per_side / 3)))
    n_psi = max(1, per_side // n_s)
    for label in range(1, ns + 1):
        L = poly.side(label).length
        for a in U._CANONICAL_ANGLES:
            for frac in (0.25, 0.5, 0.75):
                states.append(C.BoundaryState(label, frac * L, a))
        for i in range(n_s):
            for j in range(n_psi):
                s = L * (i + 0.5 + 0.8 * (rng.random() - 0.5)) / n_s
                psi = math.pi * (j + 0.5 + 0.8 * (rng.random() - 0.5)) / n_psi
                s = min(max(s, 1e-6 * L), (1 - 1e-6) * L)
                psi = min(max(psi, 1e-3), math.pi - 1e-3)
                states.append(C.BoundaryState(label, s, psi))
    return states


def canonical_sequence(labels):
    """The least rotation or reversal of a cyclic bounce sequence."""
    seq = tuple(labels)
    best = None
    for cand in (seq, tuple(reversed(seq))):
        for r in range(len(cand)):
            rot = cand[r:] + cand[:r]
            if best is None or rot < best:
                best = rot
    return best


def gather(columns, nray, n, missing):
    """The columns of a ``trace_columns`` generator over nray rows and at
    most n bounces as (nray, n) arrays (labels, svals, psis), with label
    ``missing`` and nan past the bounce where a row stops."""
    labels = np.full((nray, n), missing, dtype=np.int64)
    svals = np.full((nray, n), np.nan)
    psis = np.full((nray, n), np.nan)
    for i, (idx, j, sc, ps) in enumerate(columns):
        labels[idx, i] = j
        svals[idx, i] = sc
        psis[idx, i] = ps
    return labels, svals, psis


def trace_many(poly, side, s, psi, n):
    """``_batch.trace_columns`` on the 1-based (side, s, psi) arrays as
    (N, n) arrays (labels, svals, psis): row r holds what ``trace`` records
    for state r, then label 0 and nan past its last bounce."""
    columns = B.trace_columns(poly.k, *poly.kernel_pack()[:7], side, s, psi,
                              n, U.SWEEP_BLOCK)
    return gather(columns, len(side), n, 0)


def columns(traced, n):
    """The ``trace_columns`` generator read off the first n columns of
    ``trace_many``'s arrays (labels, svals, psis)."""
    labels, svals, psis = traced
    for i in range(n):
        idx = np.flatnonzero(labels[:, i])
        yield idx, labels[idx, i], svals[idx, i], psis[idx, i]
        if idx.size == 0:
            return


def find_periodic(poly, max_bounces, samples, seed):
    """``unfolding.find_periodic`` with its row-by-row candidate scan."""
    start = side, s, psi = U._sweep_states(poly, samples, seed)
    labels, svals, psis = trace_many(poly, *start, max_bounces)
    disp = np.maximum(np.abs(svals - s[:, None]), np.abs(psis - psi[:, None]))
    hit = (labels == side[:, None]) & (disp < U.RETURN_CANDIDATE_TOL)
    reports = {}
    for r in np.flatnonzero(hit.any(axis=1)).tolist():
        b = C.BoundaryState(int(side[r]), float(s[r]), float(psi[r]))
        polish_row(poly, b, labels[r], np.flatnonzero(hit[r]).tolist(),
                   reports)
    return sorted(reports.values(), key=lambda r: (r.period, r.length, r.labels))


def polish_row(poly, b, labels, returns, reports):
    """Polish the near-returns of one sample until one settles its sequence.

    ``reports`` maps each reported sequence's ``canonical_sequence`` to its
    report; a return whose sweep sequence is there ends the row.
    """
    for i in returns:
        n = i + 1
        if canonical_sequence(labels[:n].tolist()) in reports:
            return
        refined = U._refine_candidate(poly, b.side, n, (b.s, b.psi))
        if refined is None:
            continue
        start, residual, rtr = refined
        key = canonical_sequence(rtr.labels)
        if key in reports:
            return
        res = U.unfold(start, poly, n)
        hol = U.holonomy(res.chain)
        if poly.k == 0 and not flat_direction_check(res):
            continue
        reports[key] = U.PeriodicOrbitReport(
            start, rtr.labels, float(np.sum(rtr.flights)), residual, hol)
        return


def flat_direction_check(res):
    """Flat periodicity certificate of the unfolding ``res``: its
    holonomy preserves the launch direction."""
    g = res.chain.holonomy_matrix()
    d = res.start_tangent.direction[:2]
    return float(np.linalg.norm(g[:2, :2] @ d - d)) < 1e-8


def orbit_states(poly, a, window):
    """a, then the billiard map's iterates f^i(a) and f^-i(a) for
    i = 1..window: ``collision.collision_step`` applied one bounce at a
    time to a and to a.reversed(), whose i-th iterate reversed is f^-i(a).
    Each direction ends early at a vertex or a grazing bounce."""
    states = [a]
    for start, back in ((a, False), (a.reversed(), True)):
        x = start
        for _ in range(window):
            try:
                x = C.collision_step(x, poly)
            except DegenerateStateError:
                break
            if isinstance(x, C.VertexHit):
                break
            states.append(x.reversed() if back else x)
    return states


def same_orbit(orbit, b):
    """Is b on the side of a state of ``orbit`` (from ``orbit_states``)
    and within SAME_ORBIT_TOL of it in both s and psi?"""
    return any(x.side == b.side and abs(x.s - b.s) < E.SAME_ORBIT_TOL
               and abs(x.psi - b.psi) < E.SAME_ORBIT_TOL for x in orbit)


def geodesics_intersect(a, a_len, b, b_len, k, end_tol=1e-12):
    """Whether two geodesic segments share an interior point.

    a and b are ``geometry.Geodesic`` records; endpoint contacts within
    end_tol of a segment end are ignored.
    """
    na = G.side_normal(a, k)
    nb = G.side_normal(b, k)
    candidates = []
    if k == 0:
        d = na[0] * nb[1] - na[1] * nb[0]
        if abs(d) < 1e-15:
            return False
        x = (-na[2] * nb[1] + nb[2] * na[1]) / d
        y = (-nb[2] * na[0] + na[2] * nb[0]) / d
        candidates.append(np.array([x, y, 1.0]))
    elif k == 1:
        q = np.cross(na, nb)
        nq = np.linalg.norm(q)
        if nq < 1e-14:
            return False
        candidates.append(q / nq)
        candidates.append(-q / nq)
    else:
        J = np.array([1.0, 1.0, -1.0])
        q = np.cross(J * na, J * nb)
        norm2 = q[0] ** 2 + q[1] ** 2 - q[2] ** 2
        if norm2 >= -1e-14:
            return False
        q = q * math.copysign(1.0, q[2]) / math.sqrt(-norm2)
        candidates.append(q)
    for q in candidates:
        sa = arc_param(q, a, k)
        sb = arc_param(q, b, k)
        if end_tol < sa < a_len - end_tol and end_tol < sb < b_len - end_tol:
            return True
    return False


def arc_param(q, g, k):
    if k == 0:
        return (q[0] - g.point[0]) * g.direction[0] + (q[1] - g.point[1]) * g.direction[1]
    if k == 1:
        return math.atan2(float(q @ g.direction), float(q @ g.point))
    return math.asinh(float(mdot(-1, q, g.direction)))


def projected_contains(poly, p):
    """Even-odd test of p against every boundary loop of poly, projected
    centrally to (x/z, y/z).  On the sphere every vertex must lie in the
    open upper hemisphere; the table then does too, and a point with
    z <= 0 is outside."""
    if poly.k == 1:
        if min(v[2] for v in poly.vertices) <= 0.0:
            raise ValueError("the gnomonic projection needs every vertex at z > 0")
        if p[2] <= 0.0:
            return False
    x, y = p[0] / p[2], p[1] / p[2]
    inside = False
    for base, count in poly.loops:
        pts = [(v[0] / v[2], v[1] / v[2])
               for v in poly.vertices[base:base + count]]
        for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]):
            if (ay > y) != (by > y) and x < ax + (y - ay) * (bx - ax) / (by - ay):
                inside = not inside
    return inside


def _batch_cos_sin(k, t):
    if k == 1:
        return np.cos(t), np.sin(t)
    return np.cosh(t), np.sinh(t)


def _batch_geodesic_point(k, p, v, t):
    if k == 0:
        # cos_0 = 1 exactly, so 1.0 * p drops out
        return p[0] + t * v[0], p[1] + t * v[1], p[2] + t * v[2]
    c, s = _batch_cos_sin(k, t)
    return c * p[0] + s * v[0], c * p[1] + s * v[1], c * p[2] + s * v[2]


def _batch_geodesic_dir(k, p, v, t):
    if k == 0:
        return v[0], v[1], np.zeros_like(v[0])
    c, s = _batch_cos_sin(k, t)
    ks = -k * s
    return ks * p[0] + c * v[0], ks * p[1] + c * v[1], ks * p[2] + c * v[2]


def _batch_renorm_point(k, p):
    if k == 1:
        n = np.sqrt(p[0] ** 2 + p[1] ** 2 + p[2] ** 2)
    elif k == -1:
        n = np.sqrt(p[2] ** 2 - p[0] ** 2 - p[1] ** 2)
    else:
        return p[0], p[1], np.ones_like(p[0])
    return p[0] / n, p[1] / n, p[2] / n


def _batch_renorm_tangent(k, p, v):
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


def _batch_distance(k, a, b):
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


def _batch_gather(vec, j):
    return tuple(x[j] for x in vec)


def _batch_boundary_embed(k, a, u, s, psi):
    bp = _batch_renorm_point(k, _batch_geodesic_point(k, a, u, s))
    w = _batch_renorm_tangent(k, bp, _batch_geodesic_dir(k, a, u, s))
    e2 = perp(k, bp, w)
    c = np.cos(psi)
    sn = np.sin(psi)
    d = (c * w[0] + sn * e2[0], c * w[1] + sn * e2[1], c * w[2] + sn * e2[2])
    return bp, _batch_renorm_tangent(k, bp, d)


def batch_side_hits(k, sides, p, v, tmin, pad):
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
        q = _batch_geodesic_point(0, p, v, t)
        s = (q[0] - sa[0]) * su[0] + (q[1] - sa[1]) * su[1]
        ok &= (s >= -pad) & (s <= sl + pad)
    elif k == -1:
        t = np.arctanh(-a / b)
        ok = (np.abs(b) > np.abs(a)) & (t > tmin)
        q = _batch_geodesic_point(-1, p, v, t)
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
            q = _batch_geodesic_point(1, p, v, tm)
            sm = np.arctan2(q[0] * su[0] + q[1] * su[1] + q[2] * su[2],
                            q[0] * sa[0] + q[1] * sa[1] + q[2] * sa[2])
            take = live & ~ok & (tm > tmin) & (sm >= -pad) & (sm <= sl + pad)
            t = np.where(take, tm, t)
            s = np.where(take, sm, s)
            ok |= take
    # a nan t fails `t < best_t` in the scalar loop; drop it here too
    ok &= t < INF
    return np.where(ok, t, INF), s


def _batch_step(k, sides, sv0, sv1, verts, p, v, tmin, tol_v, graze):
    """One bounce of the scalar trace loop for every ray: (ok, side, s,
    psi, q, r), ok False where it stops the ray (escape, vertex or
    grazing), s unclamped, q the normalised hit point and r the reflected
    unit direction."""
    sa, su, sn, sl = sides
    tgrid, sgrid = batch_side_hits(k, sides, p, v, tmin, tol_v)
    rows = np.arange(tgrid.shape[0])
    # argmin takes the first minimum: the lowest side index wins a tie,
    # and a ray with no hit (a row of INF) gets side 0
    j = np.argmin(tgrid, axis=1)
    t = tgrid[rows, j]
    s = sgrid[rows, j]

    q = _batch_renorm_point(k, _batch_geodesic_point(k, p, v, t))
    at0 = _batch_distance(k, q, tuple(verts[sv0[j], c]
                                      for c in range(3))) < tol_v
    at1 = _batch_distance(k, q, tuple(verts[sv1[j], c]
                                      for c in range(3))) < tol_v

    # the incoming velocity is reflected as it comes, and only the
    # reflection normalised
    w = _batch_geodesic_dir(k, p, v, t)
    if k == 0:
        d0 = su[0][j]
        d1 = su[1][j]
        c2 = w[0] * d0 + w[1] * d1
        r = (2.0 * c2 * d0 - w[0], 2.0 * c2 * d1 - w[1], np.zeros_like(c2))
    else:
        nj = _batch_gather(sn, j)
        c2 = mdot(k, w, nj)
        r = (w[0] - 2.0 * c2 * nj[0], w[1] - 2.0 * c2 * nj[1],
             w[2] - 2.0 * c2 * nj[2])
    r = _batch_renorm_tangent(k, q, r)
    # the side's tangent at the hit, unnormalised: atan2 takes no scale
    sd = _batch_geodesic_dir(k, _batch_gather(sa, j), _batch_gather(su, j), s)
    det = (q[0] * (sd[1] * r[2] - sd[2] * r[1])
           - q[1] * (sd[0] * r[2] - sd[2] * r[0])
           + q[2] * (sd[0] * r[1] - sd[1] * r[0]))
    psi = np.arctan2(det, mdot(k, sd, r))
    grazing = (psi < graze) | (psi > math.pi - graze)
    ok = (t < INF) & ~at0 & ~at1 & ~grazing
    return ok, j, s, psi, q, r


def batch_trace_states(k, sa, su, sn, sl, sv0, sv1, verts, side0, s0, psi0,
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
        p, v = _batch_boundary_embed(k, _batch_gather(sides[0], side0),
                                     _batch_gather(sides[1], side0), s0, psi0)
        idx = np.arange(nray)          # rays still live, in input order
        for i in range(nmax):
            ok, j, s, psi, q, r = _batch_step(k, sides, sv0, sv1, verts, p,
                                              v, tmin, tol_v, graze)
            idx, j, s, psi = idx[ok], j[ok], s[ok], psi[ok]
            sc = np.minimum(np.maximum(s, 0.0), sl[j])
            labels[idx, i] = j
            svals[idx, i] = sc
            psis[idx, i] = psi
            if idx.size == 0 or i + 1 == nmax:
                break
            # a ray goes on from its hit point and reflected direction, and
            # from boundary_embed of the clamped state where s was clamped
            redo = sc != s
            bp, bv = _batch_boundary_embed(k, _batch_gather(sides[0], j),
                                           _batch_gather(sides[1], j), sc, psi)
            p = tuple(np.where(redo, b, a[ok]) for a, b in zip(q, bp))
            v = tuple(np.where(redo, b, a[ok]) for a, b in zip(r, bv))
    return labels, svals, psis
