"""The straight-line loops, one per curvature: the collision map and the
crossings of the unfolded geodesic.

``_trace_plane``, ``_trace_sphere`` and ``_trace_hyperbolic`` iterate the
collision map from an interior ray, for ``_kernels.trace_orbit`` and
``_kernels.trace_from_point``.  ``_cross_plane``, ``_cross_sphere`` and
``_cross_hyperbolic``, for ``_kernels.unfold_crossings``, follow the
unfolded geodesic pulled back one crossing at a time; they use no
boundary (s, psi) coordinates, so their labels are an independent route
to the itinerary.  Both pick a side by the same rule.

Each loop is the generic step written out for its k, with no call or
branch on k per bounce: the ray-side root (``ray_side_hit``, which only
the oracle ``tests/kernel_oracle.py`` keeps) and the helpers of
:mod:`ccbilliards._kernels` (``boundary_embed``, ``geodesic_*``,
``renorm_*``, ``perp``, ...).  It reuses the cos/sin (cosh/sinh) of a
flight time or arc parameter.  Apart from exact rewrites, every
expression is the helper's, in its operation order, so the loops give
the bits of the generic step and loops that the oracle keeps.  The
rewrites, and why each is exact:

* ``-k * s`` -> ``-s`` (or ``s``), ``1.0 * p`` -> ``p`` and ``r * 1.0``
  -> ``r``.
* Plane side search: ``a = nx*px + ny*py + nz`` and ``b = nx*vx +
  ny*vy``.  The plane loops take only rays on z = 1 with zero z-direction,
  where ``nz * 1.0 == nz`` and ``nz * 0.0`` is a signed zero that can
  only flip the sign of a zero b, which the |b| < 1e-15 test skips.
  ``embed_state``, the vertex launches and every bounce put the ray there
  exactly, and ``collision.check_ray`` projects a library ray there.
* Plane psi: ``signed_angle`` at (hx, hy, 1) with zero z-components adds
  ``hx * (ty*0.0 - 0.0*ry) - hy * (tx*0.0 - 0.0*rx)``, a signed zero, to
  the determinant ``tx*ry - ty*rx``; that changes nothing unless the
  determinant is 0, so the terms are added only then.
* Sphere roots: ``t0 + m`` for m in ``_side_search.ROOT_STEPS`` =
  ``(0.0, pi, 2.0 * pi)``, which are ``0 * pi``, ``1 * pi`` and ``2 *
  pi`` exactly (``t0 + 0.0`` is ``t0 + 0 * pi``); the first pass takes
  ``t0`` itself for ``t0 + 0.0``, the same float, since a remainder mod
  pi is never -0.0.
* Sphere norms: ``sqrt(x*x + y*y + z*z)`` without the ``abs`` of the
  helper's ``sqrt(abs(mdot(o, o)))``: a sum of squares is never below +0.

``x ** 2`` stays ``x ** 2`` wherever the helper has it: ``x * x`` is
correctly rounded and libm's ``pow`` is not quite, so the two differ (on
1,760 of 2,000,000 random doubles in [-2, 2] on an x86-64 Linux build of
CPython 3.11).  The loops run on Python floats: the ``_kernels`` entries
hand them the ray as two float triples and every scalar as a float, and
the sides ready-made.  ``side_records`` builds those once per polygon
(``Polygon.kernel_pack``, at the pad ``VERTEX_TOL``): one flat tuple per
side, on the plane each side's unit tangent, which depends on neither the
point nor the arc parameter, and each side's (j, nx, ny, nz), its index
and functional.

Every loop picks the side by the nearest crossing first.  The generic
step's pick is the least (t, side) over the crossings past tmin whose arc
parameter lands in the side's window.  A first pass reads only the
functionals, takes each side's first crossing past tmin from a and b
alone (on the sphere the first root t0 + m pi), and keeps the least, the
lowest side on a tie.  Every other crossing of every side comes at that
time or later, so when the least one's arc parameter lands, it is the
pick, computed by the same expressions from the same operands; only that
side's record is unpacked.  So the loops compute one arc parameter per
bounce, the nearest crossing's: in a convex table it is the exit.  When
it misses its window (a reflex corner, a hole, a hit past the pad), the
full search ``plane_search``, ``sphere_search`` or ``hyperbolic_search``
of :mod:`ccbilliards._side_search` picks the side.  On the hyperboloid
a full search over the functionals, which unpacks a record only for a
side past tmin and nearer than the best, evaluates about 1.3 arc
parameters per bounce on the built-in tables; it took 0.95x (trace) and
0.92x (crossings) the time of the search over full records, and the
nearest crossing first 0.92x and 0.89x (two trees in one process, 2
vCPUs; see ``BENCH_lean_kernels.json``).

A trace loop tests a hit against the side's two vertices only when its
arc parameter s lies within ``tol_v + VERTEX_WINDOW`` of either end of
the side: between those bands no vertex can be within tol_v, so the
verdict is the one both tests would give.  Let w0 and w1 be the side's
start and end vertex, sl its length, and q the hit at distance e from the
side's geodesic.  Then d(q, w0) >= |s| and d(q, w1) >= |sl - s|:

* plane: s is the projection of q - w0 on the side's unit tangent, and
  a projection on a unit vector is no longer than the vector;
* sphere: cos d(q, w0) = cos e cos s, so d >= s while s <= pi/2 and
  d >= pi/2 beyond, where cos s <= 0 (side lengths are below pi);
* hyperbolic: cosh d(q, w0) = cosh e cosh s >= cosh s;

and the same with sl - s for w1, whose arc parameter is sl.  The loops
compute s from the stored start point and tangent, not from w0 and w1,
so the bound holds up to the rounding of s and of the start point and
the point at arc sl against the vertices.  ``tests/test_kernels.py``
checks that those lie within 1e-12 of the vertices on the built-in
tables, and on generated ones within 50 eps h^6 (eps = 2**-52, h the
largest vertex height on the hyperboloid, at least 1: a fit to measured
gaps, which grow like h^6; 1e-12 at height 2.1).  Farther out the
float64 geometry drifts by itself (some 1e-10 at Poincare radius 0.9,
3e-8 at 0.95 and 3e-6 at 0.99, where the VERTEX_TOL test already sits
below the rounding), so ``build_polygon`` rejects a table whose side
misses its end vertex by more than ``VERTEX_TOL / 10``
(``polygon.SIDE_END_TOL``), and ``VERTEX_WINDOW`` = 1e-4 keeps a margin
of 1e6 on every table it builds.
The rounding of s is far smaller.  Of the diagonal search's recorded
bounces, 588 of 11,908 on the square land within 1e-4 of a side end (372
within 1e-6), and none of 839 on the theta = 1 sphere triangle.

The loops live apart from the ``_kernels`` helpers, and from the full
side searches, because compiling one module with both, from source,
peaks higher than compiling the two (about 1 MB with the helpers, 0.25
MB with the searches).  Each loop keeps its first pass written out:
sharing a side search through one function per curvature puts a call
into every bounce, which cost 3-18% per bounce on the plane and 4-9% on
the sphere (diagonal-search fan rays, one process, 2 vCPUs) and read 3%
slower end to end on diagonal-search.
"""

import math

from ._side_search import INF, hyperbolic_search, plane_search, sphere_search

# step / trace status codes
STEP_OK = 0
STEP_VERTEX = 1
STEP_GRAZING = 2
STEP_ESCAPED = 3
STEP_MAXLEN = 4

VERTEX_TOL = 1e-9     # vertex-hit cutoff, model length units
FLIGHT_MIN = 1e-9     # minimum accepted flight between collisions
GRAZE_TOL = 1e-9      # outgoing angles within this of {0, pi} are degenerate
# a trace loop tests a hit against the side's vertices only within
# tol_v + VERTEX_WINDOW of a side end (see the module docstring)
VERTEX_WINDOW = 1e-4

# A trace loop iterates the collision map from the interior ray (p, v).  A
# bounce takes the first side crossing past tmin whose arc parameter lies
# within tol_v of the segment (the side records' pad; the lowest side wins
# a tie), tests the hit against the side's two vertices when it lands near
# a side end, reflects the incoming direction, measures the outgoing angle
# psi from the side's forward tangent, stops on a grazing angle and clamps
# the arc parameter to the side.  Each loop fills the per-bounce buffers
# and returns (n_done, status, vertex, length), vertex 0-based on
# STEP_VERTEX, else -1; length includes the final leg on a vertex hit.  On
# STEP_GRAZING the rejected bounce is left in slot n_done of the buffers.


def side_records(k, sa, su, sn, sl, pad):
    """The sides as the loops read them, for a polygon's (sa, su, sn, sl).

    Returns (records, tangents, functionals): per side one flat tuple; on
    the plane each side's unit tangent (x, y), elsewhere (); and per side
    (j, nx, ny, nz), its index and functional, which the loops' first pass
    reads alone.  A sphere or hyperboloid record is (functional, start
    point, start tangent, arc window [-pad, length + pad]) as floats.  A
    plane record is (j, nx, ny, nz, ax, ay, ux, uy, lo, hi): the side's
    index, its functional, the (x, y) of its start point and start
    tangent, and the arc window.
    """
    functionals = tuple((j, n[0], n[1], n[2]) for j, n in enumerate(sn))
    if k != 0:
        return tuple(n + a + u + (-pad, ln + pad)
                     for a, u, n, ln in zip(sa, su, sn, sl)), (), functionals
    records = tuple((j, n[0], n[1], n[2], a[0], a[1], u[0], u[1],
                     -pad, ln + pad)
                    for j, (a, u, n, ln) in enumerate(zip(sa, su, sn, sl)))
    tangents = []
    for u in su:
        n = math.hypot(u[0], u[1])
        tangents.append((u[0] / n, u[1] / n))
    return records, tuple(tangents), functionals


def _trace_plane(sides, tangents, funcs, sl, sv0, sv1, verts, p, v, nmax,
                 maxlen, tmin, tol_v, graze, labels, svals, psis, flens):
    # the ray lies on z = 1 with zero z-direction
    px, py, _ = p
    vx, vy, _ = v
    near = tol_v + VERTEX_WINDOW
    total = 0.0
    for i in range(nmax):
        best_t = INF
        for j, nx, ny, nz in funcs:
            b = nx * vx + ny * vy
            if -1e-15 < b < 1e-15:    # abs(b) < 1e-15 without the call
                continue
            t = -(nx * px + ny * py + nz) / b
            if tmin < t < best_t:
                best_t, best_j = t, j
        if best_t == INF:
            return i, STEP_ESCAPED, -1, total
        j = best_j
        _, _, _, _, ax, ay, ux, uy, lo, hi = sides[j]
        hx = px + best_t * vx
        hy = py + best_t * vy
        best_s = (hx - ax) * ux + (hy - ay) * uy
        if best_s < lo or best_s > hi:
            best_t, j, best_s, hx, hy = plane_search(sides, px, py, vx, vy,
                                                     tmin)
            if j < 0:
                return i, STEP_ESCAPED, -1, total
            _, _, _, _, ax, ay, ux, uy, _, _ = sides[j]
        ln = sl[j]
        if not near < best_s < ln - near:
            for vtx in (sv0[j], sv1[j]):
                w = verts[vtx]
                if math.hypot(hx - w[0], hy - w[1]) < tol_v:
                    return i, STEP_VERTEX, vtx, total + best_t
        n = math.hypot(vx, vy)
        wx = vx / n
        wy = vy / n
        c2 = wx * ux + wy * uy
        rx = 2.0 * c2 * ux - wx
        ry = 2.0 * c2 * uy - wy
        n = math.hypot(rx, ry)
        rx = rx / n
        ry = ry / n
        tx, ty = tangents[j]
        # signed_angle at (hx, hy, 1): its zero z-components add a signed
        # zero, which can only change the sign of a zero determinant
        det = tx * ry - ty * rx
        if det == 0.0:
            det = hx * (ty * 0.0 - 0.0 * ry) - hy * (tx * 0.0 - 0.0 * rx) + det
        psi = math.atan2(det, tx * rx + ty * ry + 0.0)
        if psi < graze or psi > math.pi - graze:
            labels[i], svals[i], psis[i] = j, best_s, psi
            flens[i] = best_t
            return i, STEP_GRAZING, -1, total
        s = best_s
        if s < 0.0:
            s = 0.0
        if s > ln:
            s = ln
        labels[i], svals[i], psis[i], flens[i] = j, s, psi, best_t
        total += best_t
        if total > maxlen:
            return i + 1, STEP_MAXLEN, -1, total
        if i + 1 < nmax:
            px = ax + s * ux
            py = ay + s * uy
            c = math.cos(psi)
            sn_psi = math.sin(psi)
            dx = c * tx - sn_psi * ty
            dy = c * ty + sn_psi * tx
            n = math.hypot(dx, dy)
            vx = dx / n
            vy = dy / n
    return nmax, STEP_OK, -1, total


def _trace_sphere(sides, tangents, funcs, sl, sv0, sv1, verts, p, v, nmax,
                  maxlen, tmin, tol_v, graze, labels, svals, psis, flens):
    px, py, pz = p
    vx, vy, vz = v
    pi = math.pi
    pi2 = 2.0 * pi
    near = tol_v + VERTEX_WINDOW
    total = 0.0
    for i in range(nmax):
        best_t = INF
        best_j = -1
        for j, nx, ny, nz in funcs:
            a = nx * px + ny * py + nz * pz
            b = nx * vx + ny * vy + nz * vz
            if -1e-15 < a < 1e-15 and -1e-15 < b < 1e-15:
                continue
            # the side's first root t0 + m pi past tmin (t0 + 0.0 is t0)
            t0 = math.atan2(-a, b) % pi
            t = t0
            if t <= tmin:
                t = t0 + pi
                if t <= tmin:
                    t = t0 + pi2
                    if t <= tmin:
                        continue
            if t < best_t:
                best_t, best_j = t, j
        if best_j >= 0:
            nx, ny, nz, ax, ay, az, ux, uy, uz, lo, hi = sides[best_j]
            hc = math.cos(best_t)
            hs = math.sin(best_t)
            hx = hc * px + hs * vx
            hy = hc * py + hs * vy
            hz = hc * pz + hs * vz
            best_s = math.atan2(hx * ux + hy * uy + hz * uz,
                                hx * ax + hy * ay + hz * az)
            if not lo <= best_s <= hi:
                (best_t, best_j, best_s, hc, hs, hx, hy,
                 hz) = sphere_search(sides, px, py, pz, vx, vy, vz, tmin)
                nx, ny, nz, ax, ay, az, ux, uy, uz, lo, hi = sides[best_j]
        if best_j < 0:
            return i, STEP_ESCAPED, -1, total
        n = math.sqrt(hx ** 2 + hy ** 2 + hz ** 2)
        qx = hx / n
        qy = hy / n
        qz = hz / n
        ln = sl[best_j]
        if not near < best_s < ln - near:
            for vtx in (sv0[best_j], sv1[best_j]):
                w = verts[vtx]
                h = 0.5 * math.sqrt((qx - w[0]) ** 2 + (qy - w[1]) ** 2
                                    + (qz - w[2]) ** 2)
                if h > 1.0:
                    h = 1.0
                if 2.0 * math.asin(h) < tol_v:
                    return i, STEP_VERTEX, vtx, total + best_t
        # incoming direction at the hit
        gx = -hs * px + hc * vx
        gy = -hs * py + hc * vy
        gz = -hs * pz + hc * vz
        c = gx * qx + gy * qy + gz * qz
        gx = gx - c * qx
        gy = gy - c * qy
        gz = gz - c * qz
        n = math.sqrt(gx * gx + gy * gy + gz * gz)
        wx = gx / n
        wy = gy / n
        wz = gz / n
        # reflected in the side's great circle
        c2 = wx * nx + wy * ny + wz * nz
        gx = wx - 2.0 * c2 * nx
        gy = wy - 2.0 * c2 * ny
        gz = wz - 2.0 * c2 * nz
        c = gx * qx + gy * qy + gz * qz
        gx = gx - c * qx
        gy = gy - c * qy
        gz = gz - c * qz
        n = math.sqrt(gx * gx + gy * gy + gz * gz)
        rx = gx / n
        ry = gy / n
        rz = gz / n
        # the side's forward tangent at the hit
        cs = math.cos(best_s)
        ss = math.sin(best_s)
        gx = -ss * ax + cs * ux
        gy = -ss * ay + cs * uy
        gz = -ss * az + cs * uz
        c = gx * qx + gy * qy + gz * qz
        gx = gx - c * qx
        gy = gy - c * qy
        gz = gz - c * qz
        n = math.sqrt(gx * gx + gy * gy + gz * gz)
        tx = gx / n
        ty = gy / n
        tz = gz / n
        psi = math.atan2(qx * (ty * rz - tz * ry) - qy * (tx * rz - tz * rx)
                         + qz * (tx * ry - ty * rx),
                         tx * rx + ty * ry + tz * rz)
        if psi < graze or psi > pi - graze:
            labels[i], svals[i], psis[i] = best_j, best_s, psi
            flens[i] = best_t
            return i, STEP_GRAZING, -1, total
        s = best_s
        if s < 0.0:
            s = 0.0
        if s > ln:
            s = ln
        labels[i], svals[i], psis[i], flens[i] = best_j, s, psi, best_t
        total += best_t
        if total > maxlen:
            return i + 1, STEP_MAXLEN, -1, total
        if i + 1 < nmax:
            # boundary_embed(1, sa[j], su[j], s, psi)
            if s != best_s:
                cs = math.cos(s)
                ss = math.sin(s)
            gx = cs * ax + ss * ux
            gy = cs * ay + ss * uy
            gz = cs * az + ss * uz
            n = math.sqrt(gx ** 2 + gy ** 2 + gz ** 2)
            px = gx / n
            py = gy / n
            pz = gz / n
            gx = -ss * ax + cs * ux
            gy = -ss * ay + cs * uy
            gz = -ss * az + cs * uz
            c = gx * px + gy * py + gz * pz
            gx = gx - c * px
            gy = gy - c * py
            gz = gz - c * pz
            n = math.sqrt(gx * gx + gy * gy + gz * gz)
            wx = gx / n
            wy = gy / n
            wz = gz / n
            c = math.cos(psi)
            sn_psi = math.sin(psi)
            gx = c * wx + sn_psi * (py * wz - pz * wy)
            gy = c * wy + sn_psi * (pz * wx - px * wz)
            gz = c * wz + sn_psi * (px * wy - py * wx)
            c = gx * px + gy * py + gz * pz
            gx = gx - c * px
            gy = gy - c * py
            gz = gz - c * pz
            n = math.sqrt(gx * gx + gy * gy + gz * gz)
            vx = gx / n
            vy = gy / n
            vz = gz / n
    return nmax, STEP_OK, -1, total


def _trace_hyperbolic(sides, tangents, funcs, sl, sv0, sv1, verts, p, v,
                      nmax, maxlen, tmin, tol_v, graze, labels, svals, psis,
                      flens):
    px, py, pz = p
    vx, vy, vz = v
    near = tol_v + VERTEX_WINDOW
    total = 0.0
    for i in range(nmax):
        best_t = INF
        best_j = -1
        for j, nx, ny, nz in funcs:
            a = nx * px + ny * py - nz * pz
            b = nx * vx + ny * vy - nz * vz
            if abs(b) <= abs(a):
                continue
            t = math.atanh(-a / b)
            if tmin < t < best_t:
                best_t, best_j = t, j
        if best_j >= 0:
            nx, ny, nz, ax, ay, az, ux, uy, uz, lo, hi = sides[best_j]
            hc = math.cosh(best_t)
            hs = math.sinh(best_t)
            hx = hc * px + hs * vx
            hy = hc * py + hs * vy
            hz = hc * pz + hs * vz
            best_s = math.asinh(hx * ux + hy * uy - hz * uz)
            if best_s < lo or best_s > hi:
                (best_t, best_j, best_s, hc, hs, hx, hy,
                 hz) = hyperbolic_search(sides, px, py, pz, vx, vy, vz, tmin)
                nx, ny, nz, ax, ay, az, ux, uy, uz, lo, hi = sides[best_j]
        if best_j < 0:
            return i, STEP_ESCAPED, -1, total
        n = math.sqrt(hz ** 2 - hx ** 2 - hy ** 2)
        qx = hx / n
        qy = hy / n
        qz = hz / n
        ln = sl[best_j]
        if not near < best_s < ln - near:
            for vtx in (sv0[best_j], sv1[best_j]):
                w = verts[vtx]
                d0 = qx - w[0]
                d1 = qy - w[1]
                d2 = qz - w[2]
                h = d0 * d0 + d1 * d1 - d2 * d2
                if h < 0.0:
                    h = 0.0
                if 2.0 * math.asinh(0.5 * math.sqrt(h)) < tol_v:
                    return i, STEP_VERTEX, vtx, total + best_t
        # incoming direction at the hit
        gx = hs * px + hc * vx
        gy = hs * py + hc * vy
        gz = hs * pz + hc * vz
        c = gx * qx + gy * qy - gz * qz
        gx = gx + c * qx
        gy = gy + c * qy
        gz = gz + c * qz
        n = math.sqrt(abs(gx * gx + gy * gy - gz * gz))
        wx = gx / n
        wy = gy / n
        wz = gz / n
        # reflected in the side's geodesic
        c2 = wx * nx + wy * ny - wz * nz
        gx = wx - 2.0 * c2 * nx
        gy = wy - 2.0 * c2 * ny
        gz = wz - 2.0 * c2 * nz
        c = gx * qx + gy * qy - gz * qz
        gx = gx + c * qx
        gy = gy + c * qy
        gz = gz + c * qz
        n = math.sqrt(abs(gx * gx + gy * gy - gz * gz))
        rx = gx / n
        ry = gy / n
        rz = gz / n
        # the side's forward tangent at the hit
        cs = math.cosh(best_s)
        ss = math.sinh(best_s)
        gx = ss * ax + cs * ux
        gy = ss * ay + cs * uy
        gz = ss * az + cs * uz
        c = gx * qx + gy * qy - gz * qz
        gx = gx + c * qx
        gy = gy + c * qy
        gz = gz + c * qz
        n = math.sqrt(abs(gx * gx + gy * gy - gz * gz))
        tx = gx / n
        ty = gy / n
        tz = gz / n
        psi = math.atan2(qx * (ty * rz - tz * ry) - qy * (tx * rz - tz * rx)
                         + qz * (tx * ry - ty * rx),
                         tx * rx + ty * ry - tz * rz)
        if psi < graze or psi > math.pi - graze:
            labels[i], svals[i], psis[i] = best_j, best_s, psi
            flens[i] = best_t
            return i, STEP_GRAZING, -1, total
        s = best_s
        if s < 0.0:
            s = 0.0
        if s > ln:
            s = ln
        labels[i], svals[i], psis[i], flens[i] = best_j, s, psi, best_t
        total += best_t
        if total > maxlen:
            return i + 1, STEP_MAXLEN, -1, total
        if i + 1 < nmax:
            # boundary_embed(-1, sa[j], su[j], s, psi)
            if s != best_s:
                cs = math.cosh(s)
                ss = math.sinh(s)
            gx = cs * ax + ss * ux
            gy = cs * ay + ss * uy
            gz = cs * az + ss * uz
            n = math.sqrt(gz ** 2 - gx ** 2 - gy ** 2)
            px = gx / n
            py = gy / n
            pz = gz / n
            gx = ss * ax + cs * ux
            gy = ss * ay + cs * uy
            gz = ss * az + cs * uz
            c = gx * px + gy * py - gz * pz
            gx = gx + c * px
            gy = gy + c * py
            gz = gz + c * pz
            n = math.sqrt(abs(gx * gx + gy * gy - gz * gz))
            wx = gx / n
            wy = gy / n
            wz = gz / n
            c = math.cos(psi)
            sn_psi = math.sin(psi)
            gx = c * wx + sn_psi * (py * wz - pz * wy)
            gy = c * wy + sn_psi * (pz * wx - px * wz)
            gz = c * wz + sn_psi * -(px * wy - py * wx)
            c = gx * px + gy * py - gz * pz
            gx = gx + c * px
            gy = gy + c * py
            gz = gz + c * pz
            n = math.sqrt(abs(gx * gx + gy * gy - gz * gz))
            vx = gx / n
            vy = gy / n
            vz = gz / n
    return nmax, STEP_OK, -1, total


TRACE_LOOPS = {0: _trace_plane, 1: _trace_sphere, -1: _trace_hyperbolic}


# A crossing loop follows the unfolded line from the interior ray (p, v):
# each crossing takes the side as a bounce does, writes its 0-based label
# to the buffer and reflects the whole line in it; the loop returns the
# count.  refl holds one reflection matrix per side as three row tuples
# (``Polygon.reflection_pack``), the plane's acting on (x, y, 1) points
# and (x, y, 0) directions.


def _cross_plane(sides, funcs, refl, p, v, nmax, tmin, labels):
    # the line lies on z = 1 with zero z-direction; reflections keep it so
    px, py, _ = p
    vx, vy, _ = v
    for m in range(nmax):
        best_t = INF
        for j, nx, ny, nz in funcs:
            b = nx * vx + ny * vy
            if -1e-15 < b < 1e-15:    # abs(b) < 1e-15 without the call
                continue
            t = -(nx * px + ny * py + nz) / b
            if tmin < t < best_t:
                best_t, best_j = t, j
        if best_t == INF:
            return m
        _, _, _, _, ax, ay, ux, uy, lo, hi = sides[best_j]
        hx = px + best_t * vx
        hy = py + best_t * vy
        s = (hx - ax) * ux + (hy - ay) * uy
        if s < lo or s > hi:
            best_t, best_j, _, hx, hy = plane_search(sides, px, py, vx, vy,
                                                     tmin)
            if best_j < 0:
                return m
        labels[m] = best_j
        # the incoming direction does not depend on the flight time
        n = math.hypot(vx, vy)
        wx = vx / n
        wy = vy / n
        # the hit (hx, hy, 1) and the direction (wx, wy, 0) reflected; the
        # zero z-term is kept, so that a zero sum rounds to the same sign
        (r00, r01, r02), (r10, r11, r12), _ = refl[best_j]
        px = r00 * hx + r01 * hy + r02
        py = r10 * hx + r11 * hy + r12
        dx = r00 * wx + r01 * wy + r02 * 0.0
        dy = r10 * wx + r11 * wy + r12 * 0.0
        n = math.hypot(dx, dy)
        vx = dx / n
        vy = dy / n
    return nmax


def _cross_sphere(sides, funcs, refl, p, v, nmax, tmin, labels):
    px, py, pz = p
    vx, vy, vz = v
    pi = math.pi
    pi2 = 2.0 * pi
    for m in range(nmax):
        best_t = INF
        best_j = -1
        for j, nx, ny, nz in funcs:
            a = nx * px + ny * py + nz * pz
            b = nx * vx + ny * vy + nz * vz
            if -1e-15 < a < 1e-15 and -1e-15 < b < 1e-15:
                continue
            # the side's first root t0 + m pi past tmin (t0 + 0.0 is t0)
            t0 = math.atan2(-a, b) % pi
            t = t0
            if t <= tmin:
                t = t0 + pi
                if t <= tmin:
                    t = t0 + pi2
                    if t <= tmin:
                        continue
            if t < best_t:
                best_t, best_j = t, j
        if best_j >= 0:
            nx, ny, nz, ax, ay, az, ux, uy, uz, lo, hi = sides[best_j]
            hc = math.cos(best_t)
            hs = math.sin(best_t)
            hx = hc * px + hs * vx
            hy = hc * py + hs * vy
            hz = hc * pz + hs * vz
            best_s = math.atan2(hx * ux + hy * uy + hz * uz,
                                hx * ax + hy * ay + hz * az)
            if not lo <= best_s <= hi:
                (best_t, best_j, best_s, hc, hs, hx, hy,
                 hz) = sphere_search(sides, px, py, pz, vx, vy, vz, tmin)
        if best_j < 0:
            return m
        labels[m] = best_j
        n = math.sqrt(hx ** 2 + hy ** 2 + hz ** 2)
        qx = hx / n
        qy = hy / n
        qz = hz / n
        # incoming direction at the hit
        gx = -hs * px + hc * vx
        gy = -hs * py + hc * vy
        gz = -hs * pz + hc * vz
        c = gx * qx + gy * qy + gz * qz
        gx = gx - c * qx
        gy = gy - c * qy
        gz = gz - c * qz
        n = math.sqrt(gx * gx + gy * gy + gz * gz)
        wx = gx / n
        wy = gy / n
        wz = gz / n
        # the line reflected in the side's great circle
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = refl[best_j]
        gx = r00 * qx + r01 * qy + r02 * qz
        gy = r10 * qx + r11 * qy + r12 * qz
        gz = r20 * qx + r21 * qy + r22 * qz
        n = math.sqrt(gx ** 2 + gy ** 2 + gz ** 2)
        px = gx / n
        py = gy / n
        pz = gz / n
        gx = r00 * wx + r01 * wy + r02 * wz
        gy = r10 * wx + r11 * wy + r12 * wz
        gz = r20 * wx + r21 * wy + r22 * wz
        c = gx * px + gy * py + gz * pz
        gx = gx - c * px
        gy = gy - c * py
        gz = gz - c * pz
        n = math.sqrt(gx * gx + gy * gy + gz * gz)
        vx = gx / n
        vy = gy / n
        vz = gz / n
    return nmax


def _cross_hyperbolic(sides, funcs, refl, p, v, nmax, tmin, labels):
    px, py, pz = p
    vx, vy, vz = v
    for m in range(nmax):
        best_t = INF
        best_j = -1
        for j, nx, ny, nz in funcs:
            a = nx * px + ny * py - nz * pz
            b = nx * vx + ny * vy - nz * vz
            if abs(b) <= abs(a):
                continue
            t = math.atanh(-a / b)
            if tmin < t < best_t:
                best_t, best_j = t, j
        if best_j >= 0:
            _, _, _, _, _, _, ux, uy, uz, lo, hi = sides[best_j]
            hc = math.cosh(best_t)
            hs = math.sinh(best_t)
            hx = hc * px + hs * vx
            hy = hc * py + hs * vy
            hz = hc * pz + hs * vz
            s = math.asinh(hx * ux + hy * uy - hz * uz)
            if s < lo or s > hi:
                (_, best_j, _, hc, hs, hx, hy,
                 hz) = hyperbolic_search(sides, px, py, pz, vx, vy, vz, tmin)
        if best_j < 0:
            return m
        labels[m] = best_j
        n = math.sqrt(hz ** 2 - hx ** 2 - hy ** 2)
        qx = hx / n
        qy = hy / n
        qz = hz / n
        # incoming direction at the hit
        gx = hs * px + hc * vx
        gy = hs * py + hc * vy
        gz = hs * pz + hc * vz
        c = gx * qx + gy * qy - gz * qz
        gx = gx + c * qx
        gy = gy + c * qy
        gz = gz + c * qz
        n = math.sqrt(abs(gx * gx + gy * gy - gz * gz))
        wx = gx / n
        wy = gy / n
        wz = gz / n
        # the line reflected in the side's geodesic
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = refl[best_j]
        gx = r00 * qx + r01 * qy + r02 * qz
        gy = r10 * qx + r11 * qy + r12 * qz
        gz = r20 * qx + r21 * qy + r22 * qz
        n = math.sqrt(gz ** 2 - gx ** 2 - gy ** 2)
        px = gx / n
        py = gy / n
        pz = gz / n
        gx = r00 * wx + r01 * wy + r02 * wz
        gy = r10 * wx + r11 * wy + r12 * wz
        gz = r20 * wx + r21 * wy + r22 * wz
        c = gx * px + gy * py - gz * pz
        gx = gx + c * px
        gy = gy + c * py
        gz = gz + c * pz
        n = math.sqrt(abs(gx * gx + gy * gy - gz * gz))
        vx = gx / n
        vy = gy / n
        vz = gz / n
    return nmax


CROSSING_LOOPS = {0: _cross_plane, 1: _cross_sphere, -1: _cross_hyperbolic}
