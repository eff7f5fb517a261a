"""The straight-line loops, one per curvature: the collision map and the
crossings of the unfolded geodesic.

``_trace_plane``, ``_trace_sphere`` and ``_trace_hyperbolic`` iterate the
collision map from an interior ray, for ``_kernels.trace_orbit`` and
``_kernels.trace_from_point``.  ``_cross_plane``, ``_cross_sphere`` and
``_cross_hyperbolic``, for ``_kernels.unfold_crossings``, follow the
unfolded geodesic pulled back one crossing at a time; they use no
boundary (s, psi) coordinates, so their labels are an independent route
to the itinerary.  Both pick a side by the same rule.

Each loop is the generic helpers of :mod:`ccbilliards._kernels`
(``ray_side_hit``, ``boundary_embed``, ``geodesic_*``, ``renorm_*``,
``perp``, ...) written out for its k, with no call or branch on k per
bounce.  It reuses the cos/sin (cosh/sinh) of a flight time or arc
parameter, the plane's trace computes each side's unit tangent once per
trace, and a side whose crossing is no nearer than the best so far skips
its arc parameter, which could not change the pick.  Apart from the exact
rewrites ``-k * s`` -> ``-s`` (or ``s``), ``1.0 * p`` -> ``p`` and
``r * 1.0`` -> ``r``, every expression is the helper's, in its operation
order, so the loops give the generic code's bits (``tests/kernel_oracle.py``
keeps the generic code as the oracle).  The loops run on Python floats:
the ``_kernels`` entries hand them the ray as two float triples, every
scalar as a float and the sides as ``_side_records``, converted once per
call.

The loops live apart from the ``_kernels`` helpers because compiling one
module with both, from source, peaks about 1 MB higher than compiling the
two.  Each loop keeps its side search written out: sharing it through one
function per curvature puts a call into every bounce, which cost 3-18%
per bounce on the plane and 4-9% on the sphere (diagonal-search fan rays,
one process, 2 vCPUs) and read 3% slower end to end on diagonal-search.
"""

import math

INF = 1e300

# step / trace status codes
STEP_OK = 0
STEP_VERTEX = 1
STEP_GRAZING = 2
STEP_ESCAPED = 3
STEP_MAXLEN = 4

# A trace loop iterates the collision map from the interior ray (p, v).  A
# bounce takes the first side crossing past tmin whose arc parameter lies
# within tol_v of the segment (the side records' pad; the lowest side wins
# a tie), tests the hit against the side's two vertices, reflects the
# incoming direction, measures the outgoing angle psi from the side's
# forward tangent, stops on a grazing angle and clamps the arc parameter
# to the side.  Each loop fills the per-bounce buffers and returns
# (n_done, status, vertex, length), vertex 0-based on STEP_VERTEX, else
# -1; length includes the final leg on a vertex hit.  On STEP_GRAZING the
# rejected bounce is left in slot n_done of the buffers.


def _side_records(sa, su, sn, sl, pad):
    # per side: functional, start point, start tangent, arc window
    return tuple(n + a + u + (-pad, ln + pad)
                 for a, u, n, ln in zip(sa, su, sn, sl))


def _trace_plane(sides, sl, sv0, sv1, verts, p, v, nmax, maxlen, tmin, tol_v,
                 graze, labels, svals, psis, flens):
    px, py, pz = p
    vx, vy, vz = v
    # a side's unit tangent depends on neither the point nor the arc
    # parameter on the plane
    tangents = []
    for side in sides:
        n = math.hypot(side[6], side[7])
        tangents.append((side[6] / n, side[7] / n))
    total = 0.0
    for i in range(nmax):
        best_t = INF
        best_j = -1
        for j in range(len(sides)):
            nx, ny, nz, ax, ay, _, ux, uy, _, lo, hi = sides[j]
            b = nx * vx + ny * vy + nz * vz
            if -1e-15 < b < 1e-15:    # abs(b) < 1e-15 without the call
                continue
            t = -(nx * px + ny * py + nz * pz) / b
            # a side no nearer than the best so far cannot win, whatever
            # its arc parameter
            if t <= tmin or not t < best_t:
                continue
            qx = px + t * vx
            qy = py + t * vy
            s = (qx - ax) * ux + (qy - ay) * uy
            if s < lo or s > hi:
                continue
            best_t, best_j, best_s, hx, hy = t, j, s, qx, qy
        if best_j < 0:
            return i, STEP_ESCAPED, -1, total
        for vtx in (sv0[best_j], sv1[best_j]):
            w = verts[vtx]
            if math.hypot(hx - w[0], hy - w[1]) < tol_v:
                return i, STEP_VERTEX, vtx, total + best_t
        n = math.hypot(vx, vy)
        wx = vx / n
        wy = vy / n
        _, _, _, ax, ay, _, ux, uy, _, _, _ = sides[best_j]
        c2 = wx * ux + wy * uy
        rx = 2.0 * c2 * ux - wx
        ry = 2.0 * c2 * uy - wy
        n = math.hypot(rx, ry)
        rx = rx / n
        ry = ry / n
        tx, ty = tangents[best_j]
        # signed_angle at (hx, hy, 1) with the zero z-components kept, so
        # that a zero rounds to the same sign
        psi = math.atan2(hx * (ty * 0.0 - 0.0 * ry)
                         - hy * (tx * 0.0 - 0.0 * rx) + (tx * ry - ty * rx),
                         tx * rx + ty * ry + 0.0)
        if psi < graze or psi > math.pi - graze:
            labels[i], svals[i], psis[i] = best_j, best_s, psi
            flens[i] = best_t
            return i, STEP_GRAZING, -1, total
        s = best_s
        if s < 0.0:
            s = 0.0
        if s > sl[best_j]:
            s = sl[best_j]
        labels[i], svals[i], psis[i], flens[i] = best_j, s, psi, best_t
        total += best_t
        if total > maxlen:
            return i + 1, STEP_MAXLEN, -1, total
        if i + 1 < nmax:
            px = ax + s * ux
            py = ay + s * uy
            pz = 1.0
            c = math.cos(psi)
            sn_psi = math.sin(psi)
            dx = c * tx - sn_psi * ty
            dy = c * ty + sn_psi * tx
            n = math.hypot(dx, dy)
            vx = dx / n
            vy = dy / n
            vz = 0.0
    return nmax, STEP_OK, -1, total


def _trace_sphere(sides, sl, sv0, sv1, verts, p, v, nmax, maxlen, tmin,
                  tol_v, graze, labels, svals, psis, flens):
    px, py, pz = p
    vx, vy, vz = v
    pi = math.pi
    total = 0.0
    for i in range(nmax):
        best_t = INF
        best_j = -1
        for j in range(len(sides)):
            nx, ny, nz, ax, ay, az, ux, uy, uz, lo, hi = sides[j]
            a = nx * px + ny * py + nz * pz
            b = nx * vx + ny * vy + nz * vz
            if -1e-15 < a < 1e-15 and -1e-15 < b < 1e-15:
                continue
            # roots repeat every pi along the great circle: take the first
            # past tmin that lands on the segment, unless it cannot beat the
            # best side so far
            t0 = math.atan2(-a, b) % pi
            for m in range(3):
                t = t0 + m * pi
                if t <= tmin:
                    continue
                if not t < best_t:
                    break
                ct = math.cos(t)
                st = math.sin(t)
                qx = ct * px + st * vx
                qy = ct * py + st * vy
                qz = ct * pz + st * vz
                s = math.atan2(qx * ux + qy * uy + qz * uz,
                               qx * ax + qy * ay + qz * az)
                if lo <= s <= hi:
                    best_t, best_j, best_s = t, j, s
                    hc, hs, hx, hy, hz = ct, st, qx, qy, qz
                    break
        if best_j < 0:
            return i, STEP_ESCAPED, -1, total
        n = math.sqrt(hx ** 2 + hy ** 2 + hz ** 2)
        qx = hx / n
        qy = hy / n
        qz = hz / n
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
        n = math.sqrt(abs(gx * gx + gy * gy + gz * gz))
        wx = gx / n
        wy = gy / n
        wz = gz / n
        # reflected in the side's great circle
        nx, ny, nz, ax, ay, az, ux, uy, uz, _, _ = sides[best_j]
        c2 = wx * nx + wy * ny + wz * nz
        gx = wx - 2.0 * c2 * nx
        gy = wy - 2.0 * c2 * ny
        gz = wz - 2.0 * c2 * nz
        c = gx * qx + gy * qy + gz * qz
        gx = gx - c * qx
        gy = gy - c * qy
        gz = gz - c * qz
        n = math.sqrt(abs(gx * gx + gy * gy + gz * gz))
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
        n = math.sqrt(abs(gx * gx + gy * gy + gz * gz))
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
        if s > sl[best_j]:
            s = sl[best_j]
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
            n = math.sqrt(abs(gx * gx + gy * gy + gz * gz))
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
            n = math.sqrt(abs(gx * gx + gy * gy + gz * gz))
            vx = gx / n
            vy = gy / n
            vz = gz / n
    return nmax, STEP_OK, -1, total


def _trace_hyperbolic(sides, sl, sv0, sv1, verts, p, v, nmax, maxlen, tmin,
                      tol_v, graze, labels, svals, psis, flens):
    px, py, pz = p
    vx, vy, vz = v
    total = 0.0
    for i in range(nmax):
        best_t = INF
        best_j = -1
        for j in range(len(sides)):
            nx, ny, nz, ax, ay, az, ux, uy, uz, lo, hi = sides[j]
            a = nx * px + ny * py - nz * pz
            b = nx * vx + ny * vy - nz * vz
            if abs(b) <= abs(a):
                continue
            t = math.atanh(-a / b)
            if t <= tmin or not t < best_t:
                continue
            ct = math.cosh(t)
            st = math.sinh(t)
            qx = ct * px + st * vx
            qy = ct * py + st * vy
            qz = ct * pz + st * vz
            s = math.asinh(qx * ux + qy * uy - qz * uz)
            if s < lo or s > hi:
                continue
            best_t, best_j, best_s = t, j, s
            hc, hs, hx, hy, hz = ct, st, qx, qy, qz
        if best_j < 0:
            return i, STEP_ESCAPED, -1, total
        n = math.sqrt(hz ** 2 - hx ** 2 - hy ** 2)
        qx = hx / n
        qy = hy / n
        qz = hz / n
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
        nx, ny, nz, ax, ay, az, ux, uy, uz, _, _ = sides[best_j]
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
        if s > sl[best_j]:
            s = sl[best_j]
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


def _cross_plane(sides, refl, p, v, nmax, tmin, labels):
    px, py, pz = p
    vx, vy, vz = v
    for m in range(nmax):
        best_t = INF
        best_j = -1
        for j in range(len(sides)):
            nx, ny, nz, ax, ay, _, ux, uy, _, lo, hi = sides[j]
            b = nx * vx + ny * vy + nz * vz
            if -1e-15 < b < 1e-15:    # abs(b) < 1e-15 without the call
                continue
            t = -(nx * px + ny * py + nz * pz) / b
            # a side no nearer than the best so far cannot win, whatever
            # its arc parameter
            if t <= tmin or not t < best_t:
                continue
            qx = px + t * vx
            qy = py + t * vy
            s = (qx - ax) * ux + (qy - ay) * uy
            if s < lo or s > hi:
                continue
            best_t, best_j, hx, hy = t, j, qx, qy
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
        pz = 1.0
        dx = r00 * wx + r01 * wy + r02 * 0.0
        dy = r10 * wx + r11 * wy + r12 * 0.0
        n = math.hypot(dx, dy)
        vx = dx / n
        vy = dy / n
        vz = 0.0
    return nmax


def _cross_sphere(sides, refl, p, v, nmax, tmin, labels):
    px, py, pz = p
    vx, vy, vz = v
    pi = math.pi
    for m in range(nmax):
        best_t = INF
        best_j = -1
        for j in range(len(sides)):
            nx, ny, nz, ax, ay, az, ux, uy, uz, lo, hi = sides[j]
            a = nx * px + ny * py + nz * pz
            b = nx * vx + ny * vy + nz * vz
            if -1e-15 < a < 1e-15 and -1e-15 < b < 1e-15:
                continue
            # roots repeat every pi along the great circle: take the first
            # past tmin that lands on the segment, unless it cannot beat the
            # best side so far
            t0 = math.atan2(-a, b) % pi
            for mm in range(3):
                t = t0 + mm * pi
                if t <= tmin:
                    continue
                if not t < best_t:
                    break
                ct = math.cos(t)
                st = math.sin(t)
                qx = ct * px + st * vx
                qy = ct * py + st * vy
                qz = ct * pz + st * vz
                s = math.atan2(qx * ux + qy * uy + qz * uz,
                               qx * ax + qy * ay + qz * az)
                if lo <= s <= hi:
                    best_t, best_j = t, j
                    hc, hs, hx, hy, hz = ct, st, qx, qy, qz
                    break
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
        n = math.sqrt(abs(gx * gx + gy * gy + gz * gz))
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
        n = math.sqrt(abs(gx * gx + gy * gy + gz * gz))
        vx = gx / n
        vy = gy / n
        vz = gz / n
    return nmax


def _cross_hyperbolic(sides, refl, p, v, nmax, tmin, labels):
    px, py, pz = p
    vx, vy, vz = v
    for m in range(nmax):
        best_t = INF
        best_j = -1
        for j in range(len(sides)):
            nx, ny, nz, ax, ay, az, ux, uy, uz, lo, hi = sides[j]
            a = nx * px + ny * py - nz * pz
            b = nx * vx + ny * vy - nz * vz
            if abs(b) <= abs(a):
                continue
            t = math.atanh(-a / b)
            if t <= tmin or not t < best_t:
                continue
            ct = math.cosh(t)
            st = math.sinh(t)
            qx = ct * px + st * vx
            qy = ct * py + st * vy
            qz = ct * pz + st * vz
            s = math.asinh(qx * ux + qy * uy - qz * uz)
            if s < lo or s > hi:
                continue
            best_t, best_j = t, j
            hc, hs, hx, hy, hz = ct, st, qx, qy, qz
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
