"""The crossing loops, one per curvature: the sides crossed by the
unfolded geodesic.

``_cross_plane``, ``_cross_sphere`` and ``_cross_hyperbolic``, for
``_kernels.unfold_crossings``, follow the unfolded geodesic pulled back
one crossing at a time; they use no boundary (s, psi) coordinates, so
their labels are an independent route to the itinerary.  They pick a
side as the trace loops of :mod:`ccbilliards._collision_loops` do, by the
nearest crossing first with the full search of
:mod:`ccbilliards._side_search` where it misses its window, and are
written out per curvature by the same exact rewrites of the generic
step (that module's docstring lists them).

They live apart from the trace loops because only the unfolding calls
them: a process that traces, such as a diagonal search, never compiles
them.  ``_kernels.unfold_crossings`` imports this module on its first
call.
"""

import math

from ._side_search import INF, hyperbolic_search, plane_search, sphere_search


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
