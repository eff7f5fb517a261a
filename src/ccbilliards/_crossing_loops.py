"""Crossing labels of the unfolded geodesic: one straight-line loop per
curvature.

``_cross_plane``, ``_cross_sphere`` and ``_cross_hyperbolic`` follow the
unfolded line through the polygon copies, pulled back one crossing at a
time: each crossing takes the first side crossing past tmin whose arc
parameter lies within pad of the segment (the lowest side wins a tie),
records its 0-based side label and reflects the whole line in that side.
``_kernels.unfold_crossings`` picks one per call from k.  No boundary
(s, psi) coordinates are used, so the labels are an independent route to
the itinerary.

Each loop is the generic helpers of :mod:`ccbilliards._kernels`
(``ray_side_hit``, ``geodesic_point``, ``geodesic_dir``, ``renorm_*``)
written out for its k, with no call or branch on k per crossing, in the
manner of :mod:`ccbilliards._collision_loops`.  The hit point and the
incoming direction reuse the cos/sin (cosh/sinh) of the chosen flight
time, and a side whose crossing is no nearer than the best so far skips
its arc parameter, which could not change the pick.  Apart from the exact
rewrites ``-k * s`` -> ``-s`` (or ``s``), ``1.0 * p`` -> ``p`` and
``r * 1.0`` -> ``r``, every expression is the helper's, in its operation
order, so the loops give the generic code's bits: ``tests/kernel_oracle.py``
keeps the generic loop as the oracle.

``refl`` holds one reflection matrix per side as three row tuples
(``Polygon.reflection_pack``); the plane's act on homogeneous (x, y, 1)
points and on directions (x, y, 0).  Each loop writes the labels to the
caller's buffer and returns how many it wrote.
"""

import math

from ._collision_loops import INF, _side_records


def _cross_plane(sa, su, sn, sl, refl, p, v, nmax, tmin, pad, labels):
    # arrays or numpy scalars in, Python floats through the loop
    px, py, pz = float(p[0]), float(p[1]), float(p[2])
    vx, vy, vz = float(v[0]), float(v[1]), float(v[2])
    tmin, pad = float(tmin), float(pad)
    sides = _side_records(sa, su, sn, sl, pad)
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


def _cross_sphere(sa, su, sn, sl, refl, p, v, nmax, tmin, pad, labels):
    px, py, pz = float(p[0]), float(p[1]), float(p[2])
    vx, vy, vz = float(v[0]), float(v[1]), float(v[2])
    tmin, pad = float(tmin), float(pad)
    sides = _side_records(sa, su, sn, sl, pad)
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


def _cross_hyperbolic(sa, su, sn, sl, refl, p, v, nmax, tmin, pad, labels):
    px, py, pz = float(p[0]), float(p[1]), float(p[2])
    vx, vy, vz = float(v[0]), float(v[1]), float(v[2])
    tmin, pad = float(tmin), float(pad)
    sides = _side_records(sa, su, sn, sl, pad)
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
