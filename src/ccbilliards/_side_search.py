"""The straight-line loops' full side searches, one per curvature.

The loops of :mod:`ccbilliards._collision_loops` take the nearest
crossing first; when its arc parameter misses its side's window (a reflex
corner, a hole, a hit past the pad), they call the search for their
curvature here.  Each is the side search the loops once ran on every
bounce: the least (t, side) over the crossings past tmin whose arc
parameter lands in the side's window, the lowest side on a tie, where a
side no nearer than the best so far skips its arc parameter, which could
not change the pick.  No bounce of the square's jobs in the benchmark
workloads runs one (``tests/test_nonconvex.py``).

They live apart from the loops because the package may be compiled from
source on every run, as where the benchmark runs: with them, compiling
``_collision_loops`` grew the process's peak RSS by 2,432 KiB against
2,176 KiB without, and every workload's ``peak_rss_mb`` read 0.1-0.3 MB
higher (``BENCH_lean_kernels.json``).
"""

import math

INF = 1e300
# the sphere's ray-side roots t0 + m * pi for m = 0, 1, 2, as t0 + step
ROOT_STEPS = (0.0, math.pi, 2.0 * math.pi)


def plane_search(sides, px, py, vx, vy, tmin):
    """The plane loops' side search when the nearest crossing misses its
    window: (t, j, s, hit x, hit y), j = -1 when no crossing lands."""
    best_t = INF
    best_j = -1
    best_s = hx = hy = 0.0
    for j, nx, ny, nz, ax, ay, ux, uy, lo, hi in sides:
        b = nx * vx + ny * vy
        if -1e-15 < b < 1e-15:    # abs(b) < 1e-15 without the call
            continue
        t = -(nx * px + ny * py + nz) / b
        # a side no nearer than the best so far cannot win, whatever its
        # arc parameter
        if t <= tmin or not t < best_t:
            continue
        qx = px + t * vx
        qy = py + t * vy
        s = (qx - ax) * ux + (qy - ay) * uy
        if s < lo or s > hi:
            continue
        best_t, best_j, best_s, hx, hy = t, j, s, qx, qy
    return best_t, best_j, best_s, hx, hy


def sphere_search(sides, px, py, pz, vx, vy, vz, tmin):
    """The sphere loops' side search when the nearest crossing misses its
    window: (t, j, s, cos t, sin t, unnormalised hit point), j = -1 when
    no crossing lands."""
    best_t = INF
    best_j = -1
    best_s = hc = hs = hx = hy = hz = 0.0
    for j in range(len(sides)):
        nx, ny, nz, ax, ay, az, ux, uy, uz, lo, hi = sides[j]
        a = nx * px + ny * py + nz * pz
        b = nx * vx + ny * vy + nz * vz
        if -1e-15 < a < 1e-15 and -1e-15 < b < 1e-15:
            continue
        # roots repeat every pi along the great circle: take the first past
        # tmin that lands on the segment, unless it cannot beat the best
        # side so far
        t0 = math.atan2(-a, b) % math.pi
        for m in ROOT_STEPS:
            t = t0 + m
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
    return best_t, best_j, best_s, hc, hs, hx, hy, hz


def hyperbolic_search(sides, px, py, pz, vx, vy, vz, tmin):
    """The hyperbolic loops' side search when the nearest crossing misses
    its window: (t, j, s, cosh t, sinh t, unnormalised hit point), j = -1
    when no crossing lands."""
    best_t = INF
    best_j = -1
    best_s = hc = hs = hx = hy = hz = 0.0
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
    return best_t, best_j, best_s, hc, hs, hx, hy, hz
