"""Model conventions, side normals, isometries and the boundary check.

Points are embedded in R^3 (unit sphere for k = +1, upper hyperboloid sheet
for k = -1 with the Minkowski form diag(1, 1, -1), affine plane z = 1 for
k = 0); see :mod:`ccbilliards._kernels` for the conventions and for the
float-triple helpers the package calls directly.  All lengths are in
curvature-normalized units (|k| = 1), all angles in radians.

This module serves the polygon builder and the input checks: the model
checks and coordinates (the Poincare disc is an input/output convention
only), side geodesics and their interior-positive normals as numpy
3-vectors, segment distance, side reflections as 3x3 isometries, and the
boundary-intersection test, which runs on float triples.
"""

import math
from typing import NamedTuple

import numpy as np

from . import _kernels as K
from .errors import GeometryError

POINT_TOL = 1e-12

CURVATURES = (-1, 0, 1)


def check_curvature(k):
    if k not in CURVATURES:
        raise GeometryError(f"curvature must be one of -1, 0, +1, got {k!r}")
    return int(k)


def as_vec3(x):
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.shape != (3,):
        raise GeometryError(f"expected a 3-vector, got shape {v.shape}")
    return v


def point_defect(p, k):
    """Relative deviation of p from the model quadric (0 for a valid point)."""
    p = as_vec3(p)
    if k == 1:
        return abs(p @ p - 1.0)
    if k == -1:
        if p[2] <= 0:
            return math.inf
        return abs(p[0] ** 2 + p[1] ** 2 - p[2] ** 2 + 1.0) / (p[2] ** 2)
    return abs(p[2] - 1.0)


def normalize_point(p, k):
    p = as_vec3(p)
    check_curvature(k)
    if point_defect(p, k) > 1e-6:
        raise GeometryError(f"point {p} is not near the k={k} model surface")
    return np.array(K.renorm_point(k, p))


class Geodesic(NamedTuple):
    """Arc-length parameterized geodesic through ``point`` along ``direction``."""

    point: np.ndarray
    direction: np.ndarray


def geodesic_through(a, b, k):
    """The geodesic from point a toward point b (a != b, not antipodal)."""
    a = normalize_point(a, k)
    b = normalize_point(b, k)
    d = K.distance(k, a, b)
    if d < POINT_TOL:
        raise GeometryError("coincident points do not determine a geodesic")
    if k == 1 and d > math.pi - 1e-9:
        raise GeometryError("antipodal points do not determine a unique geodesic")
    return Geodesic(a, np.array(K.log_map(k, a, b)))


def side_normal(g, k):
    """Interior-positive functional of the geodesic g.

    k != 0: unit normal of the plane through the origin spanned by the
    geodesic (Minkowski-normalized for k = -1).  k = 0: (m_x, m_y, -m.A)
    so that the plain dot with (x, y, 1) is the signed distance to the
    line, positive on the left of the direction of travel.
    """
    p, u = g.point, g.direction
    if k == 0:
        m = np.array([-u[1], u[0], 0.0])
        return np.array([m[0], m[1], -(m[0] * p[0] + m[1] * p[1])])
    n = np.array(K.perp(k, p, u))
    return n / math.sqrt(abs(K.mdot(k, n, n)))


def geodesics_intersect(a, b, k, end_tol=1e-12):
    """Whether two geodesic segments share an interior point.

    Each segment is (point, direction, normal, length): its start point,
    unit start tangent and interior-positive normal (``side_normal``) as
    float triples, and its length.  Endpoint contacts within end_tol of a
    segment end are ignored, so adjacent polygon sides meeting at a vertex
    do not count.
    """
    (pa, ua, na, la), (pb, ub, nb, lb) = a, b
    if k == -1:
        na, nb = (na[0], na[1], -na[2]), (nb[0], nb[1], -nb[2])
    # the line the two planes share; for k = 0 the lines' crossing point
    q = (na[1] * nb[2] - na[2] * nb[1], na[2] * nb[0] - na[0] * nb[2],
         na[0] * nb[1] - na[1] * nb[0])
    if k == 0:
        if abs(q[2]) < 1e-15:
            return False
        candidates = (q[0] / q[2], q[1] / q[2], 1.0),
    elif k == 1:
        nq = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2])
        if nq < 1e-14:
            return False
        q = q[0] / nq, q[1] / nq, q[2] / nq
        candidates = q, (-q[0], -q[1], -q[2])
    else:
        norm2 = q[0] ** 2 + q[1] ** 2 - q[2] ** 2
        if norm2 >= -1e-14:
            return False
        r = math.copysign(math.sqrt(-norm2), q[2])
        candidates = (q[0] / r, q[1] / r, q[2] / r),
    for q in candidates:
        if k == 0:
            sa = (q[0] - pa[0]) * ua[0] + (q[1] - pa[1]) * ua[1]
            sb = (q[0] - pb[0]) * ub[0] + (q[1] - pb[1]) * ub[1]
        elif k == 1:
            sa = math.atan2(K.mdot(1, q, ua), K.mdot(1, q, pa))
            sb = math.atan2(K.mdot(1, q, ub), K.mdot(1, q, pb))
        else:
            sa, sb = math.asinh(K.mdot(-1, q, ua)), math.asinh(K.mdot(-1, q, ub))
        if end_tol < sa < la - end_tol and end_tol < sb < lb - end_tol:
            return True
    return False


def _arc_param(q, g, k):
    if k == 0:
        return (q[0] - g.point[0]) * g.direction[0] + (q[1] - g.point[1]) * g.direction[1]
    if k == 1:
        return math.atan2(float(q @ g.direction), float(q @ g.point))
    return math.asinh(float(K.mdot(-1, q, g.direction)))


def segment_distance(p, g, seg_len, k):
    """Distance from a point to a geodesic segment."""
    p = as_vec3(p)
    a = g.point
    b = K.renorm_point(k, K.geodesic_point(k, a, g.direction, seg_len))
    n = side_normal(g, k)
    c = float(K.mdot(k, n, p))
    if k == 0:
        foot = np.array([p[0] - c * n[0], p[1] - c * n[1], 1.0])
        line_d = abs(c)
    elif k == 1:
        f = p - c * n
        nf = np.linalg.norm(f)
        if nf < 1e-12:
            return min(K.distance(1, p, a), K.distance(1, p, b))
        foot = f / nf
        line_d = abs(math.asin(min(1.0, abs(c))))
    else:
        f = p - c * n
        foot = f / math.sqrt(-(f[0] ** 2 + f[1] ** 2 - f[2] ** 2))
        line_d = abs(math.asinh(c))
    s = _arc_param(foot, g, k)
    if 0.0 <= s <= seg_len:
        return line_d
    return min(float(K.distance(k, p, a)), float(K.distance(k, p, b)))


# --- input/output coordinate conventions -----------------------------------

def plane_point(x, y):
    return np.array([float(x), float(y), 1.0])


def sphere_point(x, y, z):
    p = np.array([float(x), float(y), float(z)])
    n = np.linalg.norm(p)
    if abs(n - 1.0) > 1e-6:
        raise GeometryError(f"sphere point must be a unit 3-vector, |p| = {n:.6g}")
    return p / n


def poincare_to_hyperboloid(u, v):
    r2 = float(u) ** 2 + float(v) ** 2
    if r2 >= 1.0:
        raise GeometryError(f"Poincare disc point must have norm < 1, got {math.sqrt(r2):.6g}")
    d = 1.0 - r2
    return np.array([2.0 * u / d, 2.0 * v / d, (1.0 + r2) / d])


# --- isometries as 3x3 matrices ---------------------------------------------

def reflection_matrix(side, k):
    """Matrix of the reflection across a geodesic.

    Orthogonal for k = +1, Minkowski-orthogonal for k = -1, and an affine
    map of the z = 1 plane in homogeneous form for k = 0.
    """
    if k == 0:
        u = side.direction
        a = side.point
        m2 = np.array([[2 * u[0] ** 2 - 1, 2 * u[0] * u[1]],
                       [2 * u[0] * u[1], 2 * u[1] ** 2 - 1]])
        t = np.array([a[0], a[1]]) - m2 @ np.array([a[0], a[1]])
        out = np.eye(3)
        out[:2, :2] = m2
        out[:2, 2] = t
        return out
    n = side_normal(side, k)
    if k == 1:
        return np.eye(3) - 2.0 * np.outer(n, n)
    J = np.diag([1.0, 1.0, -1.0])
    return np.eye(3) - 2.0 * np.outer(n, J @ n)


def apply_isometry(mat, p, k):
    q = mat @ as_vec3(p)
    # far hyperboloid images lose the quadric constraint to cancellation
    # (coordinates ~ exp(distance)); renormalize only while it is reliable
    if k == -1:
        norm2 = q[2] ** 2 - q[0] ** 2 - q[1] ** 2
        if not 0.25 < norm2 < 4.0:
            return q
    return np.array(K.renorm_point(k, q))

