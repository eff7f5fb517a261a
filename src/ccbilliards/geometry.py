"""Geometry kernel for the three constant-curvature models.

Points are embedded in R^3 (unit sphere for k = +1, upper hyperboloid sheet
for k = -1 with the Minkowski form diag(1, 1, -1), affine plane z = 1 for
k = 0); see :mod:`ccbilliards._kernels` for the conventions.  All lengths
are in curvature-normalized units (|k| = 1), all angles in radians.

The Poincare disc is supported purely as an input/output coordinate
convention via :func:`poincare_to_hyperboloid` / :func:`hyperboloid_to_poincare`.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .errors import GeometryError

ON_CURVE_TOL = 1e-10
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


def tangent_defect(p, v, k):
    """Relative deviation of the nonzero v from the tangent plane at p."""
    p = as_vec3(p)
    v = as_vec3(v)
    if k == 0:
        return abs(v[2]) / math.sqrt(v @ v)
    return abs(K.mdot(k, p, v)) / math.sqrt((p @ p) * (v @ v))


def normalize_point(p, k):
    p = as_vec3(p)
    check_curvature(k)
    if point_defect(p, k) > 1e-6:
        raise GeometryError(f"point {p} is not near the k={k} model surface")
    return np.array(K.renorm_point(k, p))


def tangent_at(p, v, k):
    """Project v into the tangent space at p and normalize to unit length."""
    p = as_vec3(p)
    v = as_vec3(v)
    norm = math.sqrt(abs(K.mdot(k, v, v)))
    if norm < 1e-300:
        raise GeometryError("zero tangent vector")
    return np.array(K.renorm_tangent(k, p, v))


@dataclass(frozen=True)
class Tangent:
    """A unit tangent vector: base point plus direction."""

    point: np.ndarray
    direction: np.ndarray

    def reversed(self):
        return Tangent(self.point, -self.direction)


@dataclass(frozen=True)
class Geodesic:
    """Arc-length parameterized geodesic through ``point`` along ``direction``."""

    point: np.ndarray
    direction: np.ndarray


def geodesic(p, v, k):
    p = normalize_point(p, k)
    return Geodesic(p, tangent_at(p, v, k))


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


def distance(a, b, k):
    """Metric distance; equals pi for antipodal points on the sphere."""
    check_curvature(k)
    return float(K.distance(k, as_vec3(a), as_vec3(b)))


def geodesic_at(g, t, k):
    """Point and forward direction after arc length t along g."""
    q = K.renorm_point(k, K.geodesic_point(k, g.point, g.direction, t))
    w = K.renorm_tangent(k, q, K.geodesic_dir(k, g.point, g.direction, t))
    return Tangent(np.array(q), np.array(w))


def angle_between(u, v, k):
    """Unsigned angle in [0, pi] between tangents at a common base point."""
    if K.distance(k, u.point, v.point) > ON_CURVE_TOL:
        raise GeometryError("angle_between requires tangents at the same point")
    # chordal form: exact at 0 and stable at pi (the metric is positive
    # definite on tangent spaces for every curvature)
    d = u.direction - v.direction
    ch = math.sqrt(abs(float(K.mdot(k, d, d))))
    s = u.direction + v.direction
    cs = math.sqrt(abs(float(K.mdot(k, s, s))))
    return 2.0 * math.atan2(0.5 * ch, 0.5 * cs)


def signed_angle(u, v, k):
    """CCW angle from u to v in (-pi, pi], in the oriented tangent plane."""
    if K.distance(k, u.point, v.point) > ON_CURVE_TOL:
        raise GeometryError("signed_angle requires tangents at the same point")
    return float(K.signed_angle(k, u.point, u.direction, v.direction))


def rotate_tangent(t, angle, k):
    """Rotate a tangent CCW by ``angle`` within its tangent plane."""
    e2 = np.array(K.perp(k, t.point, t.direction))
    d = math.cos(angle) * t.direction + math.sin(angle) * e2
    return Tangent(t.point, np.array(K.renorm_tangent(k, t.point, d)))


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


def point_side_value(p, normal, k):
    """Signed functional value of p against a side normal (0 on the curve)."""
    return float(K.mdot(k, normal, as_vec3(p)))


def point_on_geodesic(p, g, k, tol=ON_CURVE_TOL):
    n = side_normal(g, k)
    v = point_side_value(p, n, k)
    if k == 1:
        return abs(math.asin(min(1.0, abs(v)))) <= tol
    if k == -1:
        return abs(math.asinh(v)) <= tol
    return abs(v) <= tol


def reflect(t, side, k):
    """Mirror a tangent across a geodesic its base point lies on.

    Tangential component is preserved, normal component negated; the map is
    an involution.
    """
    if not point_on_geodesic(t.point, side, k):
        raise GeometryError("reflect: tangent base does not lie on the mirror geodesic")
    d = t.direction
    if k == 0:
        u = side.direction
        c = d[0] * u[0] + d[1] * u[1]
        r = np.array([2.0 * c * u[0] - d[0], 2.0 * c * u[1] - d[1], 0.0])
    else:
        n = side_normal(side, k)
        c = K.mdot(k, d, n)
        r = d - 2.0 * c * n
    return Tangent(t.point, np.array(K.renorm_tangent(k, t.point, r)))


def geodesic_side_intersection(g, side, side_len, k, t_min=1e-12):
    """First forward intersection of g with a geodesic segment.

    Returns (t, s) with t > t_min the arc length along g and s in
    [0, side_len] the arc parameter on the segment, or None when the two
    curves do not meet.
    """
    n = side_normal(side, k)
    t, s = K.ray_side_hit(k, g.point, g.direction, side.point, side.direction,
                          n, side_len, t_min, 1e-12)
    if t >= K.INF:
        return None
    return float(t), float(min(max(s, 0.0), side_len))


def geodesics_intersect(a, a_len, b, b_len, k, end_tol=1e-12):
    """Whether two geodesic segments share an interior point.

    Endpoint contacts within end_tol of a segment end are ignored, so
    adjacent polygon sides meeting at a vertex do not count.
    """
    na = side_normal(a, k)
    nb = side_normal(b, k)
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
        sa = _arc_param(q, a, k)
        sb = _arc_param(q, b, k)
        if end_tol < sa < a_len - end_tol and end_tol < sb < b_len - end_tol:
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


def hyperboloid_to_poincare(p):
    p = as_vec3(p)
    return np.array([p[0] / (1.0 + p[2]), p[1] / (1.0 + p[2])])


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

