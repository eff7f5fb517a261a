"""Polygon tables on a constant-curvature surface.

A table is an ordered outer loop of vertices plus optional hole loops
(planar-type tables: a disc with holes).  Sides are minimizing geodesic
segments; the interior lies on the left of the directed boundary, so the
outer loop runs counterclockwise and hole loops clockwise.  Reversed input
is auto-corrected and flagged.

The two-sheet "double surface" obtained by gluing two copies of the table
along the boundary is represented by :class:`DoubleSurfacePoint`; boundary
points identify across sheets.
"""

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as K
from . import geometry as G
from .errors import GeometryError, PolygonError

VERTEX_SEP_TOL = 1e-9
BOUNDARY_TOL = 1e-10
# largest distance between a side's end vertex and the point at arc
# length ``length`` on its stored geodesic.  The collision loops test a
# hit against the vertices only near a side end, which presumes the two
# agree far below VERTEX_TOL; float64 loses that on hyperbolic tables
# with vertices out near Poincare radius 0.9 (see build_polygon).
SIDE_END_TOL = K.VERTEX_TOL / 10

MODELS = ("plane", "poincare-disc", "unit-sphere")
MODEL_FOR_K = {0: "plane", -1: "poincare-disc", 1: "unit-sphere"}


@dataclass(frozen=True)
class Side:
    """One geodesic boundary segment, directed with the interior on its left."""

    start: int            # vertex index (0-based, into Polygon.vertices)
    end: int
    loop: int
    geodesic: G.Geodesic
    normal: np.ndarray    # interior-positive functional
    length: float


# compared by identity: the fields hold arrays and lazy caches
@dataclass(eq=False)
class Polygon:
    k: int
    vertices: list                  # embedded 3-vectors, outer loop first
    loops: list                     # list of (offset, count) per boundary loop
    sides: list                     # Side records, same order as vertices
    angles: list                    # interior angle at each vertex, in (0, 2pi)
    boundary_components: int
    reversed_input: bool = False
    _pack: tuple = field(default=None, repr=False)
    _refl: tuple = field(default=None, repr=False)
    _refl_mats: tuple = field(default=None, repr=False)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_sides(self):
        return len(self.sides)

    def side(self, label):
        """Side by 1-based label, an integer (numpy integers too)."""
        if (isinstance(label, bool) or not isinstance(label, numbers.Integral)
                or not 1 <= label <= len(self.sides)):
            raise PolygonError(
                f"side label must be an integer in 1..{len(self.sides)}, "
                f"got {label}")
        return self.sides[label - 1]

    def kernel_pack(self):
        """Side data for the collision kernels, as nested tuples, built
        once per polygon.

        (sa, su, sn, sl, sv0, sv1, verts, sides): per side the start point,
        unit start tangent and interior-positive functional as (x, y, z)
        float triples, the length, and the start and end vertex ids; then
        the vertices as float triples; then the straight-line loops' sides
        at the pad ``VERTEX_TOL`` (``_collision_loops.side_records``):
        (records, tangents, functionals), the full per-side records, the
        plane's unit side tangents and the per-side (j, nx, ny, nz) that
        the loops' first pass reads, so that no trace or crossing call
        builds them.  Python floats keep the scalar kernels off numpy
        scalar arithmetic; ``_batch`` turns the first seven entries into
        arrays with ``np.asarray``.
        """
        if self._pack is None:
            def vec(x):
                return float(x[0]), float(x[1]), float(x[2])

            sides = self.sides
            sa = tuple(vec(s.geodesic.point) for s in sides)
            su = tuple(vec(s.geodesic.direction) for s in sides)
            sn = tuple(vec(s.normal) for s in sides)
            sl = tuple(float(s.length) for s in sides)
            self._pack = (sa, su, sn, sl,
                          tuple(int(s.start) for s in sides),
                          tuple(int(s.end) for s in sides),
                          tuple(vec(p) for p in self.vertices),
                          K.side_records(self.k, sa, su, sn, sl,
                                         K.VERTEX_TOL))
        return self._pack

    def reflection_matrices(self):
        """Per-side reflection matrices (``geometry.reflection_matrix``),
        computed once per polygon; read-only numpy arrays."""
        if self._refl_mats is None:
            mats = []
            for s in self.sides:
                m = G.reflection_matrix(s.geodesic, self.k)
                m.flags.writeable = False
                mats.append(m)
            self._refl_mats = tuple(mats)
        return self._refl_mats

    def reflection_pack(self):
        """Per-side reflection matrices for the crossing kernel.

        Nested float tuples, one 3x3 matrix of row tuples per side.
        """
        if self._refl is None:
            self._refl = tuple(
                tuple(tuple(float(x) for x in row) for row in m)
                for m in self.reflection_matrices())
        return self._refl


@dataclass(frozen=True)
class DoubleSurfacePoint:
    """Point on the doubled table: a sheet tag plus a position in the table."""

    sheet: str            # "top" | "bottom"
    pos: np.ndarray

    def __post_init__(self):
        if self.sheet not in ("top", "bottom"):
            raise PolygonError(f"sheet must be 'top' or 'bottom', got {self.sheet!r}")


def double_points_equal(a, b, poly, tol=BOUNDARY_TOL):
    """Equality on the double surface: boundary points identify across sheets."""
    if K.distance(poly.k, a.pos, b.pos) > tol:
        return False
    if a.sheet == b.sheet:
        return True
    return point_on_boundary(poly, a.pos, tol)


def point_on_boundary(poly, p, tol=BOUNDARY_TOL):
    return min(G.segment_distance(p, s.geodesic, s.length, poly.k)
               for s in poly.sides) <= tol


def _embed_loop(k, coords, model):
    pts = []
    for j, c in enumerate(coords):
        c = tuple(float(x) for x in np.atleast_1d(c))
        try:
            if not all(math.isfinite(x) for x in c):
                raise GeometryError(f"non-finite coordinate in {c}")
            if model == "plane":
                if len(c) != 2:
                    raise GeometryError(f"expected 2 coordinates, got {len(c)}")
                pts.append(G.plane_point(*c))
            elif model == "poincare-disc":
                if len(c) != 2:
                    raise GeometryError(f"expected 2 coordinates, got {len(c)}")
                pts.append(G.poincare_to_hyperboloid(*c))
            elif model == "unit-sphere":
                if len(c) != 3:
                    raise GeometryError(f"expected 3 coordinates, got {len(c)}")
                pts.append(G.sphere_point(*c))
            elif model == "hyperboloid":
                if len(c) != 3:
                    raise GeometryError(f"expected 3 coordinates, got {len(c)}")
                pts.append(G.normalize_point(np.array(c), k))
            else:
                raise GeometryError(f"unknown model {model!r}")
        except GeometryError as e:
            raise PolygonError(f"vertex {j}: {e}") from e
    return pts


def _loop_sides_angles(k, pts, base_index, loop_id):
    """Sides, interior angles, and the turning sum of one vertex loop."""
    n = len(pts)
    sides = []
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        d = K.distance(k, a, b)
        if d < VERTEX_SEP_TOL:
            raise PolygonError(f"vertices {base_index + i} and "
                               f"{base_index + (i + 1) % n} coincide")
        if k == 1 and d > math.pi - VERTEX_SEP_TOL:
            raise PolygonError(f"spherical side {base_index + i} has length >= pi")
        g = G.Geodesic(a, np.array(K.log_map(k, a, b)))
        miss = K.distance(k, K.renorm_point(k, K.geodesic_point(
            k, g.point, g.direction, d)), b)
        if not miss <= SIDE_END_TOL:
            raise PolygonError(
                f"side {base_index + i + 1} misses its end vertex by "
                f"{miss:.1e} in float64 (limit {SIDE_END_TOL:.0e}): the "
                "table reaches too far out")
        sides.append(Side(base_index + i, base_index + (i + 1) % n, loop_id,
                          g, G.side_normal(g, k), float(d)))
    angles = []
    turning = 0.0
    for i in range(n):
        prev = sides[(i - 1) % n]
        nxt = sides[i]
        p = pts[i]
        incoming = K.renorm_tangent(
            k, p, K.geodesic_dir(k, prev.geodesic.point, prev.geodesic.direction,
                                 prev.length))
        tau = K.signed_angle(k, p, incoming, nxt.geodesic.direction)
        theta = math.pi - tau
        if not (1e-9 < theta < 2.0 * math.pi - 1e-9):
            raise PolygonError(f"degenerate interior angle at vertex {base_index + i}")
        # a straight angle is a point inside a side, not a corner: its
        # sides would carry two labels for one geodesic segment
        if abs(theta - math.pi) <= 1e-9:
            raise PolygonError(f"straight angle (pi) at vertex {base_index + i}")
        angles.append(theta)
        turning += tau
    return sides, angles, turning


def build_polygon(k, vertex_coords, holes=(), model=None):
    """Validated polygon from vertex coordinates.

    ``vertex_coords`` is the outer loop in the declared model convention
    (plane pairs, Poincare-disc pairs with norm < 1, unit 3-vectors);
    ``holes`` is a list of further loops.  Orientation is normalized
    (outer CCW, holes CW) with ``reversed_input`` flagging corrections.

    A table whose stored side geodesic misses its end vertex by more than
    ``SIDE_END_TOL`` in float64 raises PolygonError.  Only hyperbolic
    tables reaching far out do.  The cut falls near Poincare radius 0.9:
    regular 3- to 8-gons are first rejected between radius 0.87 (triangle)
    and 0.93 (octagon); of random 3- to 7-gons, none whose vertices all
    lie within radius 0.88 is, a tenth of those reaching 0.93 are and nine
    in ten of those reaching 0.98.
    """
    k = G.check_curvature(k)
    if model is None:
        model = MODEL_FOR_K[k]
    if model in MODELS:
        expected = {"plane": 0, "poincare-disc": -1, "unit-sphere": 1}[model]
        if expected != k:
            raise PolygonError(f"model {model!r} does not match curvature {k}")
    loops_pts = [_embed_loop(k, vertex_coords, model)]
    for h in holes:
        loops_pts.append(_embed_loop(k, h, model))
    for pts in loops_pts:
        if len(pts) < 3:
            raise PolygonError("each boundary loop needs at least 3 vertices")

    vertices = []
    loops = []
    all_sides = []
    all_angles = []
    reversed_input = False
    for li, pts in enumerate(loops_pts):
        want_ccw = (li == 0)
        base = len(vertices)
        sides, angles, turning = _loop_sides_angles(k, pts, base, li)
        if (turning > 0) != want_ccw:
            reversed_input = True
            pts = [pts[0]] + pts[:0:-1]
            sides, angles, turning = _loop_sides_angles(k, pts, base, li)
            if (turning > 0) != want_ccw:
                raise PolygonError(f"cannot orient boundary loop {li}")
        vertices.extend(pts)
        loops.append((base, len(pts)))
        all_sides.extend(sides)
        all_angles.extend(angles)

    # distinct vertices across the whole boundary
    for (i, v), (j, w) in itertools.combinations(enumerate(vertices), 2):
        if K.distance(k, v, w) < VERTEX_SEP_TOL:
            raise PolygonError(f"vertices {i} and {j} coincide")

    # simple boundary: non-adjacent sides must not meet
    segs = [(s.geodesic.point.tolist(), s.geodesic.direction.tolist(),
             s.normal.tolist(), s.length) for s in all_sides]
    for (i, a), (j, b) in itertools.combinations(enumerate(all_sides), 2):
        tol = VERTEX_SEP_TOL if {a.start, a.end} & {b.start, b.end} else -1e-12
        if G.geodesics_intersect(segs[i], segs[j], k, end_tol=tol):
            raise PolygonError(f"boundary sides {i + 1} and {j + 1} intersect")

    poly = Polygon(k=k, vertices=vertices, loops=loops, sides=all_sides,
                   angles=all_angles, boundary_components=len(loops),
                   reversed_input=reversed_input)

    # holes must lie inside the outer loop and outside each other
    for li in range(1, len(loops)):
        base, cnt = loops[li]
        probe = vertices[base]
        if not _winding_contains(poly, probe, loops=[0]):
            raise PolygonError(f"hole loop {li} is not inside the outer boundary")
        for lj in range(1, len(loops)):
            if lj == li:
                continue
            if _winding_contains(poly, probe, loops=[lj]):
                raise PolygonError(f"hole loops {li} and {lj} are nested")
    return poly


def _winding_contains(poly, p, loops=None):
    """Nonzero-winding test of p against the selected loops (default: all).

    Degenerate sightlines (query on a side's geodesic, or antipodal to a
    vertex on the sphere) are broken by deterministic nudges; the nudge is
    kept below half the boundary clearance so the verdict cannot flip.
    """
    k = poly.k
    loop_ids = range(len(poly.loops)) if loops is None else loops
    bdist = min(G.segment_distance(p, s.geodesic, s.length, k) for s in poly.sides)
    for attempt in range(8):
        q = p
        if attempt > 0:
            ang = 2.399963229728653 * attempt
            d0 = K.renorm_tangent(
                k, q, np.array([math.cos(ang), math.sin(ang), 0.2 * math.cos(2 * ang)]))
            mag = min(0.45, 0.06 * attempt) * bdist
            q = K.renorm_point(k, K.geodesic_point(k, q, d0, mag))
        total = 0.0
        ok = True
        for s in poly.sides:
            if s.loop not in loop_ids:
                continue
            swept = _swept_angle(k, q, s, 0.0, s.length, 0)
            if swept is None:
                ok = False
                break
            total += swept
        if not ok:
            continue
        w = total / (2.0 * math.pi)
        if abs(w - round(w)) > 0.25:
            continue
        return int(round(w)) != 0
    raise PolygonError("interior test failed to resolve after perturbation retries")


def _swept_angle(k, p, side, sa, sb, depth):
    """Signed angle swept at p by the side arc between parameters sa and sb."""
    g = side.geodesic
    qa = K.renorm_point(k, K.geodesic_point(k, g.point, g.direction, sa))
    qb = K.renorm_point(k, K.geodesic_point(k, g.point, g.direction, sb))
    da = K.distance(k, p, qa)
    db = K.distance(k, p, qb)
    if da < 1e-12 or db < 1e-12:
        return None
    if k == 1 and (da > math.pi - 1e-12 or db > math.pi - 1e-12):
        return None
    if sb - sa > 1.2 or (k == 1 and sb - sa > 0.5 * math.pi):
        sm = 0.5 * (sa + sb)
        left = _swept_angle(k, p, side, sa, sm, depth + 1)
        right = _swept_angle(k, p, side, sm, sb, depth + 1)
        if left is None or right is None:
            return None
        return left + right
    ua = K.log_map(k, p, qa)
    ub = K.log_map(k, p, qb)
    ang = K.signed_angle(k, p, ua, ub)
    if abs(ang) > math.pi - 1e-6:
        if depth >= 48:
            return None
        sm = 0.5 * (sa + sb)
        left = _swept_angle(k, p, side, sa, sm, depth + 1)
        right = _swept_angle(k, p, side, sm, sb, depth + 1)
        if left is None or right is None:
            return None
        return left + right
    return ang


def interior_contains(poly, p):
    """True iff p lies in the open interior (boundary points are outside)."""
    p = G.as_vec3(p)
    if G.point_defect(p, poly.k) > 1e-6:
        raise GeometryError(f"point {p} is not on the k={poly.k} model surface")
    p = K.renorm_point(poly.k, p)
    if point_on_boundary(poly, p):
        return False
    return _winding_contains(poly, p)


def vertex_neighborhood_radius(poly, i):
    """Disc radius around vertex i seeing only the two adjacent sides.

    Half the least of: distances to sides not containing the vertex,
    distances to the other vertices, and the adjacent side lengths.  i is
    a 0-based integer index (numpy integers too).
    """
    if (isinstance(i, bool) or not isinstance(i, numbers.Integral)
            or not 0 <= i < len(poly.vertices)):
        raise PolygonError(
            f"vertex index must be an integer in 0..{len(poly.vertices) - 1}, "
            f"got {i!r}")
    v = poly.vertices[i]
    cand = []
    for j, w in enumerate(poly.vertices):
        if j != i:
            cand.append(K.distance(poly.k, v, w))
    for s in poly.sides:
        if s.start == i or s.end == i:
            cand.append(s.length)
        else:
            cand.append(G.segment_distance(v, s.geodesic, s.length, poly.k))
    return 0.5 * min(cand)
