"""Polygon tables on a constant-curvature surface.

A table is an ordered outer loop of vertices plus optional hole loops
(planar-type tables: a disc with holes).  Sides are minimizing geodesic
segments; the interior lies on the left of the directed boundary, so the
outer loop runs counterclockwise and hole loops clockwise.  Reversed input
is auto-corrected and flagged.

Containment is one crossing-parity rule on every curvature: a point off
the boundary lies on the left of some loops iff the geodesic segment from
it to a reference point on their right crosses their sides an odd number
of times, each crossing decided by ``geometry.geodesics_intersect`` (the
simplicity check's predicate).  The reference is the midpoint of one of
their sides, moved to its right by half the midpoint's distance to their
other sides.  It is skipped for the next side's when the segment is
shorter than ``VERTEX_SEP_TOL``, passes within ``VERTEX_SEP_TOL`` of one
of their vertices, or on the sphere is pi - 1e-6 or longer.

The two-sheet "double surface" obtained by gluing two copies of the table
along the boundary is represented by :class:`DoubleSurfacePoint`; boundary
points identify across sheets.
"""

import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

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

# the vertex conventions of the spec files: model name -> (curvature,
# coordinates per vertex, embedding of one vertex's coordinates)
MODELS = {"plane": (0, 2, G.plane_point),
          "poincare-disc": (-1, 2, G.poincare_to_hyperboloid),
          "unit-sphere": (1, 3, G.sphere_point)}
MODEL_FOR_K = {k: name for name, (k, _, _) in MODELS.items()}
# and one internal model, hyperboloid 3-vectors, for tables.hyperbolic_pentagon
_EMBEDDINGS = {**MODELS,
               "hyperboloid": (-1, 3, lambda *c: G.normalize_point(c, -1))}


class Side(NamedTuple):
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
    _pack: tuple = field(init=False, default=None, repr=False)
    _refl: tuple = field(init=False, default=None, repr=False)
    _refl_mats: tuple = field(init=False, default=None, repr=False)

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


def double_points_equal(a, b, poly):
    """Equality on the double surface: boundary points identify across sheets."""
    if K.distance(poly.k, a.pos, b.pos) > BOUNDARY_TOL:
        return False
    return a.sheet == b.sheet or point_on_boundary(poly, a.pos)


def point_on_boundary(poly, p):
    return min(G.segment_distance(p, s.geodesic, s.length, poly.k)
               for s in poly.sides) <= BOUNDARY_TOL


def _embed_loop(k, coords, model):
    """Embedded points of one vertex loop given in ``model``'s coordinates;
    PolygonError when the model's curvature is not k."""
    if model in _EMBEDDINGS and _EMBEDDINGS[model][0] != k:
        raise PolygonError(f"model {model!r} does not match curvature {k}")
    pts = []
    for j, c in enumerate(coords):
        c = tuple(float(x) for x in np.atleast_1d(c))
        try:
            if not all(math.isfinite(x) for x in c):
                raise GeometryError(f"non-finite coordinate in {c}")
            if model not in _EMBEDDINGS:
                raise GeometryError(f"unknown model {model!r}")
            _, want, embed = _EMBEDDINGS[model]
            if len(c) != want:
                raise GeometryError(f"expected {want} coordinates, got {len(c)}")
            pts.append(embed(*c))
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

    ``vertex_coords`` is the outer loop in the convention of ``model``, an
    entry of ``MODELS`` whose curvature is k (plane pairs, Poincare-disc
    pairs with norm < 1, unit 3-vectors), by default ``MODEL_FOR_K[k]``;
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
    segs = _side_segments(all_sides)
    for (i, a), (j, b) in itertools.combinations(enumerate(all_sides), 2):
        tol = VERTEX_SEP_TOL if {a.start, a.end} & {b.start, b.end} else -1e-12
        if G.geodesics_intersect(segs[i], segs[j], k, end_tol=tol):
            raise PolygonError(f"boundary sides {i + 1} and {j + 1} intersect")

    poly = Polygon(k=k, vertices=vertices, loops=loops, sides=all_sides,
                   angles=all_angles, boundary_components=len(loops),
                   reversed_input=reversed_input)

    # holes must lie inside the outer loop and outside each other
    for li in range(1, len(loops)):
        probe = vertices[loops[li][0]]
        if not _parity_contains(poly, probe, loops=[0]):
            raise PolygonError(f"hole loop {li} is not inside the outer boundary")
        # inside a hole's disc is on the right of its (clockwise) loop
        for lj in range(1, len(loops)):
            if lj == li:
                continue
            if not _parity_contains(poly, probe, loops=[lj]):
                raise PolygonError(f"hole loops {li} and {lj} are nested")
    return poly


def _side_segments(sides):
    """The sides as the (point, direction, normal, length) segments that
    ``geometry.geodesics_intersect`` takes."""
    return [(s.geodesic.point.tolist(), s.geodesic.direction.tolist(),
             s.normal.tolist(), s.length) for s in sides]


def _parity_contains(poly, p, loops=None):
    """Whether p, off their sides, lies on the left of the selected loops
    (default: all), by the parity rule of the module docstring."""
    k = poly.k
    sides = [s for s in poly.sides if loops is None or s.loop in loops]
    segs = _side_segments(sides)
    verts = [poly.vertices[s.start] for s in sides]
    for s in sides:
        g = s.geodesic
        mid = K.renorm_point(k, K.geodesic_point(k, g.point, g.direction,
                                                 0.5 * s.length))
        gap = min(G.segment_distance(mid, o.geodesic, o.length, k)
                  for o in sides if o is not s)
        # at a point of its side the interior-positive functional is the
        # unit tangent to the side's left (its xy part on the plane)
        n = s.normal
        right = (-n[0], -n[1], 0.0 if k == 0 else -n[2])
        ref = K.renorm_point(k, K.geodesic_point(k, mid, right, 0.5 * gap))
        d = K.distance(k, p, ref)
        if d < VERTEX_SEP_TOL or (k == 1 and d >= math.pi - 1e-6):
            continue
        q = G.Geodesic(G.as_vec3(p), np.array(K.log_map(k, p, ref)))
        if any(G.segment_distance(v, q, d, k) < VERTEX_SEP_TOL for v in verts):
            continue
        seg = (q.point.tolist(), q.direction.tolist(),
               G.side_normal(q, k).tolist(), d)
        hits = sum(G.geodesics_intersect(seg, t, k) for t in segs)
        return hits % 2 == 1
    raise PolygonError("interior test failed to resolve: every reference "
                       "segment meets a vertex or is too long")


def interior_contains(poly, p):
    """True iff p lies in the open interior (boundary points are outside).

    p is inside iff the geodesic segment from p to a reference point just
    outside the table crosses the sides an odd number of times.  A
    reference is skipped for the next side's when the segment is shorter
    than ``VERTEX_SEP_TOL``, passes within ``VERTEX_SEP_TOL`` of a vertex,
    or on the sphere is pi - 1e-6 or longer; PolygonError when none is
    left.  See the module docstring for the reference point.
    """
    p = G.as_vec3(p)
    if G.point_defect(p, poly.k) > 1e-6:
        raise GeometryError(f"point {p} is not on the k={poly.k} model surface")
    p = K.renorm_point(poly.k, p)
    if point_on_boundary(poly, p):
        return False
    return _parity_contains(poly, p)


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
