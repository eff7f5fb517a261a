"""Collision map, itineraries, and vertex-connecting trajectories.

Boundary states are (side label, arc parameter, outgoing angle): the side
label is 1-based, the arc parameter runs along the side's direction, and
psi in (0, pi) is measured CCW from the side's forward tangent, so psi =
pi/2 launches perpendicular into the interior.  Time reversal is
psi -> pi - psi.

Trajectories that come within ``VERTEX_TOL`` of a vertex terminate there:
the mathematical itinerary is defined only away from vertex orbits, and
the numerical cutoff errs on the side of ending the itinerary.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _batch
from . import _kernels as K
from . import geometry as G
from .errors import DegenerateStateError, GeometryError, PolygonError

VERTEX_TOL = 1e-9     # vertex-hit cutoff, model length units
GRAZE_TOL = 1e-9      # outgoing angles within this of {0, pi} are degenerate
FLIGHT_MIN = 1e-9     # minimum accepted flight between collisions
CONJUGATE_TOL = 1e-8  # |length - m pi| test for conjugated vertices


@dataclass(frozen=True)
class BoundaryState:
    side: int      # 1-based side label
    s: float       # arc parameter in [0, side length]
    psi: float     # outgoing angle in (0, pi) from the side's forward tangent

    def reversed(self):
        """Time-reversal involution."""
        return BoundaryState(self.side, self.s, math.pi - self.psi)


@dataclass(frozen=True)
class VertexHit:
    vertex: int    # 1-based vertex label
    flight: float  # arc length from the last boundary state to the vertex


@dataclass(frozen=True)
class Itinerary:
    """Side labels indexed by collision count, plus how the record ended.

    ``labels[j]`` is the side at index ``start_index + j``; index 0 is the
    side of the probed state.  ``termination`` describes the forward end,
    ``termination_backward`` the backward end (None when only one direction
    was computed).
    """

    labels: tuple
    start_index: int
    termination: str
    termination_backward: str | None = None

    def index_range(self):
        return self.start_index, self.start_index + len(self.labels) - 1

    def label_at(self, n):
        return self.labels[n - self.start_index]


def _validate_state(poly, b):
    side = poly.side(b.side)
    if not 0.0 <= b.s <= side.length:
        raise GeometryError(f"arc parameter {b.s} outside [0, {side.length}]")
    if not GRAZE_TOL < b.psi < math.pi - GRAZE_TOL:
        raise DegenerateStateError(f"grazing outgoing angle psi = {b.psi}")
    return side


def embed_triples(poly, b):
    """Embedded (point, direction) of a boundary state as float triples."""
    _validate_state(poly, b)
    sa, su = poly.kernel_pack()[:2]
    return K.boundary_embed(poly.k, sa[b.side - 1], su[b.side - 1],
                            float(b.s), float(b.psi))


def embed_state(poly, b):
    """Embedded (point, direction) of a boundary state."""
    p, v = embed_triples(poly, b)
    return np.array(p), np.array(v)


def collision_step(b, poly):
    """One application of the collision map.

    Returns the next BoundaryState, or a VertexHit when the trajectory
    lands within VERTEX_TOL of a vertex.
    """
    p, v = embed_triples(poly, b)
    labels = np.empty(1, dtype=np.int64)
    svals = np.empty(1)
    psis = np.empty(1)
    flens = np.empty(1)
    _, st, vtx, length = K.trace_from_point(
        poly.k, *poly.kernel_pack(), p, v, 1, math.inf, FLIGHT_MIN,
        VERTEX_TOL, GRAZE_TOL, labels, svals, psis, flens)
    if st == K.STEP_VERTEX:
        return VertexHit(int(vtx) + 1, float(length))
    if st == K.STEP_GRAZING:
        # the loop leaves the rejected bounce in slot 0
        raise DegenerateStateError(
            f"collision became grazing (psi = {psis[0]:.3e} from side "
            f"{labels[0] + 1})")
    if st == K.STEP_ESCAPED:
        raise GeometryError("trajectory found no boundary intersection")
    return BoundaryState(int(labels[0]) + 1, float(svals[0]), float(psis[0]))


@dataclass(frozen=True)
class TraceResult:
    """Raw multi-bounce trace used by searches and probes."""

    n_done: int
    status: int          # _kernels.STEP_* code after n_done recorded bounces
    vertex: int          # 1-based vertex label on STEP_VERTEX, else 0
    labels: np.ndarray   # 1-based side labels, length n_done
    svals: np.ndarray
    psis: np.ndarray
    flights: np.ndarray
    length: float        # total arc length (includes the final vertex leg)

    def state(self, i):
        return BoundaryState(int(self.labels[i]), float(self.svals[i]),
                             float(self.psis[i]))


def check_count(n):
    """Reject a negative bounce count before it reaches the kernels."""
    if n < 0:
        raise ValueError(f"bounce count must be >= 0, got {n}")


def check_ray(poly, point, direction):
    """An interior ray of poly as float64 3-vectors: GeometryError unless
    both are finite, the point is on the model surface and the direction
    a nonzero tangent there (to normalize_point's relative 1e-6)."""
    p = G.as_vec3(point)
    v = G.as_vec3(direction)
    if not (np.isfinite(p).all() and np.isfinite(v).all()):
        raise GeometryError(f"non-finite ray: point {p}, direction {v}")
    if not v.any():
        raise GeometryError("zero ray direction")
    if G.point_defect(p, poly.k) > 1e-6:
        raise GeometryError(
            f"ray point {p} is not on the k={poly.k} model surface")
    if G.tangent_defect(p, v, poly.k) > 1e-6:
        raise GeometryError(f"ray direction {v} is not tangent at {p}")
    return p, v


def _check_max_length(max_length):
    # nan fails the test too: a nan bound would never stop a trace
    if not max_length > 0:
        raise ValueError(f"max_length must be > 0, got {max_length}")


def trace(poly, b, n, max_length=math.inf):
    """Iterate the collision map n times from b, recording every bounce."""
    check_count(n)
    _check_max_length(max_length)
    _validate_state(poly, b)
    sa, su, sn, sl, sv0, sv1, verts = poly.kernel_pack()
    labels = np.empty(n, dtype=np.int64)
    svals = np.empty(n)
    psis = np.empty(n)
    flens = np.empty(n)
    n_done, status, vtx, total = K.trace_orbit(
        poly.k, sa, su, sn, sl, sv0, sv1, verts,
        b.side - 1, b.s, b.psi, n, max_length, FLIGHT_MIN, VERTEX_TOL,
        GRAZE_TOL, labels, svals, psis, flens)
    return TraceResult(n_done, status, vtx + 1 if status == K.STEP_VERTEX else 0,
                       labels[:n_done] + 1, svals[:n_done], psis[:n_done],
                       flens[:n_done], total)


@dataclass(frozen=True)
class TraceBatch:
    """Traces of N boundary states from :func:`trace_many`.

    Row r means what ``trace`` returns for the r-th state.  The per-bounce
    arrays have shape (N, n); a row is filled up to ``n_done[r]``, with
    label 0 and nan floats past it.
    """

    n_done: np.ndarray   # (N,) recorded bounces
    status: np.ndarray   # (N,) _kernels.STEP_* codes
    vertex: np.ndarray   # (N,) 1-based vertex label on STEP_VERTEX, else 0
    labels: np.ndarray   # (N, n) 1-based side labels
    svals: np.ndarray
    psis: np.ndarray
    flights: np.ndarray
    length: np.ndarray   # (N,) total arc length (includes a final vertex leg)

    def row(self, r):
        """Row r as the TraceResult ``trace`` gives for that state."""
        m = int(self.n_done[r])
        return TraceResult(m, int(self.status[r]), int(self.vertex[r]),
                           self.labels[r, :m], self.svals[r, :m],
                           self.psis[r, :m], self.flights[r, :m],
                           float(self.length[r]))


def trace_many(poly, states, n, max_length=math.inf):
    """Trace every boundary state in ``states`` for n bounces at once.

    The batched numpy engine (``_batch``): worth it for many rays, several
    times slower than :func:`trace` for one.  Rows agree with ``trace`` in
    counts, statuses and labels, and in (s, psi) up to rounding.
    """
    check_count(n)
    _check_max_length(max_length)
    for b in states:
        _validate_state(poly, b)
    side0 = np.array([b.side - 1 for b in states], dtype=np.int64)
    s0 = np.array([b.s for b in states], dtype=np.float64)
    psi0 = np.array([b.psi for b in states], dtype=np.float64)
    n_done, status, vtx, labels, svals, psis, flens, total = \
        _batch.trace_states(poly.k, *poly.kernel_pack(), side0, s0, psi0, n,
                            max_length, FLIGHT_MIN, VERTEX_TOL, GRAZE_TOL)
    return TraceBatch(n_done, status, vtx + 1, labels + 1, svals, psis, flens,
                      total)


def trace_ray(poly, point, direction, n, max_length=math.inf):
    """Trace from an arbitrary interior ray.

    The point must lie on the model surface and the direction be a
    nonzero tangent there, as finite 3-vectors; otherwise GeometryError.
    """
    check_count(n)
    _check_max_length(max_length)
    p, v = check_ray(poly, point, direction)
    sa, su, sn, sl, sv0, sv1, verts = poly.kernel_pack()
    labels = np.empty(n, dtype=np.int64)
    svals = np.empty(n)
    psis = np.empty(n)
    flens = np.empty(n)
    n_done, status, vtx, total = K.trace_from_point(
        poly.k, sa, su, sn, sl, sv0, sv1, verts,
        p, v, n, max_length, FLIGHT_MIN, VERTEX_TOL, GRAZE_TOL,
        labels, svals, psis, flens)
    return TraceResult(n_done, status, vtx + 1 if status == K.STEP_VERTEX else 0,
                       labels[:n_done] + 1, svals[:n_done], psis[:n_done],
                       flens[:n_done], total)


_TERMINATION = {K.STEP_OK: "horizon", K.STEP_VERTEX: "vertex_hit",
                K.STEP_GRAZING: "degenerate", K.STEP_MAXLEN: "horizon"}


def _direction_labels(poly, b, horizon):
    """Labels [side(b), side(f b), ..., side(f^(horizon-1) b)] and the end tag."""
    tr = trace(poly, b, horizon - 1)
    labels = [b.side] + [int(x) for x in tr.labels]
    if tr.status == K.STEP_ESCAPED:
        raise GeometryError("trajectory found no boundary intersection")
    return labels, _TERMINATION[tr.status]


def itinerary(b, poly, horizon, direction="forward"):
    """Side-label itinerary of a boundary state.

    forward: indices 0 .. horizon-1; backward: indices -(horizon-1) .. 0;
    bidirectional: indices -(horizon-1) .. horizon-1.  Index 0 is the side
    of b itself.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    _validate_state(poly, b)
    if direction == "forward":
        labels, term = _direction_labels(poly, b, horizon)
        return Itinerary(tuple(labels), 0, term)
    if direction == "backward":
        labels, term = _direction_labels(poly, b.reversed(), horizon)
        return Itinerary(tuple(reversed(labels)), -(len(labels) - 1),
                         "horizon", termination_backward=term)
    if direction == "bidirectional":
        fwd, term_f = _direction_labels(poly, b, horizon)
        bwd, term_b = _direction_labels(poly, b.reversed(), horizon)
        labels = tuple(reversed(bwd[1:])) + tuple(fwd)
        return Itinerary(labels, -(len(bwd) - 1), term_f,
                         termination_backward=term_b)
    raise ValueError(f"unknown direction {direction!r}")


def write_itinerary(it, path):
    """Comma-separated labels plus a termination tag."""
    with open(path, "w") as fh:
        fh.write(",".join(str(x) for x in it.labels) + "\n")
        fh.write(f"termination={it.termination}\n")
        if it.termination_backward is not None:
            fh.write(f"termination_backward={it.termination_backward}\n")


# ---------------------------------------------------------------------------
# generalized diagonals and conjugated vertices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Diagonal:
    """Billiard trajectory connecting two vertices."""

    start: int           # 1-based vertex labels
    end: int
    sequence: tuple      # 1-based side labels bounced off along the way
    length: float
    angle: float         # launch angle from the side leaving the start vertex


def _vertex_frame(poly, vi):
    """Base direction (side leaving vertex vi) and interior angle there."""
    for s in poly.sides:
        if s.start == vi:
            return s.geodesic.direction, poly.angles[vi]
    raise PolygonError(f"vertex {vi} starts no side")


def _launch_frame(poly, vi):
    """Vertex point, base direction d0 and e2 = perp(d0) at vertex vi, as
    float triples: everything about a launch that does not depend on the
    angle."""
    d0, _ = _vertex_frame(poly, vi)
    p = tuple(float(x) for x in poly.vertices[vi])
    d0 = tuple(float(x) for x in d0)
    return p, d0, K.perp(poly.k, p, d0)


def _launch_direction(k, p, d0, e2, alpha):
    c = math.cos(alpha)
    s = math.sin(alpha)
    return K.renorm_tangent(k, p, (c * d0[0] + s * e2[0],
                                   c * d0[1] + s * e2[1],
                                   c * d0[2] + s * e2[2]))


def _launch(poly, vi, alpha):
    """The ray (point, direction) the diagonal search shoots from vertex vi
    at angle alpha from the side leaving it."""
    p, d0, e2 = _launch_frame(poly, vi)
    return np.array(p), np.array(_launch_direction(poly.k, p, d0, e2, alpha))


def _vertex_shooter(poly, vi, nmax, max_length):
    """shoot(alpha) traces the ray ``_launch(poly, vi, alpha)`` for up to
    nmax bounces and returns its signature (1-based labels, status, 1-based
    end vertex or 0) and its length.

    The launch frame, the polygon's pack and the bounce buffers (Python
    lists) are set up once per vertex, so a ray costs its launch direction
    on floats and the kernel call, with no numpy array or TraceResult.
    """
    k = poly.k
    p, d0, e2 = _launch_frame(poly, vi)
    pack = poly.kernel_pack()
    labels = [0] * nmax
    bufs = (labels, [0.0] * nmax, [0.0] * nmax, [0.0] * nmax)

    def shoot(alpha):
        v = _launch_direction(k, p, d0, e2, alpha)
        n, status, vtx, length = K.trace_from_point(
            k, *pack, p, v, nmax, max_length, FLIGHT_MIN, VERTEX_TOL,
            GRAZE_TOL, *bufs)
        end = vtx + 1 if status == K.STEP_VERTEX else 0
        return (tuple([j + 1 for j in labels[:n]]), status, end), length

    return shoot


def _same_branch(sig_a, sig_b):
    """Whether no vertex hit within max_length needs looking for between
    two rays: their signatures are equal, or both rays stopped at
    max_length and one's labels are a prefix of the other's (the rays
    differ only in how many bounces fit into max_length)."""
    if sig_a == sig_b:
        return True
    labels_a, status_a, _ = sig_a
    labels_b, status_b, _ = sig_b
    if status_a != K.STEP_MAXLEN or status_b != K.STEP_MAXLEN:
        return False
    n = min(len(labels_a), len(labels_b))
    return labels_a[:n] == labels_b[:n]


def generalized_diagonals(poly, max_bounces, max_length, angles_per_vertex=10000):
    """Search for vertex-to-vertex trajectories.

    Shoots a fan of directions from every vertex (plus targeted shots at
    the other vertices) and brackets itinerary transitions between
    neighbouring rays.  Every ray from a vertex, in the fan, the targeted
    shots and the bisection, is traced on Python floats by one shooter
    built once per vertex (``_vertex_shooter``).  Two rays that both stop
    at max_length, with one's side labels a prefix of the other's, are not
    a transition: they differ only in how many bounces fit into
    max_length, so no bracket is spent on them, in the fan or in the
    bisection.  Each vertex has a budget of 8 * angles_per_vertex
    bisection rays, spent on its transitions in fan order: each bracket is
    bisected down to the vertex-hit window until the budget runs out, and
    the remaining transitions are skipped silently.  Every result is a
    traced ray that ended on a vertex, kept once per bounce sequence and
    its reverse; nothing re-traces it.  The search is complete only up to
    the angular resolution and the budget.
    """
    if max_bounces < 0 or not max_length > 0:
        raise ValueError("search bounds must be positive")
    if angles_per_vertex < 1:
        raise ValueError(
            f"angles_per_vertex must be >= 1, got {angles_per_vertex}")
    found = {}
    margin = 10.0 * GRAZE_TOL
    nmax = max_bounces + 1
    for vi in range(poly.n_vertices):
        d0, theta = _vertex_frame(poly, vi)
        p = poly.vertices[vi]
        alphas = set()
        for j in range(angles_per_vertex):
            alphas.add(theta * (j + 0.5) / angles_per_vertex)
        for wj, w in enumerate(poly.vertices):
            if wj == vi:
                continue
            d = K.distance(poly.k, p, w)
            if d < VERTEX_TOL or (poly.k == 1 and d > math.pi - 1e-12):
                continue
            a = K.signed_angle(poly.k, p, d0, K.log_map(poly.k, p, w))
            if margin < a < theta - margin:
                alphas.add(a)
        alphas = sorted(alphas)
        shoot = _vertex_shooter(poly, vi, nmax, max_length)
        sigs = []
        for a in alphas:
            sig, length = shoot(a)
            sigs.append(sig)
            _record_if_diagonal(found, vi, a, sig, length, max_length)
        budget = [8 * angles_per_vertex]
        for i in range(len(alphas) - 1):
            if not _same_branch(sigs[i], sigs[i + 1]):
                _bisect_transition(found, shoot, vi, alphas[i], alphas[i + 1],
                                   sigs[i], sigs[i + 1], max_length, budget)
    out = sorted(found.values(), key=lambda d: (d.length, d.start, d.end, d.sequence))
    return out


def _record_if_diagonal(found, vi, alpha, sig, length, max_length):
    seq, status, end = sig
    if status != K.STEP_VERTEX or length > max_length:
        return False
    start = vi + 1
    key = min((start, end, seq), (end, start, tuple(reversed(seq))))
    if key in found:
        return True
    found[key] = Diagonal(start, end, seq, float(length), float(alpha))
    return True


def _bisect_transition(found, shoot, vi, a, b, sig_a, sig_b, max_length,
                       budget):
    """Refine an itinerary transition down to the vertex-hit window, with
    the shooter of vertex vi."""
    stack = [(a, b, sig_a, sig_b, 0)]
    while stack:
        if budget[0] <= 0:
            return
        lo, hi, slo, shi, depth = stack.pop()
        if hi - lo < 1e-14 or depth > 60:
            continue
        mid = 0.5 * (lo + hi)
        budget[0] -= 1
        sm, length = shoot(mid)
        if _record_if_diagonal(found, vi, mid, sm, length, max_length):
            continue
        if not _same_branch(sm, slo):
            stack.append((lo, mid, slo, sm, depth + 1))
        if not _same_branch(sm, shi):
            stack.append((mid, hi, sm, shi, depth + 1))


@dataclass(frozen=True)
class ConjugatePair:
    """Vertices joined by a diagonal of length m pi (sphere only)."""

    vertices: tuple      # 1-based (start, end)
    diagonal: Diagonal
    m: int
    residual: float


def conjugated_vertices(poly, max_bounces, max_length, angles_per_vertex=10000):
    """Diagonals whose length is a positive multiple of pi, on the sphere."""
    if poly.k != 1:
        raise GeometryError("conjugated vertices are defined for curvature +1")
    out = []
    for d in generalized_diagonals(poly, max_bounces, max_length,
                                   angles_per_vertex):
        m = round(d.length / math.pi)
        if m >= 1 and abs(d.length - m * math.pi) <= CONJUGATE_TOL:
            out.append(ConjugatePair((d.start, d.end), d, int(m),
                                     abs(d.length - m * math.pi)))
    return out
