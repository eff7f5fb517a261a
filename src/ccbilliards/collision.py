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
import numbers
from typing import NamedTuple

import numpy as np

from . import _kernels as K
from . import geometry as G
# the tolerances of both collision engines
from ._collision_loops import FLIGHT_MIN, GRAZE_TOL, VERTEX_TOL
from .errors import DegenerateStateError, GeometryError

CONJUGATE_TOL = 1e-8  # |length - m pi| test for conjugated vertices


class BoundaryState(NamedTuple):
    side: int      # 1-based side label
    s: float       # arc parameter in [0, side length]
    psi: float     # outgoing angle in (0, pi) from the side's forward tangent

    def reversed(self):
        """Time-reversal involution."""
        return BoundaryState(self.side, self.s, math.pi - self.psi)


class VertexHit(NamedTuple):
    vertex: int    # 1-based vertex label
    flight: float  # arc length from the last boundary state to the vertex


class Itinerary(NamedTuple):
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


def _validate_state(poly, b):
    side = poly.side(b.side)
    if not 0.0 <= b.s <= side.length:
        raise GeometryError(f"arc parameter {b.s} outside [0, {side.length}]")
    if not GRAZE_TOL < b.psi < math.pi - GRAZE_TOL:
        raise DegenerateStateError(f"grazing outgoing angle psi = {b.psi}")
    return side


def embed_state(poly, b):
    """Embedded (point, direction) of a boundary state as float triples."""
    _validate_state(poly, b)
    sa, su = poly.kernel_pack()[:2]
    return K.boundary_embed(poly.k, sa[b.side - 1], su[b.side - 1],
                            float(b.s), float(b.psi))


def collision_step(b, poly):
    """One application of the collision map.

    Returns the next BoundaryState, or a VertexHit when the trajectory
    lands within VERTEX_TOL of a vertex.
    """
    p, v = embed_state(poly, b)
    labels, svals, psis = [0], [0.0], [0.0]
    _, st, vtx, length = K.trace_from_point(
        poly.k, *poly.kernel_pack(), p, v, 1, math.inf, FLIGHT_MIN,
        VERTEX_TOL, GRAZE_TOL, labels, svals, psis, [0.0])
    if st == K.STEP_VERTEX:
        return VertexHit(vtx + 1, length)
    if st == K.STEP_GRAZING:
        # the loop leaves the rejected bounce in slot 0
        raise DegenerateStateError(
            f"collision became grazing (psi = {psis[0]:.3e} from side "
            f"{labels[0] + 1})")
    if st == K.STEP_ESCAPED:
        raise GeometryError("trajectory found no boundary intersection")
    return BoundaryState(labels[0] + 1, svals[0], psis[0])


class TraceResult(NamedTuple):
    """Raw multi-bounce trace used by searches and probes: per bounce, the
    Python ints and floats the scalar loop wrote."""

    n_done: int
    status: int          # _kernels.STEP_* code after n_done recorded bounces
    vertex: int          # 1-based vertex label on STEP_VERTEX, else 0
    labels: tuple        # 1-based side labels, length n_done
    svals: tuple
    psis: tuple
    flights: tuple
    length: float        # total arc length (includes the final vertex leg)

    def state(self, i):
        return BoundaryState(self.labels[i], self.svals[i], self.psis[i])


def check_count(n, name="bounce count", least=0):
    """Reject a count that is a bool, not an integer (numpy integers are)
    or below least, with a ValueError that names it, before it reaches
    numpy or the kernels; nan fails too."""
    if (isinstance(n, bool) or not isinstance(n, numbers.Integral)
            or n < least):
        raise ValueError(f"{name} must be an integer >= {least}, got {n!r}")


def check_ray(poly, point, direction):
    """An interior ray of poly as float64 3-vectors: GeometryError unless
    both are finite, the point is on the model surface (to
    normalize_point's relative 1e-6) and the direction a unit tangent
    there (to 1e-6 plus rounding).  The loops move at unit speed, so a
    longer or shorter direction is rejected, not rescaled.  On the plane
    the ray comes back projected to z = 1 and a z-direction of 0."""
    p = G.as_vec3(point)
    v = G.as_vec3(direction)
    if not (np.isfinite(p).all() and np.isfinite(v).all()):
        raise GeometryError(f"non-finite ray: point {p}, direction {v}")
    if G.point_defect(p, poly.k) > 1e-6:
        raise GeometryError(
            f"ray point {p} is not on the k={poly.k} model surface")
    # 1e-6 plus the rounding of mdot, which grows with |v|^2: a unit tangent
    # at distance r out on the hyperboloid has |v|^2 ~ cosh 2r
    if abs(K.mdot(poly.k, v, v) - 1.0) > 1e-6 + 1e-12 * (v @ v):
        raise GeometryError(f"ray direction {v} is not a unit vector")
    # tangency the same way: relative to |p| |v| the bound would loosen
    # like cosh^2 r on the hyperboloid
    defect = abs(v[2]) if poly.k == 0 else abs(K.mdot(poly.k, p, v))
    if defect > 1e-6 + 1e-12 * math.sqrt((p @ p) * (v @ v)):
        raise GeometryError(f"ray direction {v} is not tangent at {p}")
    if poly.k == 0:
        # the plane loops take rays on z = 1 with zero z-direction
        return np.array([p[0], p[1], 1.0]), np.array([v[0], v[1], 0.0])
    return p, v


def _check_max_length(max_length):
    # nan fails the test too: a nan bound would never stop a trace
    if not max_length > 0:
        raise ValueError(f"max_length must be > 0, got {max_length}")


def _trace_result(entry, poly, start, n, max_length):
    """Run the kernel entry from start on Python-list buffers and keep what
    it recorded as tuples, with the labels made 1-based."""
    labels, svals, psis, flens = [0] * n, [0.0] * n, [0.0] * n, [0.0] * n
    n_done, status, vtx, total = entry(
        poly.k, *poly.kernel_pack(), *start, n, max_length, FLIGHT_MIN,
        VERTEX_TOL, GRAZE_TOL, labels, svals, psis, flens)
    return TraceResult(n_done, status, vtx + 1 if status == K.STEP_VERTEX else 0,
                       tuple([j + 1 for j in labels[:n_done]]),
                       tuple(svals[:n_done]), tuple(psis[:n_done]),
                       tuple(flens[:n_done]), total)


def trace(poly, b, n, max_length=math.inf):
    """Iterate the collision map n times from b, recording every bounce."""
    check_count(n)
    _check_max_length(max_length)
    _validate_state(poly, b)
    return _trace_result(K.trace_orbit, poly, (b.side - 1, b.s, b.psi), n,
                         max_length)


def trace_ray(poly, point, direction, n, max_length=math.inf):
    """Trace from an arbitrary interior ray.

    The point must lie on the model surface and the direction be a unit
    tangent there, as finite 3-vectors; otherwise GeometryError.
    """
    check_count(n)
    _check_max_length(max_length)
    p, v = check_ray(poly, point, direction)
    return _trace_result(K.trace_from_point, poly, (p, v), n, max_length)


_TERMINATION = {K.STEP_OK: "horizon", K.STEP_VERTEX: "vertex_hit",
                K.STEP_GRAZING: "degenerate", K.STEP_MAXLEN: "horizon"}


def direction_labels(b, tr, n):
    """Labels [side(b), side(f b), ..., side(f^n b)] from the trace tr of b
    (fewer where tr stopped first) and the end tag: "horizon" when tr ran
    n bounces, otherwise its stop's tag.  An escape within n bounces
    raises GeometryError."""
    labels = [b.side, *tr.labels[:n]]
    if tr.n_done >= n:
        return labels, "horizon"
    if tr.status == K.STEP_ESCAPED:
        raise GeometryError("trajectory found no boundary intersection")
    return labels, _TERMINATION[tr.status]


def itinerary(b, poly, horizon, direction="forward"):
    """Side-label itinerary of a boundary state.

    forward: indices 0 .. horizon-1; backward: indices -(horizon-1) .. 0;
    bidirectional: indices -(horizon-1) .. horizon-1.  Index 0 is the side
    of b itself.  horizon must be an integer >= 1.
    """
    check_count(horizon, "horizon", 1)
    _validate_state(poly, b)
    n = horizon - 1
    back = b.reversed()
    if direction == "forward":
        labels, term = direction_labels(b, trace(poly, b, n), n)
        return Itinerary(tuple(labels), 0, term)
    if direction == "backward":
        labels, term = direction_labels(back, trace(poly, back, n), n)
        return Itinerary(tuple(reversed(labels)), -(len(labels) - 1),
                         "horizon", termination_backward=term)
    if direction == "bidirectional":
        fwd, term_f = direction_labels(b, trace(poly, b, n), n)
        bwd, term_b = direction_labels(back, trace(poly, back, n), n)
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

class Diagonal(NamedTuple):
    """Billiard trajectory connecting two vertices."""

    start: int           # 1-based vertex labels
    end: int
    sequence: tuple      # 1-based side labels bounced off along the way
    length: float
    angle: float         # launch angle from the side leaving the start vertex


def _vertex_frame(poly, vi):
    """Base direction (side vi, which ``build_polygon`` starts at vertex
    vi) and interior angle at vertex vi."""
    return poly.sides[vi].geodesic.direction, poly.angles[vi]


def _launch_frame(poly, vi):
    """Vertex point, base direction d0 and e2 = perp(d0) at vertex vi, as
    float triples: everything about a launch that does not depend on the
    angle."""
    d0, _ = _vertex_frame(poly, vi)
    p = tuple(float(x) for x in poly.vertices[vi])
    d0 = tuple(float(x) for x in d0)
    return p, d0, K.perp(poly.k, p, d0)


def _launch(poly, vi, alpha):
    """The ray (point, direction) the diagonal search shoots from vertex vi:
    the side leaving it turned by alpha (``K.turn``)."""
    p, d0, e2 = _launch_frame(poly, vi)
    return np.array(p), np.array(K.turn(poly.k, p, d0, e2, alpha))


def _vertex_shooter(poly, vi, nmax, max_length):
    """shoot(alpha) traces the ray ``_launch(poly, vi, alpha)`` for up to
    nmax bounces and returns its signature (0-based side labels, status,
    0-based end vertex or -1, as the kernel gives them) and its length.

    The launch frame, the polygon's pack (with its side records) and the
    bounce buffers (Python lists) are set up once per vertex, so a ray
    costs one ``K.turn`` of the frame on floats and the kernel call, with no
    numpy array, TraceResult or 1-based label tuple: only
    ``_record_if_diagonal`` turns a diagonal's labels 1-based.
    """
    k = poly.k
    p, d0, e2 = _launch_frame(poly, vi)
    pack = poly.kernel_pack()
    labels = [0] * nmax
    bufs = (labels, [0.0] * nmax, [0.0] * nmax, [0.0] * nmax)

    def shoot(alpha):
        v = K.turn(k, p, d0, e2, alpha)
        n, status, vtx, length = K.trace_from_point(
            k, *pack, p, v, nmax, max_length, FLIGHT_MIN, VERTEX_TOL,
            GRAZE_TOL, *bufs)
        return (tuple(labels[:n]), status, vtx), length

    return shoot


def _same_branch(sig_a, sig_b):
    """Whether no vertex hit within max_length needs looking for between
    two rays: their signatures are equal, or both rays stopped at
    max_length and one's labels are a prefix of the other's (the rays
    differ only in how many bounces fit into max_length).  It only tests
    equality and prefixes, so 0-based and 1-based labels give one answer."""
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
    its reverse; nothing re-traces it.  Ray signatures stay 0-based, as the
    kernel writes them; a recorded diagonal's labels are made 1-based.
    The search is complete only up to the angular resolution and the
    budget.  max_bounces must be an integer >= 0 and angles_per_vertex
    one >= 1.
    """
    check_count(max_bounces, "max_bounces", 0)
    check_count(angles_per_vertex, "angles_per_vertex", 1)
    _check_max_length(max_length)
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
    start, end = vi + 1, end + 1
    seq = tuple([j + 1 for j in seq])
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


class ConjugatePair(NamedTuple):
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
