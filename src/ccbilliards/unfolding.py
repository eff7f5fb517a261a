"""Trajectory unfolding and periodic-orbit search.

Unfolding replaces reflection of the trajectory by reflection of the
table: after m bounces off sides s_1 .. s_m the motion continues in the
polygon copy R_{s_1} ... R_{s_m} (D), and the unfolded trajectory is a
single model geodesic (a great circle with wraparound for k = +1, where
crossings are ordered by arc parameter along the circle).  The universal
cover is never built explicitly; the chain of isometries realizes it
lazily along each trajectory.

The composed isometry of a chain (its holonomy) certifies periodicity:
a flat periodic orbit's holonomy is a translation (or a glide reflection)
preserving the flight direction, a spherical one is a rotation, a
hyperbolic one a translation along its axis.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from . import collision as C
from . import geometry as G

SWEEP_BLOCK = 2048            # seeds per trace_many call in find_periodic
RETURN_CANDIDATE_TOL = 1e-4   # pre-refinement closeness of the return map
RETURN_VERIFY_TOL = 1e-8      # residual for a verified periodic orbit
CLASSIFY_TOL = 1e-9


@dataclass(frozen=True)
class UnfoldingChain:
    """Accumulated reflections along a trajectory.

    ``copies[m]`` is (isometry matrix, crossed side label): the matrix maps
    base-table coordinates onto the m-th unfolded copy.
    """

    copies: tuple         # ((matrix, side label), ...)
    base_k: int

    def holonomy_matrix(self):
        out = np.eye(3)
        if self.copies:
            out = self.copies[-1][0].copy()
        return out


@dataclass(frozen=True)
class UnfoldResult:
    chain: UnfoldingChain
    points: np.ndarray       # (m+1, 3) unfolded trajectory points
    start_state: C.BoundaryState
    start_tangent: G.Tangent  # launch point/direction (= unfolded geodesic)
    labels: tuple
    vertex_hit: bool


def unfold(b, poly, bounces):
    """Reflect the table along a trajectory for the given bounce count.

    The unfolded points all lie on the single model geodesic through the
    launch state; a vertex hit truncates the chain and sets the flag.
    """
    k = poly.k
    p0, v0 = C.embed_state(poly, b)
    tr = C.trace(poly, b, bounces)
    sa, su = poly.kernel_pack()[:2]
    refl = poly.reflection_matrices()
    copies = []
    g = np.eye(3)
    pts = [p0]
    for i in range(tr.n_done):
        # bounce point in base coordinates, on the side hit at step i
        j = int(tr.labels[i]) - 1
        q = K.renorm_point(k, K.geodesic_point(k, sa[j], su[j],
                                               float(tr.svals[i])))
        pts.append(G.apply_isometry(g, q, k))
        g = g @ refl[j]   # a new array: the copies never alias
        copies.append((g, j + 1))
    chain = UnfoldingChain(tuple(copies), k)
    return UnfoldResult(chain, np.array(pts), b,
                        G.Tangent(p0, v0), tuple(int(x) for x in tr.labels),
                        tr.status == K.STEP_VERTEX)


def unfolded_crossings(result, poly, bounces=None):
    """Sides crossed by the single unfolded geodesic, computed independently.

    Intersecting the straight line with far polygon copies is ill
    conditioned on the hyperboloid (coordinates grow like exp(length)), so
    the crossing sequence is computed on the pulled-back line: each
    crossing applies the side's reflection matrix to the whole line, which
    keeps every coordinate bounded by the table size without changing the
    crossing order.  No boundary (s, psi) coordinates are used, so this is
    an independent route to the itinerary labels.  The crossings run in
    the crossing loop for the table's curvature
    (:mod:`ccbilliards._collision_loops`); ``bounces`` defaults to the
    chain's length.
    """
    n_steps = len(result.chain.copies) if bounces is None else bounces
    return crossing_labels_from_tangent(poly, result.start_tangent.point,
                                        result.start_tangent.direction,
                                        n_steps)


def crossing_labels(poly, b, n):
    """Crossing labels of the unfolded line through a boundary state."""
    p, v = C.embed_state(poly, b)
    return crossing_labels_from_tangent(poly, p, v, n)


def crossing_labels_from_tangent(poly, p, v, n):
    """Crossing labels of the unfolded line through the interior ray (p, v).

    The point must lie on the model surface and the direction be a
    nonzero tangent there, as finite 3-vectors; otherwise GeometryError,
    as for ``collision.trace_ray``.
    """
    C.check_count(n)
    p, v = C.check_ray(poly, p, v)
    sa, su, sn, sl, _, _, _ = poly.kernel_pack()
    refl = poly.reflection_pack()
    labels = np.empty(max(n, 1), dtype=np.int64)
    n_done = K.unfold_crossings(poly.k, sa, su, sn, sl, refl, p, v, n,
                                C.FLIGHT_MIN, C.VERTEX_TOL, labels)
    return tuple(int(x) + 1 for x in labels[:n_done])


@dataclass(frozen=True)
class IsometryClass:
    """Classification of a composed isometry."""

    kind: str                 # identity | translation | rotation |
                              # reflection | parabolic
    angle: float | None = None
    length: float | None = None
    axis: tuple | None = None  # unit 3-vector as floats, so reports compare

    def __str__(self):
        if self.kind == "rotation":
            return f"rotation by {self.angle:.12g}"
        if self.kind == "translation":
            return f"translation by {self.length:.12g}"
        if self.kind == "reflection":
            if self.angle is not None:
                return f"reflection-type (rotation content {self.angle:.12g})"
            return "reflection-type"
        return self.kind


def holonomy(chain):
    """Classify the composed isometry of an unfolding chain."""
    g = chain.holonomy_matrix()
    k = chain.base_k
    return classify_isometry(g, k)


def classify_isometry(g, k, tol=CLASSIFY_TOL):
    if np.max(np.abs(g - np.eye(3))) < tol:
        return IsometryClass("identity")
    if k == 0:
        lin = g[:2, :2]
        tr = g[:2, 2]
        det = lin[0, 0] * lin[1, 1] - lin[0, 1] * lin[1, 0]
        if det < 0:
            d = _fixed_direction(lin)
            return IsometryClass("reflection", axis=d)
        if np.max(np.abs(lin - np.eye(2))) < tol:
            length = float(np.linalg.norm(tr))
            return IsometryClass("translation", length=length,
                                 axis=_float_tuple([*(tr / length), 0.0]))
        ang = math.atan2(lin[1, 0], lin[0, 0])
        return IsometryClass("rotation", angle=ang)
    det = float(np.linalg.det(g))
    tr = float(np.trace(g))
    if k == 1:
        if det > 0:
            c = min(1.0, max(-1.0, (tr - 1.0) / 2.0))
            ang = math.acos(c)
            return IsometryClass("rotation", angle=ang, axis=_rotation_axis(g))
        c = min(1.0, max(-1.0, (tr + 1.0) / 2.0))
        return IsometryClass("reflection", angle=math.acos(c))
    # k == -1: classify in O(2,1)
    if det < 0:
        return IsometryClass("reflection")
    if tr > 3.0 + tol:
        return IsometryClass("translation", length=math.acosh((tr - 1.0) / 2.0))
    if tr < 3.0 - tol:
        c = min(1.0, max(-1.0, (tr - 1.0) / 2.0))
        return IsometryClass("rotation", angle=math.acos(c))
    return IsometryClass("parabolic")


def _fixed_direction(lin2):
    w, v = np.linalg.eigh((lin2 + lin2.T) / 2.0)
    d = v[:, int(np.argmax(w))]
    return _float_tuple([d[0], d[1], 0.0])


def _rotation_axis(g):
    u, s, vt = np.linalg.svd(g - np.eye(3))
    axis = vt[-1]
    n = np.linalg.norm(axis)
    return _float_tuple(axis / n if n > 0 else axis)


def _float_tuple(xs):
    return tuple(float(x) for x in xs)


# ---------------------------------------------------------------------------
# periodic orbits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodicOrbitReport:
    start: C.BoundaryState
    labels: tuple            # one period of 1-based side labels
    length: float            # total flight length over one period
    residual: float          # return displacement after refinement
    holonomy: IsometryClass

    @property
    def period(self):
        return len(self.labels)


def spherical_periodicity_condition(theta, n, m, tol=1e-9):
    """Closure law for orbits circling a spherical corner of angle theta.

    True iff 2 n theta = m pi: n counts the double reflections off the two
    sides at the corner (each pair advances the unfolding by a rotation of
    2 theta) and m the accumulated half-turns.  Independent of where on the
    opposite side the orbit starts.
    """
    if not 0.0 < theta < math.pi:
        raise ValueError("theta must be in (0, pi)")
    if n < 1:
        raise ValueError("n must be >= 1")
    return abs(2.0 * n * theta - m * math.pi) < tol


def _return_displacement(poly, side0, n, u):
    """Displacement of the n-bounce return map at u = (s, psi).

    Returns None when the orbit leaves the combinatorial branch (vertex
    hit, grazing, or a return to a different side).
    """
    s, psi = u
    side = poly.side(side0)
    if not (0.0 < s < side.length) or not (C.GRAZE_TOL < psi < math.pi - C.GRAZE_TOL):
        return None
    tr = C.trace(poly, C.BoundaryState(side0, s, psi), n)
    if tr.n_done < n or int(tr.labels[-1]) != side0:
        return None
    return np.array([tr.svals[-1] - s, tr.psis[-1] - psi]), tr


def _refine_candidate(poly, side0, n, u0):
    """Damped finite-difference Newton polish of a near-return."""
    u = np.array(u0, dtype=float)
    out = _return_displacement(poly, side0, n, u)
    if out is None:
        return None
    f, tr = out
    fn = np.max(np.abs(f))
    for _ in range(40):
        if fn < 1e-13:
            break
        jac = np.empty((2, 2))
        h = 1e-7
        ok = True
        for j in range(2):
            up = u.copy()
            up[j] += h
            um = u.copy()
            um[j] -= h
            op = _return_displacement(poly, side0, n, up)
            om = _return_displacement(poly, side0, n, um)
            if op is None or om is None:
                ok = False
                break
            jac[:, j] = (op[0] - om[0]) / (2 * h)
        if not ok:
            break
        step, *_ = np.linalg.lstsq(jac, -f, rcond=None)
        lam = 1.0
        improved = False
        for _ in range(8):
            out = _return_displacement(poly, side0, n, u + lam * step)
            if out is not None and np.max(np.abs(out[0])) < fn:
                u = u + lam * step
                f, tr = out
                fn = np.max(np.abs(f))
                improved = True
                break
            lam *= 0.5
        if not improved:
            break
    if fn < RETURN_VERIFY_TOL:
        return C.BoundaryState(side0, float(u[0]), float(u[1])), float(fn), tr
    return None


# angles probed on every sampled side in addition to the jittered grid;
# structurally symmetric orbit families (perpendicular, diagonal, ...) sit
# exactly on these values
_CANONICAL_ANGLES = (math.pi / 2, math.pi / 3, 2 * math.pi / 3, math.pi / 4,
                     3 * math.pi / 4, math.pi / 6, 5 * math.pi / 6)


def _canonical_sequence(labels):
    seq = tuple(labels)
    best = None
    for cand in (seq, tuple(reversed(seq))):
        for r in range(len(cand)):
            rot = cand[r:] + cand[:r]
            if best is None or rot < best:
                best = rot
    return best


def find_periodic(poly, max_bounces, samples, seed):
    """Seeded search for periodic billiard orbits.

    Deterministic grid + jitter sampling of boundary states.  The sweep
    traces the samples together, SWEEP_BLOCK at a time, with the batched
    numpy engine (``collision.trace_many``), and scans each block for
    candidates in numpy as well: a return to the starting side that lands
    within 1e-4 in (s, psi).  A candidate is polished by a derivative-free
    Newton on the return displacement, and kept below a 1e-8 residual,
    only when its bounce sequence in the sweep is new; one report is kept
    per bounce sequence (up to rotation and reversal), so a continuous
    family is represented by one member.  Each sample contributes at most
    one report, from its first candidate that is not rejected.

    Newton polish and everything after it use the scalar ``trace``.
    """
    if max_bounces < 1 or samples < 1:
        raise ValueError("search bounds must be positive")
    states = _sweep_states(poly, samples, seed)
    reports = {}
    for lo in range(0, len(states), SWEEP_BLOCK):
        block = states[lo:lo + SWEEP_BLOCK]
        batch = C.trace_many(poly, block, max_bounces)
        hit = _near_returns(block, batch)
        for r in np.flatnonzero(hit.any(axis=1)).tolist():
            _polish_row(poly, block[r], batch.labels[r],
                        np.flatnonzero(hit[r]).tolist(), reports)
    return sorted(reports.values(), key=lambda r: (r.period, r.length, r.labels))


def _sweep_states(poly, samples, seed):
    """The boundary states ``find_periodic`` sweeps, in sweep order."""
    rng = np.random.default_rng(seed)
    ns = poly.n_sides
    states = []
    per_side = max(1, samples // ns)
    n_s = max(1, int(math.sqrt(per_side / 3)))
    n_psi = max(1, per_side // n_s)
    for label in range(1, ns + 1):
        L = poly.side(label).length
        for a in _CANONICAL_ANGLES:
            for frac in (0.25, 0.5, 0.75):
                states.append(C.BoundaryState(label, frac * L, a))
        for i in range(n_s):
            for j in range(n_psi):
                s = L * (i + 0.5 + 0.8 * (rng.random() - 0.5)) / n_s
                psi = math.pi * (j + 0.5 + 0.8 * (rng.random() - 0.5)) / n_psi
                s = min(max(s, 1e-6 * L), (1 - 1e-6) * L)
                psi = min(max(psi, 1e-3), math.pi - 1e-3)
                states.append(C.BoundaryState(label, s, psi))
    return states


def _near_returns(states, batch):
    """(N, n) mask of the sweep's candidate returns.

    Bounce i of row r is a candidate when it lands back on the starting
    side within RETURN_CANDIDATE_TOL in both s and psi.
    """
    side0 = np.array([b.side for b in states], dtype=np.int64)
    s0 = np.array([b.s for b in states], dtype=np.float64)
    psi0 = np.array([b.psi for b in states], dtype=np.float64)
    disp = np.maximum(np.abs(batch.svals - s0[:, None]),
                      np.abs(batch.psis - psi0[:, None]))
    return (batch.labels == side0[:, None]) & (disp < RETURN_CANDIDATE_TOL)


def _polish_row(poly, b, labels, returns, reports):
    """Polish the near-returns of one sample until one settles its sequence.

    ``labels`` is the sample's row of sweep labels and ``returns`` its
    candidate bounce indices in ascending order.  A return whose sweep
    sequence is already reported ends the row without a polish.
    """
    for i in returns:
        n = i + 1
        if _canonical_sequence(labels[:n].tolist()) in reports:
            return
        refined = _refine_candidate(poly, b.side, n, (b.s, b.psi))
        if refined is None:
            continue
        start, residual, rtr = refined
        key = _canonical_sequence(int(x) for x in rtr.labels)
        if key in reports:
            return
        res = unfold(start, poly, n)
        hol = holonomy(res.chain)
        if poly.k == 0 and not _flat_direction_check(res, poly):
            continue
        reports[key] = PeriodicOrbitReport(
            start, tuple(int(x) for x in rtr.labels),
            float(np.sum(rtr.flights)), residual, hol)
        return


def _flat_direction_check(res, poly):
    """Flat periodicity certificate: the holonomy preserves the direction."""
    g = res.chain.holonomy_matrix()
    d = res.start_tangent.direction[:2]
    return float(np.linalg.norm(g[:2, :2] @ d - d)) < 1e-8


def verify_periodic(report, poly):
    """Re-simulate one period and return the actual return residual."""
    out = _return_displacement(poly, report.start.side, report.period,
                               (report.start.s, report.start.psi))
    if out is None:
        return math.inf
    f, tr = out
    if tuple(int(x) for x in tr.labels) != report.labels:
        return math.inf
    return float(np.max(np.abs(f)))
