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

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from . import collision as C
from . import geometry as G

SWEEP_BLOCK = 2048            # sweep states per engine grid in find_periodic
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
        return self.copies[-1][0].copy() if self.copies else np.eye(3)


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
    for label, s in zip(tr.labels, tr.svals):
        # bounce point in base coordinates, on the side hit
        j = label - 1
        q = K.renorm_point(k, K.geodesic_point(k, sa[j], su[j], s))
        pts.append(G.apply_isometry(g, q, k))
        g = g @ refl[j]   # a new array: the copies never alias
        copies.append((g, label))
    chain = UnfoldingChain(tuple(copies), k)
    return UnfoldResult(chain, np.array(pts), b,
                        G.Tangent(np.array(p0), np.array(v0)), tr.labels,
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

    The point must lie on the model surface and the direction be a unit
    tangent there, as finite 3-vectors; otherwise GeometryError, as for
    ``collision.trace_ray``.
    """
    C.check_count(n)
    p, v = C.check_ray(poly, p, v)
    labels = [0] * n
    n_done = K.unfold_crossings(poly.k, poly.kernel_pack()[7],
                                poly.reflection_pack(), p, v, n,
                                C.FLIGHT_MIN, labels)
    return tuple([j + 1 for j in labels[:n_done]])


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
    if tr.n_done < n or tr.labels[-1] != side0:
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
_CANONICAL_FRACS = (0.25, 0.5, 0.75)   # of the side length


def _rotations(labels):
    """Every rotation and reversal of a cyclic bounce sequence."""
    seq = tuple(labels)
    return {c[r:] + c[:r] for c in (seq, seq[::-1]) for r in range(len(c))}


def find_periodic(poly, max_bounces, samples, seed):
    """Seeded search for periodic billiard orbits.

    Deterministic grid + jitter sampling of boundary states, as (side, s,
    psi) arrays: per side, the 21 canonical states and a jittered grid of
    at most max(1, samples // n_sides) states, so samples bounds the
    jittered part, not the total (200 samples sweep 276 states on the
    square and 300 on the pentagon).  The sweep traces them with the
    batched numpy engine (``collision.trace_columns``, SWEEP_BLOCK states
    to a grid), all of them one bounce at a time, and scans each bounce
    for candidates in numpy as well: a return to the starting side that
    lands within 1e-4 in (s, psi).  One report is kept per bounce sequence
    up to rotation and reversal, so a continuous family is represented by
    one member: a set holds every rotation and reversal of each reported
    sequence, and a candidate whose sweep sequence is in it ends its sample
    after that one lookup, with no polish.  Any other is polished by a
    derivative-free Newton on the return displacement and kept below a
    1e-8 residual if its polished sequence is new.  Each sample contributes
    at most one report, from its first candidate that is not rejected.
    Reports come sorted by (period, length, labels);
    ``first_verified_orbit`` runs the same sweep and stops it early.

    Newton polish and everything after it use the scalar ``trace``.
    max_bounces and samples must be integers >= 1, seed an integer >= 0.
    """
    _check_search(max_bounces, samples, seed)
    return [r for reports in _periodic_sweep(poly, max_bounces, samples, seed)
            for r in reports]


def first_verified_orbit(poly, max_bounces, samples, seed):
    """The first ``find_periodic`` report that ``verify_periodic`` confirms
    below RETURN_VERIFY_TOL, or None.

    The sweep stops after the first bounce that gives such a report: the
    reports of later bounces all have longer periods, so they come after
    it in ``find_periodic``'s order.  The arguments are checked as
    ``find_periodic`` checks them.
    """
    _check_search(max_bounces, samples, seed)
    with contextlib.closing(_periodic_sweep(poly, max_bounces, samples,
                                            seed)) as sweep:
        for reports in sweep:
            for rep in reports:
                if verify_periodic(rep, poly) < RETURN_VERIFY_TOL:
                    return rep
    return None


def _check_search(max_bounces, samples, seed):
    C.check_count(max_bounces, "max_bounces", 1)
    C.check_count(samples, "samples", 1)
    C.check_count(seed, "seed", 0)


def _periodic_sweep(poly, max_bounces, samples, seed):
    """``find_periodic``'s search as a generator: item n - 1 lists the
    reports of period n, by (length, labels), after bounce n of every
    sample.

    A report of period n comes from a candidate at bounce n, and the set
    of reported sequences can only match sequences of length n at bounce
    n, so a sample's candidates see the same set, bounce by bounce over all
    samples, as they would sample by sample.  The generator may be closed
    after any item: later items hold longer periods only.

    Between bounces the sweep keeps each sample's labels so far, one byte
    a bounce on tables of up to 255 sides, and whether it is still open.
    """
    start = side, s, psi = _sweep_states(poly, samples, seed)
    labels = np.zeros((len(side), max_bounces),
                      np.min_scalar_type(poly.n_sides))
    open_rows = np.ones(len(side), dtype=bool)
    seen = set()
    for n, column in enumerate(C.trace_columns(poly, *start, max_bounces,
                                               SWEEP_BLOCK), 1):
        labels[column[0], n - 1] = column[1]
        reports = []
        cand = _near_returns(start, open_rows, *column)
        for r, seq in zip(cand, labels[cand, :n].tolist() if cand else ()):
            if tuple(seq) in seen:
                open_rows[r] = False
                continue
            b = side[r].item(), s[r].item(), psi[r].item()
            rep, open_rows[r] = _polish(poly, b, n, seen)
            if rep is not None:
                reports.append(rep)
                seen |= _rotations(rep.labels)
        yield sorted(reports, key=lambda r: (r.length, r.labels))


def _sweep_states(poly, samples, seed):
    """The (side, s, psi) arrays ``find_periodic`` sweeps, in sweep order:
    per side, the 21 canonical states, then the jittered n_s x n_psi grid
    (the draws for s and psi alternate along one ``rng.random`` stream)."""
    rng = np.random.default_rng(seed)
    ns = poly.n_sides
    per_side = max(1, samples // ns)
    n_s = max(1, int(math.sqrt(per_side / 3)))
    n_psi = max(1, per_side // n_s)
    i, j = np.divmod(np.arange(n_s * n_psi), n_psi)
    frac = np.tile(_CANONICAL_FRACS, len(_CANONICAL_ANGLES))
    canonical_psi = np.repeat(_CANONICAL_ANGLES, len(_CANONICAL_FRACS))
    s_parts, psi_parts = [], []
    for label in range(1, ns + 1):
        L = poly.side(label).length
        r = rng.random(2 * n_s * n_psi)
        s = L * (i + 0.5 + 0.8 * (r[0::2] - 0.5)) / n_s
        psi = math.pi * (j + 0.5 + 0.8 * (r[1::2] - 0.5)) / n_psi
        s_parts += [frac * L, np.minimum(np.maximum(s, 1e-6 * L),
                                         (1 - 1e-6) * L)]
        psi_parts += [canonical_psi, np.minimum(np.maximum(psi, 1e-3),
                                                math.pi - 1e-3)]
    side = np.repeat(np.arange(1, ns + 1, dtype=np.int64),
                     len(canonical_psi) + n_s * n_psi)
    return side, np.concatenate(s_parts), np.concatenate(psi_parts)


def _near_returns(start, open_rows, idx, labels, svals, psis):
    """The sweep's candidates in one bounce, as a list: the open rows idx[i]
    of the block whose start is ``start`` = (side, s, psi) and whose bounce
    (labels, svals, psis)[i] lands back on the starting side within
    RETURN_CANDIDATE_TOL in both s and psi.  The s test comes first: it
    rejects almost every bounce."""
    side0, s0, psi0 = start
    i = (np.abs(svals - s0[idx]) < RETURN_CANDIDATE_TOL).nonzero()[0]
    if not i.size:
        return []
    r = idx[i]
    return r[(labels[i] == side0[r]) & open_rows[r]
             & (np.abs(psis[i] - psi0[r]) < RETURN_CANDIDATE_TOL)].tolist()


def _polish(poly, b, n, seen):
    """Polish the near-return at bounce n of the sample b = (side, s, psi);
    ``seen`` holds every rotation and reversal of the sequences reported
    so far.

    Returns (report or None, whether the sample stays open): a polished
    sequence already in ``seen`` closes the sample with no report, a failed
    polish leaves it open for its next candidate.
    """
    refined = _refine_candidate(poly, b[0], n, b[1:])
    if refined is None:
        return None, True
    start, residual, rtr = refined
    if rtr.labels in seen:
        return None, False
    res = unfold(start, poly, n)
    hol = holonomy(res.chain)
    if poly.k == 0 and not _flat_direction_check(res, poly):
        return None, True
    # np.sum's pairwise summation, not sum()'s: the length's bits reach the
    # CLI JSON
    return PeriodicOrbitReport(start, rtr.labels, float(np.sum(rtr.flights)),
                               residual, hol), False


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
    if tr.labels != report.labels:
        return math.inf
    return float(np.max(np.abs(f)))
