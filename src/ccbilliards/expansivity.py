"""Expansiveness evidence probes and table classification.

Whether a billiard flow is expansive is not decidable by finite
computation; this module implements the witness logic that is:

* hyperbolic tables are expansive unconditionally (classification rule
  ``hyperbolic-expansive``);
* a flat table with a periodic orbit is not expansive (the orbit sits in a
  band of parallel periodic orbits), and absence of periodic orbits is
  equivalent to expansiveness but not certifiable by search - so flat
  verdicts are ``not_expansive`` with a verified orbit or ``unknown``;
* a spherical table is not expansive given any of: a periodic orbit, a
  pair of distinct orbits sharing an itinerary, or two vertices joined by
  a diagonal of length a multiple of pi.  No positive certificate is
  implemented (the sufficient condition needs itinerary injectivity,
  which a finite probe cannot establish), so the other outcome is
  ``unknown``.

A same-itinerary pair must be two orbits, not one: ``probe_pair`` rejects
b when it is a or one of a's iterates under the billiard map, past or
future, within ``SAME_ORBIT_WINDOW`` bounces, compared as boundary states
(side, s, psi) to ``SAME_ORBIT_TOL``.

``expansive`` is never returned for curvature 0 or +1.
"""

import math
import numbers
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import _kernels as K
from . import collision as C
from . import unfolding as U
from .errors import GeometryError

# two boundary states on one side are one state of the billiard map when
# both s and psi differ by less than this
SAME_ORBIT_TOL = 1e-6
SAME_ORBIT_WINDOW = 20      # bounces of the map scanned, past and future
PAIR_DIRECTION_OFFSET = 1e-5


class Rule(str, Enum):
    """Classification rules the verdicts cite."""

    HYPERBOLIC_EXPANSIVE = "hyperbolic-expansive"
    FLAT_PERIODIC_ORBIT = "flat-periodic-orbit"
    SPHERE_PERIODIC_ORBIT = "sphere-periodic-orbit"
    SPHERE_SAME_ITINERARY = "sphere-same-itinerary"
    SPHERE_CONJUGATE_VERTICES = "sphere-conjugate-vertices"


class PairProbe(NamedTuple):
    """Outcome of comparing two orbits' itineraries symbol by symbol."""

    a: C.BoundaryState
    b: C.BoundaryState
    horizon: int
    outcome: str              # "itineraries_agree" | "itineraries_diverge"
    diverge_index: int | None  # signed collision index of first disagreement
    truncated: bool           # a vertex or grazing stop came within horizon
    compared: tuple           # (backward span, forward span) actually compared


class SearchBudget(NamedTuple):
    horizon: int = 1000          # itinerary comparison span, bounces
    # periodic-orbit sweep: per side, 21 canonical states and a jittered
    # grid of at most max(1, samples // n_sides) states
    samples: int = 10000
    # return-map depth per seed: the sweep runs at most this many bounces,
    # and classify stops it after the first that gives a verified orbit
    periodic_bounces: int = 50
    diagonal_depth: int = 20     # max bounces in the diagonal search
    diagonal_length: float = 4.0 * math.pi
    diagonal_angles: int = 10000
    pair_probes: int = 48        # same-itinerary pair attempts (sphere)
    seed: int = 0


# SearchBudget's count fields and their least values
_BUDGET_COUNTS = (("horizon", 1), ("samples", 1), ("periodic_bounces", 1),
                  ("diagonal_depth", 0), ("diagonal_angles", 1),
                  ("pair_probes", 0), ("seed", 0))


class Witness(NamedTuple):
    kind: str                    # "periodic_orbit" | "same_itinerary_pair" |
                                 # "conjugated_vertices"
    rule: Rule
    data: object
    verified: bool


class ExpansivenessVerdict(NamedTuple):
    verdict: str                 # "expansive" | "not_expansive" | "unknown"
    rules: tuple
    witnesses: tuple
    budget: SearchBudget
    notes: tuple = ()


def _same_orbit(a, a_traces, b):
    """The billiard map's identity test: is b on a's orbit segment?

    a_traces are the traces of a and of a.reversed(), at least
    SAME_ORBIT_WINDOW bounces long unless they stopped earlier.  b is on
    the segment iff it lies on the side of a, of a forward-trace state
    f^i(a), or of a backward-trace state reversed, which is f^-i(a)
    (1 <= i <= SAME_ORBIT_WINDOW), and within SAME_ORBIT_TOL of it in
    both s and psi.
    """
    w = SAME_ORBIT_WINDOW
    fwd, back = a_traces
    states = [(a.side, a.s, a.psi),
              *zip(fwd.labels[:w], fwd.svals[:w], fwd.psis[:w]),
              *zip(back.labels[:w], back.svals[:w],
                   [math.pi - psi for psi in back.psis[:w]])]
    return any(j == b.side and abs(s - b.s) < SAME_ORBIT_TOL
               and abs(psi - b.psi) < SAME_ORBIT_TOL for j, s, psi in states)


def probe_pair(a, b, poly, horizon):
    """Compare the itineraries of two distinct orbits over +-horizon bounces.

    Symmetric in its arguments.  Raises when b is a or one of a's
    iterates f^i(a) under the billiard map, past or future, within
    SAME_ORBIT_WINDOW bounces (``_same_orbit``): such a pair is one
    orbit.  b is traced first, so an invalid b fails before a is traced.
    a's two directions are traced once, far enough for both the
    orbit-segment test and the comparison.  A vertex or grazing stop
    within horizon shortens the comparison and sets ``truncated``; an
    escape raises (``collision.direction_labels``).
    """
    C.check_count(horizon, "horizon", 1)
    b_fwd = C.trace(poly, b, horizon)
    span = max(horizon, SAME_ORBIT_WINDOW)
    a_back = a.reversed()
    a_traces = (C.trace(poly, a, span), C.trace(poly, a_back, span))
    if _same_orbit(a, a_traces, b):
        raise GeometryError("probe_pair requires states on distinct orbits")
    b_back = b.reversed()
    fa, end_fa = C.direction_labels(a, a_traces[0], horizon)
    fb, end_fb = C.direction_labels(b, b_fwd, horizon)
    ba, end_ba = C.direction_labels(a_back, a_traces[1], horizon)
    bb, end_bb = C.direction_labels(b_back, C.trace(poly, b_back, horizon),
                                    horizon)
    truncated = {end_fa, end_fb, end_ba, end_bb} != {"horizon"}
    nf = min(len(fa), len(fb))
    nb = min(len(ba), len(bb))
    diverge = None
    for i in range(nf):
        if fa[i] != fb[i]:
            diverge = i
            break
    if diverge is None:
        for i in range(1, nb):
            if ba[i] != bb[i]:
                diverge = -i
                break
    outcome = "itineraries_agree" if diverge is None else "itineraries_diverge"
    return PairProbe(a, b, horizon, outcome, diverge, truncated,
                     (nb - 1, nf - 1))


def periodic_orbit_neighborhood_check(report, poly,
                                      displacements=(-1e-3, -5e-4, 2.5e-4,
                                                     5e-4, 1e-3)):
    """Flat periodic orbits persist under parallel displacement.

    Shifts the starting arc parameter and re-simulates; every displaced
    state must be periodic with the same bounce sequence.  Returns a truthy
    result object with per-displacement failures.
    """
    if poly.k != 0:
        raise GeometryError("the parallel-band check applies to flat tables")
    side = poly.side(report.start.side)
    failures = []
    for d in displacements:
        s = report.start.s + d
        if not 0.0 < s < side.length:
            failures.append((d, "displacement leaves the side"))
            continue
        shifted = C.BoundaryState(report.start.side, s, report.start.psi)
        tr = C.trace(poly, shifted, report.period)
        if tr.status == K.STEP_VERTEX:
            failures.append((d, "displaced orbit hits a vertex"))
            continue
        if tr.n_done < report.period or tr.labels != report.labels:
            failures.append((d, "bounce sequence changed"))
            continue
        res = max(abs(tr.svals[-1] - s), abs(tr.psis[-1] - report.start.psi))
        if res > 1e-8:
            failures.append((d, f"return residual {res:.3e}"))
    return NeighborhoodCheck(not failures, tuple(failures))


class NeighborhoodCheck(NamedTuple):
    ok: bool
    failures: tuple

    def __bool__(self):
        return self.ok


def _sphere_pair_witness(poly, budget):
    """Search for two distinct orbits sharing a full +-horizon itinerary.

    Probes pairs of nearby directions from common base points, the
    configuration in which non-expansive spherical tables exhibit equal
    itineraries.
    """
    rng = np.random.default_rng(budget.seed + 1)
    # below n_sides probes, one on each of the first pair_probes sides
    per_side = max(1, budget.pair_probes // poly.n_sides)
    for label in range(1, min(poly.n_sides, budget.pair_probes) + 1):
        L = poly.side(label).length
        for _ in range(per_side):
            s = float(rng.uniform(0.2, 0.8)) * L
            psi = float(rng.uniform(0.3, math.pi - 0.3))
            a = C.BoundaryState(label, s, psi)
            b = C.BoundaryState(label, s, psi + PAIR_DIRECTION_OFFSET)
            try:
                probe = probe_pair(a, b, poly, budget.horizon)
            except GeometryError:
                continue
            if probe.outcome == "itineraries_agree" and not probe.truncated:
                return probe
    return None


def classify(poly, budget=None):
    """Expansiveness verdict with verified witnesses.

    Hyperbolic tables are expansive outright.  Flat and spherical tables
    are probed within the budget; failure to find a witness yields an
    honest ``unknown``.

    The periodic-orbit witness is the first report of ``find_periodic``,
    verified below RETURN_VERIFY_TOL by the Newton polish that made it
    (its ``residual`` is what ``verify_periodic`` gives).
    ``unfolding.first_verified_orbit`` finds it and stops the sweep after
    the bounce that gives it, since later bounces give longer periods only.

    The budget is checked before any search, on hyperbolic tables too,
    which use none of it: its counts must be integers (diagonal_depth,
    pair_probes and seed >= 0, the others >= 1) and diagonal_length a
    finite number > 0.
    """
    if budget is None:
        budget = SearchBudget()
    for name, least in _BUDGET_COUNTS:
        C.check_count(getattr(budget, name), name, least)
    length = budget.diagonal_length
    if (isinstance(length, bool) or not isinstance(length, numbers.Real)
            or not (math.isfinite(length) and length > 0)):
        raise ValueError(f"diagonal_length must be a finite number > 0, "
                         f"got {length!r}")
    if poly.k == -1:
        return ExpansivenessVerdict(
            "expansive", (Rule.HYPERBOLIC_EXPANSIVE,), (), budget,
            ("every polygonal table in the hyperbolic plane has an expansive "
             "flow; itineraries separate distinct orbits",))
    rep = U.first_verified_orbit(poly, budget.periodic_bounces,
                                 budget.samples, budget.seed)
    if poly.k == 0:
        if rep is None:
            return ExpansivenessVerdict(
                "unknown", (), (), budget,
                ("no periodic orbit found within the search budget; absence "
                 "is not certifiable by finite search",))
        band = periodic_orbit_neighborhood_check(rep, poly)
        w = Witness("periodic_orbit", Rule.FLAT_PERIODIC_ORBIT, rep, True)
        return ExpansivenessVerdict(
            "not_expansive", (Rule.FLAT_PERIODIC_ORBIT,), (w,), budget,
            ("periodic orbit sits in a parallel band of periodic orbits",)
            if band else ())
    # sphere
    rules = []
    witnesses = []
    if rep is not None:
        rules.append(Rule.SPHERE_PERIODIC_ORBIT)
        witnesses.append(Witness("periodic_orbit", Rule.SPHERE_PERIODIC_ORBIT,
                                 rep, True))
    pair = _sphere_pair_witness(poly, budget)
    if pair is not None:
        rules.append(Rule.SPHERE_SAME_ITINERARY)
        witnesses.append(Witness("same_itinerary_pair",
                                 Rule.SPHERE_SAME_ITINERARY, pair, True))
    conj = C.conjugated_vertices(poly, budget.diagonal_depth,
                                 budget.diagonal_length,
                                 budget.diagonal_angles)
    if conj:
        rules.append(Rule.SPHERE_CONJUGATE_VERTICES)
        witnesses.append(Witness("conjugated_vertices",
                                 Rule.SPHERE_CONJUGATE_VERTICES, tuple(conj),
                                 all(c.residual < 1e-8 for c in conj)))
    if witnesses:
        return ExpansivenessVerdict("not_expansive", tuple(rules),
                                    tuple(witnesses), budget)
    return ExpansivenessVerdict(
        "unknown", (), (), budget,
        ("no witness found within the search budget; no finite certificate "
         "of spherical expansiveness is implemented",))


def format_verdict(v, table_name=""):
    """Structured text report naming the rules and embedding witness data."""
    lines = []
    if table_name:
        lines.append(f"table: {table_name}")
    lines.append(f"verdict: {v.verdict}")
    lines.append("rules: " + (", ".join(r.value for r in v.rules) or "none"))
    for note in v.notes:
        lines.append(f"note: {note}")
    lines.append(f"witnesses: {len(v.witnesses)}")
    for w in v.witnesses:
        lines.append(f"  - kind: {w.kind} (rule {w.rule.value}, "
                     f"verified {'yes' if w.verified else 'no'})")
        if w.kind == "periodic_orbit":
            rep = w.data
            lines.append(f"    labels: {','.join(map(str, rep.labels))}")
            lines.append(f"    length: {rep.length:.12g}")
            lines.append(f"    residual: {rep.residual:.3e}")
            lines.append(f"    holonomy: {rep.holonomy}")
        elif w.kind == "same_itinerary_pair":
            pr = w.data
            lines.append(f"    base: side {pr.a.side} s {pr.a.s:.12g}")
            lines.append(f"    psi: {pr.a.psi:.12g} and {pr.b.psi:.12g}")
            lines.append(f"    agreement span: -{pr.compared[0]}..{pr.compared[1]}")
        elif w.kind == "conjugated_vertices":
            for cpair in w.data:
                lines.append(f"    vertices {cpair.vertices[0]}-{cpair.vertices[1]}"
                             f" length {cpair.diagonal.length:.12g}"
                             f" = {cpair.m} pi (residual {cpair.residual:.3e})")
    return "\n".join(lines) + "\n"
