"""Job lists of the three benchmark workloads and the checks on their outputs.

A job is one call into ccbilliards: a CLI command run in-process, or one
library call.  ``call`` is the timed part.  ``describe`` turns its result
into plain JSON data outside the timed region, and ``matches`` compares that
data with the stored reference (``reference/<workload>.json``).

Seeds: periodic-search passes the run's seed to the CLI's ``--seed`` and
single-orbit draws its starting states from it, both after reduction modulo
``POOL``, the number of seeds whose reference outputs are stored.
diagonal-search scans a fixed fan and ignores the seed.

Discrete results (labels, sequences, verdicts, rules, stop reasons) must
match the reference exactly, floats within ``FLOAT_TOL``.  On the hyperbolic
pentagon, labels are float64 noise beyond some 20-40 bounces, so there the
reference records for each trajectory the span of bounces over which its own
forward-backward reversal residual stays below ``FLOAT_TOL``, and only that
span is compared.  The full horizon is still traced and timed.
"""

import contextlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from ccbilliards import cli
from ccbilliards import collision as C
from ccbilliards import expansivity as E
from ccbilliards import flow as F
from ccbilliards import tables
from ccbilliards import unfolding as U
from ccbilliards.errors import ChartExitError
from ccbilliards.polygon import vertex_neighborhood_radius

POOL = 16
FLOAT_TOL = 1e-8
PI_4 = repr(math.pi / 4)

# CLI commands at pinned budgets; "--json --seed <seed>" is appended.
PERIODIC_COMMANDS = (
    ("expansivity/square",
     "expansivity --table square --samples 200 --max-bounces 20"),
    ("expansivity/sphere-triangle-pi4",
     f"expansivity --table sphere-triangle --theta {PI_4} --samples 200"
     " --max-bounces 20 --horizon 100 --depth 8 --angles 20"),
    ("periodic/hyperbolic-pentagon",
     "periodic --table hyperbolic-pentagon --samples 200 --max-bounces 20"),
)
DIAGONAL_COMMANDS = (
    ("diagonals/sphere-triangle-1",
     "diagonals --table sphere-triangle --theta 1.0 --angles 24"),
    ("diagonals/square", "diagonals --table square --angles 24"),
)

# single-orbit budgets
ORBIT_TABLES = (("square", "square", None),
                ("sphere-triangle-1", "sphere-triangle", 1.0),
                ("hyperbolic-pentagon", "hyperbolic-pentagon", None))
ITINERARY_HORIZON = 200
PROBE_HORIZON = 60
PROBE_OFFSET = 1e-3
CROSSINGS = 200
UNFOLD_BOUNCES = 16
CHART_TIME = 50.0          # rescaled time; every sampled state leaves the chart sooner
CHART_FLOWS_PER_VERTEX = 2
CLOSED_FORM_PER_VERTEX = 8


@dataclass(frozen=True)
class Job:
    key: str
    kind: str
    call: object                 # () -> raw result; the timed part
    describe: object             # raw result -> JSON data
    reliable: object = None      # () -> reliable spans; reference run only


def _labels(seq):
    # every benchmark table has fewer than ten sides
    return "".join(str(int(x)) for x in seq)


# ---------------------------------------------------------------------------
# CLI jobs
# ---------------------------------------------------------------------------

def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:   # argparse rejected the arguments
            rc = exc.code
    return rc, buf.getvalue()


def _describe_cli(raw):
    rc, text = raw
    return {"rc": rc, "json": json.loads(text) if rc == 0 else text}


def _cli_job(key, argv):
    return Job(key, "cli", lambda: _run_cli(argv), _describe_cli)


# ---------------------------------------------------------------------------
# single-orbit library jobs
# ---------------------------------------------------------------------------

def orbit_tables():
    return {key: tables.named_table(name, theta)
            for key, name, theta in ORBIT_TABLES}


def _boundary_state(rng, poly):
    side = int(rng.integers(1, poly.n_sides + 1))
    s = float(rng.uniform(0.1, 0.9)) * poly.side(side).length
    return C.BoundaryState(side, s, float(rng.uniform(0.2, math.pi - 0.2)))


def _stratum(rng, i, n, lo, hi):
    """Uniform draw from the i-th of n equal slices of [lo, hi].

    Stratified draws keep the work of a pass nearly the same from seed to
    seed: chart-exit times depend strongly on the direction beta.
    """
    return lo + (hi - lo) * (i + float(rng.random())) / n


def _chart_state(rng, theta, eps, i, n):
    return F.ChartState(float(rng.uniform(0.2, 0.8)) * eps,
                        float(rng.uniform(0.1, 0.9)) * theta,
                        _stratum(rng, i, n, 0.3, 2.0 * math.pi - 0.3))


def reversal_span(poly, b, nmax):
    """Bounces n <= nmax over which tracing n forward, then n back, returns to b.

    The round trip must end on b's side within FLOAT_TOL in (s, psi) for
    every n up to the returned span.
    """
    fwd = C.trace(poly, b, nmax)
    home = b.reversed()
    for n in range(1, fwd.n_done + 1):
        back = C.trace(poly, fwd.state(n - 1).reversed(), n)
        if back.n_done < n:
            return n - 1
        end = back.state(n - 1)
        if end.side != home.side or max(abs(end.s - home.s),
                                        abs(end.psi - home.psi)) >= FLOAT_TOL:
            return n - 1
    return fwd.n_done


def _spans(poly, b, nmax, backward=True):
    """Reliable spans of the trajectory through b; None off the hyperbolic plane."""
    if poly.k != -1:
        return None
    out = {"fwd": reversal_span(poly, b, nmax)}
    if backward:
        out["back"] = reversal_span(poly, b.reversed(), nmax)
    return out


def _pair_spans(poly, a, b):
    if poly.k != -1:
        return None
    return {"a": _spans(poly, a, PROBE_HORIZON),
            "b": _spans(poly, b, PROBE_HORIZON)}


def _describe_itinerary(it):
    return {"labels": _labels(it.labels), "start": it.start_index,
            "term": it.termination, "term_back": it.termination_backward}


def _describe_probe(pr):
    return {"outcome": pr.outcome, "diverge": pr.diverge_index,
            "truncated": pr.truncated, "compared": list(pr.compared)}


def _unfold_holonomy(poly, b, n):
    res = U.unfold(b, poly, n)
    return res, U.holonomy(res.chain)


def _describe_unfold(raw):
    res, hol = raw
    return {"labels": _labels(res.labels), "vertex_hit": res.vertex_hit,
            "holonomy": {"kind": hol.kind, "angle": hol.angle,
                         "length": hol.length}}


def _describe_chart_flow(traj):
    return {"exited": traj.exited, "exit_time": traj.exit_time,
            "final": [float(x) for x in traj.states[-1]]}


def _closed_form(s0, t, k, eps):
    try:
        return F.closed_form_flow(s0, t, k, eps=eps)
    except ChartExitError as exc:   # leaving the chart is a normal outcome
        return exc


def _describe_closed_form(res):
    if isinstance(res, ChartExitError):
        st = res.state
        return {"exit": True, "time": res.exit_time,
                "state": [st.r, st.gamma, st.beta]}
    return {"exit": False, "time": None, "state": [res.r, res.gamma, res.beta]}


def single_orbit(seed, polys):
    """Independent one-trajectory calls on all three tables, states from the seed."""
    rng = np.random.default_rng(seed % POOL)
    jobs = []
    for key, poly in polys.items():
        for i in range(2):
            b = _boundary_state(rng, poly)
            jobs.append(Job(
                f"itinerary/{key}/{i}", "itinerary",
                lambda b=b, poly=poly: C.itinerary(b, poly, ITINERARY_HORIZON,
                                                   "bidirectional"),
                _describe_itinerary,
                lambda b=b, poly=poly: _spans(poly, b, ITINERARY_HORIZON)))
        a = _boundary_state(rng, poly)
        b = C.BoundaryState(a.side, a.s, a.psi + PROBE_OFFSET)
        jobs.append(Job(
            f"probe_pair/{key}", "probe_pair",
            lambda a=a, b=b, poly=poly: E.probe_pair(a, b, poly, PROBE_HORIZON),
            _describe_probe,
            lambda a=a, b=b, poly=poly: _pair_spans(poly, a, b)))
        for i in range(2):
            b = _boundary_state(rng, poly)
            jobs.append(Job(
                f"crossing_labels/{key}/{i}", "crossing_labels",
                lambda b=b, poly=poly: U.crossing_labels(poly, b, CROSSINGS),
                lambda labels: {"labels": _labels(labels)},
                lambda b=b, poly=poly: _spans(poly, b, CROSSINGS,
                                               backward=False)))
        for i in range(2):
            b = _boundary_state(rng, poly)
            jobs.append(Job(
                f"unfold/{key}/{i}", "unfold",
                lambda b=b, poly=poly: _unfold_holonomy(poly, b, UNFOLD_BOUNCES),
                _describe_unfold,
                lambda b=b, poly=poly: _spans(poly, b, UNFOLD_BOUNCES,
                                               backward=False)))
        for v in range(poly.n_vertices):
            theta = poly.angles[v]
            eps = vertex_neighborhood_radius(poly, v)
            for i in range(CHART_FLOWS_PER_VERTEX):
                s0 = _chart_state(rng, theta, eps, i, CHART_FLOWS_PER_VERTEX)
                c0 = F.chart_embed(s0, theta, poly.k)
                jobs.append(Job(
                    f"chart_flow/{key}/{v}/{i}", "chart_flow",
                    lambda c0=c0, theta=theta, eps=eps, k=poly.k:
                        F.integrate_chart_flow(c0, CHART_TIME, theta, k, eps=eps),
                    _describe_chart_flow))
            for i in range(CLOSED_FORM_PER_VERTEX):
                s0 = _chart_state(rng, theta, eps, i, CLOSED_FORM_PER_VERTEX)
                t = _stratum(rng, i, CLOSED_FORM_PER_VERTEX, 0.2, 2.5) * eps
                jobs.append(Job(
                    f"closed_form/{key}/{v}/{i}", "closed_form",
                    lambda s0=s0, t=t, eps=eps, k=poly.k:
                        _closed_form(s0, t, k, eps),
                    _describe_closed_form))
    return jobs


SEEDED = {"periodic-search": True, "diagonal-search": False,
          "single-orbit": True}


def reference_seed(workload, seed):
    """Key of the stored reference a run with this seed is checked against."""
    return str(seed % POOL) if SEEDED[workload] else "fixed"


def build(workload, seed):
    """Set-up before the first timed job: tables, job list and warm-up.

    The warm-up calls every layer the workload uses once at a tiny budget,
    so first-call costs (a JIT compile, a cache fill) land here.
    """
    if workload == "periodic-search":
        _run_cli("expansivity --table sphere-triangle --theta 1.0 --samples 1"
                 " --max-bounces 2 --horizon 2 --depth 2 --angles 1".split())
        return [_cli_job(key, f"{cmd} --json --seed {seed % POOL}".split())
                for key, cmd in PERIODIC_COMMANDS]
    if workload == "diagonal-search":
        _run_cli("diagonals --table square --angles 1 --max-bounces 2".split())
        return [_cli_job(key, f"{cmd} --json".split())
                for key, cmd in DIAGONAL_COMMANDS]
    polys = orbit_tables()
    for poly in polys.values():
        a = C.BoundaryState(1, 0.5 * poly.side(1).length, 1.0)
        b = C.BoundaryState(1, a.s, 1.1)
        C.itinerary(a, poly, 2, "bidirectional")
        E.probe_pair(a, b, poly, 2)
        U.crossing_labels(poly, a, 2)
        U.holonomy(U.unfold(a, poly, 2).chain)
        theta = poly.angles[0]
        eps = vertex_neighborhood_radius(poly, 0)
        s0 = F.ChartState(0.5 * eps, 0.5 * theta, 1.0)
        F.integrate_chart_flow(F.chart_embed(s0, theta, poly.k), 1e-3, theta,
                               poly.k, eps=eps)
        _closed_form(s0, 1e-3, poly.k, eps)
    return single_orbit(seed, polys)


# ---------------------------------------------------------------------------
# comparison with the reference
# ---------------------------------------------------------------------------

def _close(a, b):
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return abs(a - b) <= FLOAT_TOL * max(1.0, abs(a), abs(b))
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_close(a[k], b[k]) for k in a))
    if isinstance(a, list):
        return (isinstance(b, list) and len(a) == len(b)
                and all(_close(x, y) for x, y in zip(a, b)))
    return a == b


def _indexed(labels, start):
    return {start + i: ch for i, ch in enumerate(labels)}


def _itinerary_matches(out, ref, span):
    lo, hi = -span["back"], span["fwd"]
    got = _indexed(out["labels"], out["start"])
    want = _indexed(ref["labels"], ref["start"])
    if any(got.get(i) != want[i] for i in range(lo, hi + 1) if i in want):
        return False
    n_fwd = len(ref["labels"]) - 1 + ref["start"]
    if hi >= n_fwd and (out["term"] != ref["term"]
                        or len(out["labels"]) - 1 + out["start"] != n_fwd):
        return False
    if -lo >= -ref["start"] and (out["term_back"] != ref["term_back"]
                                 or out["start"] != ref["start"]):
        return False
    return True


def _prefix_matches(out, ref, span):
    """Forward labels agree over the span; the rest only when the span covers it."""
    n = span["fwd"]
    if out["labels"][:n] != ref["labels"][:n]:
        return False
    if n >= len(ref["labels"]):
        return _close(out, ref)
    return True


def _probe_matches(out, ref, spans):
    fwd = min(spans["a"]["fwd"], spans["b"]["fwd"])
    back = min(spans["a"]["back"], spans["b"]["back"])
    d = ref["diverge"]
    nb, nf = ref["compared"]
    if d is not None and d >= 0:
        decided = d <= fwd
    else:
        decided = nf <= fwd and (nb if d is None else -d) <= back
    if decided and (out["outcome"], out["diverge"]) != (ref["outcome"], d):
        return False
    if PROBE_HORIZON <= min(fwd, back):
        return _close(out, ref)
    return True


_SPAN_MATCHERS = {"itinerary": _itinerary_matches,
                  "crossing_labels": _prefix_matches,
                  "unfold": _prefix_matches,
                  "probe_pair": _probe_matches}


def matches(kind, out, ref):
    """Whether a described job output agrees with its reference entry."""
    if ref is None or not isinstance(out, dict):
        return False
    if ref.get("reliable") is not None:
        return _SPAN_MATCHERS[kind](out, ref["output"], ref["reliable"])
    return _close(out, ref["output"])
