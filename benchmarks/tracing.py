"""Spans around the public functions of each ccbilliards layer, from outside.

``Tracer.installed()`` replaces each function named in ``LAYERS`` by a
wrapper on its module, so calls between modules (and, through module
globals, within one) pass through it; nothing under ``src/`` changes.  A
span records name, start, end, parent span, job id and a small ``info``
value taken from the call's arguments and result (status codes, counts),
or the name of the exception it raised.
Spans stay in memory until ``write`` at the end of the run.

Only the outermost of nested same-name calls is a span: while a wrapped
function runs, its module attribute points back at the original, so
``flow.closed_form_flow`` calling itself some 336 times through
``_scan_exit`` pays no wrapper cost.  Different layers nest as parent and
child, e.g. ``collision.trace`` under ``collision.itinerary``.
"""

import contextlib
import statistics
import time

from ccbilliards import _kernels as K
from ccbilliards import cli
from ccbilliards import collision as C
from ccbilliards import expansivity as E
from ccbilliards import flow as F
from ccbilliards import tables
from ccbilliards import unfolding as U
from ccbilliards.errors import ChartExitError

NAME, START, END, PARENT, JOB, INFO = range(6)


def _kernel_trace(args, result):
    # (curvature, sides, collision steps evaluated, status)
    n_done, status = result[0], result[1]
    steps = n_done + (status in (K.STEP_VERTEX, K.STEP_GRAZING, K.STEP_ESCAPED))
    return args[0], len(args[4]), steps, status


def _rk45(args, result):
    # accepted steps; the buffer holds the start state, each accepted step
    # and, on a chart exit, the exit state
    status, nrec = result[0], result[1]
    if not args[12]:
        return 0
    return nrec - 1 - (status == K.RK_EXITED)


LAYERS = (
    # module, attribute, span name, info(args, result) or None
    (K, "trace_orbit", "kernels.trace_orbit", _kernel_trace),
    (K, "trace_from_point", "kernels.trace_from_point", _kernel_trace),
    (K, "unfold_crossings", "kernels.unfold_crossings", None),
    (K, "rk45", "kernels.rk45", _rk45),
    (C, "trace", "collision.trace", lambda a, r: r.n_done),
    (C, "trace_ray", "collision.trace_ray", None),
    (C, "itinerary", "collision.itinerary", None),
    (C, "generalized_diagonals", "collision.generalized_diagonals",
     lambda a, r: len(r)),
    (C, "_bisect_transition", "collision.bisect_transition", None),
    (C, "conjugated_vertices", "collision.conjugated_vertices", None),
    (U, "find_periodic", "unfolding.find_periodic", lambda a, r: len(r)),
    (U, "_refine_candidate", "unfolding.refine_candidate",
     lambda a, r: r is not None),
    (U, "unfold", "unfolding.unfold", None),
    (U, "holonomy", "unfolding.holonomy", None),
    (U, "crossing_labels", "unfolding.crossing_labels", None),
    (U, "verify_periodic", "unfolding.verify_periodic", None),
    (E, "classify", "expansivity.classify", None),
    (E, "probe_pair", "expansivity.probe_pair",
     lambda a, r: r.outcome == "itineraries_agree"),
    (E, "periodic_orbit_neighborhood_check", "expansivity.band_check", None),
    (F, "closed_form_flow", "flow.closed_form_flow", None),
    (F, "integrate_chart_flow", "flow.integrate_chart_flow",
     lambda a, r: r.exited),
    (cli, "main", "cli.main", None),
    (tables, "named_table", "tables.named_table", None),
    (tables, "build_polygon", "polygon.build_polygon", None),
)


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent index, job id, info]
        self.job = -1
        self._stack = []

    def _wrap(self, module, attr, name, info):
        orig = getattr(module, attr)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            setattr(module, attr, orig)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                rec[START] = clock()
                result = orig(*args, **kwargs)
            except BaseException as exc:
                rec[INFO] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()
                setattr(module, attr, traced)
            if info is not None:
                rec[INFO] = info(args, result)
            return result

        return orig, traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name, info in LAYERS:
                orig, traced = self._wrap(module, attr, name, info)
                saved.append((module, attr, orig))
                setattr(module, attr, traced)
            yield self
        finally:
            for module, attr, orig in saved:
                setattr(module, attr, orig)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,job,info\n")
            for s in self.spans:
                fh.write(f"{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},"
                         f"{s[JOB]},{'' if s[INFO] is None else s[INFO]}\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

STOP_NAMES = {K.STEP_OK: "horizon", K.STEP_VERTEX: "vertex",
              K.STEP_GRAZING: "grazing", K.STEP_ESCAPED: "escaped",
              K.STEP_MAXLEN: "maxlen"}
CURVATURE_NAMES = {0: "plane", 1: "sphere", -1: "hyperbolic"}

# name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "kernels.trace_orbit.bounces": ("count", "lower"),
    "kernels.trace_orbit.us_per_bounce.plane": ("us", "lower"),
    "kernels.trace_orbit.us_per_bounce.sphere": ("us", "lower"),
    "kernels.trace_orbit.us_per_bounce.hyperbolic": ("us", "lower"),
    "kernels.trace_from_point.bounces": ("count", "lower"),
    "kernels.trace_from_point.us_per_bounce": ("us", "lower"),
    "kernels.us_per_side_test": ("us", "lower"),
    "kernels.stop.horizon": ("count", "higher"),
    "kernels.stop.vertex": ("count", "lower"),
    "kernels.stop.grazing": ("count", "lower"),
    "kernels.stop.escaped": ("count", "lower"),
    "kernels.stop.maxlen": ("count", "lower"),
    "kernels.rk45.steps": ("count", "lower"),
    "kernels.rk45.us_per_step": ("us", "lower"),
    "collision.trace.calls": ("count", "lower"),
    "collision.trace.bounces_per_s": ("1/s", "higher"),
    "collision.generalized_diagonals.rays": ("count", "lower"),
    "collision.bisect_rays": ("count", "lower"),
    "collision.rays_per_diagonal": ("rays/diagonal", "lower"),
    "collision.itinerary.ms_p50": ("ms", "lower"),
    "unfolding.find_periodic.s": ("s", "lower"),
    "unfolding.find_periodic.trace_calls": ("count", "lower"),
    "unfolding.find_periodic.orbits": ("count", "higher"),
    "unfolding.refine_candidate.calls": ("count", "lower"),
    "unfolding.refine_candidate.accepted": ("count", "higher"),
    "unfolding.crossing_labels.ms_p50": ("ms", "lower"),
    "unfolding.unfold.ms_p50": ("ms", "lower"),
    "expansivity.classify.s": ("s", "lower"),
    "expansivity.probe_pair.ms_p50": ("ms", "lower"),
    "expansivity.probe_pair.agree": ("count", "higher"),
    "flow.integrate_chart_flow.ms_p50": ("ms", "lower"),
    "flow.integrate_chart_flow.exits": ("count", "higher"),
    "flow.closed_form_flow.us_p50": ("us", "lower"),
    "flow.closed_form_flow.exits": ("count", "higher"),
    "cli.main.self_ms": ("ms", "lower"),
    "tables.named_table.ms": ("ms", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, jobs_per_pass, passes, overhead_s):
    """Per-layer metrics of a traced run.

    Counts are per pass of the job list (from the first traced pass, since
    every pass runs the same jobs); times pool every traced pass.  A layer
    the workload never calls reports 0.
    """
    first = [s[JOB] < jobs_per_pass for s in spans]
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def idx(name, first_pass=False):
        return [i for i in by_name.get(name, ()) if first[i] or not first_pass]

    def count(name):
        return len(idx(name, True))

    def info_sum(name, first_pass=True):
        return sum(spans[i][INFO] for i in idx(name, first_pass))

    def p50(name, scale):
        return _median([dur[i] * scale for i in idx(name)])

    def per_pass_total(name):
        totals = [0.0] * passes
        for i in idx(name):
            totals[spans[i][JOB] // jobs_per_pass] += dur[i]
        return _median(totals)

    def under(i, ancestor):
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == ancestor:
                return True
            p = spans[p][PARENT]
        return False

    m = {}
    kern = ("kernels.trace_orbit", "kernels.trace_from_point")
    for name in kern:
        m[f"{name}.bounces"] = sum(spans[i][INFO][2] for i in idx(name, True))
    for k, label in CURVATURE_NAMES.items():
        sel = [i for i in idx(kern[0]) if spans[i][INFO][0] == k]
        m[f"{kern[0]}.us_per_bounce.{label}"] = _ratio(
            1e6 * sum(dur[i] for i in sel), sum(spans[i][INFO][2] for i in sel))
    sel = idx(kern[1])
    m[f"{kern[1]}.us_per_bounce"] = _ratio(
        1e6 * sum(dur[i] for i in sel), sum(spans[i][INFO][2] for i in sel))
    sel = idx(kern[0]) + sel
    # computed: every collision step tests the ray against every side
    m["kernels.us_per_side_test"] = _ratio(
        1e6 * sum(dur[i] for i in sel),
        sum(spans[i][INFO][2] * spans[i][INFO][1] for i in sel))
    stops = dict.fromkeys(STOP_NAMES.values(), 0)
    for name in kern:
        for i in idx(name, True):
            stops[STOP_NAMES[spans[i][INFO][3]]] += 1
    for label, n in stops.items():
        m[f"kernels.stop.{label}"] = n
    m["kernels.rk45.steps"] = info_sum("kernels.rk45")
    m["kernels.rk45.us_per_step"] = _ratio(
        1e6 * sum(dur[i] for i in idx("kernels.rk45")),
        info_sum("kernels.rk45", False))

    m["collision.trace.calls"] = count("collision.trace")
    m["collision.trace.bounces_per_s"] = _ratio(
        info_sum("collision.trace", False),
        sum(dur[i] for i in idx("collision.trace")))
    rays = [i for i in idx("collision.trace_ray", True)
            if under(i, "collision.generalized_diagonals")]
    m["collision.generalized_diagonals.rays"] = len(rays)
    m["collision.bisect_rays"] = sum(
        spans[spans[i][PARENT]][NAME] == "collision.bisect_transition"
        for i in rays)
    # yield; with rays but no diagonal found the ratio is taken per one
    m["collision.rays_per_diagonal"] = len(rays) / max(
        1, info_sum("collision.generalized_diagonals")) if rays else 0
    m["collision.itinerary.ms_p50"] = p50("collision.itinerary", 1e3)

    m["unfolding.find_periodic.s"] = per_pass_total("unfolding.find_periodic")
    m["unfolding.find_periodic.trace_calls"] = sum(
        under(i, "unfolding.find_periodic")
        for i in idx("collision.trace", True))
    m["unfolding.find_periodic.orbits"] = info_sum("unfolding.find_periodic")
    m["unfolding.refine_candidate.calls"] = count("unfolding.refine_candidate")
    m["unfolding.refine_candidate.accepted"] = info_sum(
        "unfolding.refine_candidate")
    m["unfolding.crossing_labels.ms_p50"] = p50("unfolding.crossing_labels", 1e3)
    m["unfolding.unfold.ms_p50"] = p50("unfolding.unfold", 1e3)

    m["expansivity.classify.s"] = per_pass_total("expansivity.classify")
    m["expansivity.probe_pair.ms_p50"] = p50("expansivity.probe_pair", 1e3)
    m["expansivity.probe_pair.agree"] = info_sum("expansivity.probe_pair")

    m["flow.integrate_chart_flow.ms_p50"] = p50("flow.integrate_chart_flow", 1e3)
    m["flow.integrate_chart_flow.exits"] = info_sum("flow.integrate_chart_flow")
    m["flow.closed_form_flow.us_p50"] = p50("flow.closed_form_flow", 1e6)
    m["flow.closed_form_flow.exits"] = sum(
        spans[i][INFO] == ChartExitError.__name__
        for i in idx("flow.closed_form_flow", True))

    m["cli.main.self_ms"] = _median(
        [1e3 * (dur[i] - child[i]) for i in idx("cli.main")])
    m["tables.named_table.ms"] = p50("tables.named_table", 1e3)
    m["trace.spans"] = sum(first)
    m["trace.overhead_s"] = overhead_s
    return {name: m[name] for name in PER_LAYER}
