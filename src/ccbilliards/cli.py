"""Command-line front end.

Subcommands: simulate, unfold, periodic, diagonals, conjugate,
expansivity, topology.  Every command accepts a built-in table
(``--table square | hyperbolic-pentagon | sphere-triangle --theta T``) or
a polygon spec file (``--spec FILE``), prints a human-readable report to
stdout (or JSON with ``--json``), and is byte-deterministic for a fixed
seed.  Files (trajectories, itineraries, SVG) go to ``--out`` or the
directory named by the CCBILLIARDS_OUTDIR environment variable.
"""

import argparse
import functools
import json
import math
import os
import sys

from . import collision as C
from . import expansivity as E
from . import flow as F
from . import svg as SVG
from . import tables
from . import topology as T
from . import unfolding as U
from .errors import (ChartExitError, DegenerateStateError, GeometryError,
                     PolygonError, SpecFileError)
from .polygon import vertex_neighborhood_radius
from .specfile import load_polygon_spec


def _add_table_args(p):
    p.add_argument("--table", choices=["square", "hyperbolic-pentagon",
                                       "sphere-triangle"],
                   help="built-in table")
    p.add_argument("--spec", help="polygon spec file (format: see the "
                                  "ccbilliards.specfile docstring)")
    p.add_argument("--theta", type=float,
                   help="opening angle for sphere-triangle, radians")
    p.add_argument("--out", default=None,
                   help="output directory (default: $CCBILLIARDS_OUTDIR or .)")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="machine-readable output")


def _load_table(args):
    if args.spec:
        if not os.path.exists(args.spec):
            print(f"error: spec file not found: {args.spec}", file=sys.stderr)
            raise SystemExit(2)
        try:
            return load_polygon_spec(args.spec), os.path.basename(args.spec)
        except SpecFileError as e:
            print(f"error: {args.spec}: {e}", file=sys.stderr)
            raise SystemExit(2) from None
    if args.table:
        name = args.table
        if name == "sphere-triangle":
            name = f"sphere-triangle(theta={args.theta})"
        return tables.named_table(args.table, args.theta), name
    print("error: provide --table or --spec", file=sys.stderr)
    raise SystemExit(2)


def _outdir(args):
    out = args.out or os.environ.get("CCBILLIARDS_OUTDIR", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _emit(args, payload, human_lines):
    if args.as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for ln in human_lines:
            print(ln)


def cmd_simulate(args):
    poly, name = _load_table(args)
    out = _outdir(args)
    if args.side is not None:
        b = C.BoundaryState(args.side, args.s, args.psi)
        it = C.itinerary(b, poly, args.bounces)
        tr = C.trace(poly, b, args.bounces - 1)
        itin_path = os.path.join(out, "itinerary.txt")
        C.write_itinerary(it, itin_path)
        traj_path = os.path.join(out, "trajectory.txt")
        with open(traj_path, "w") as fh:
            t = 0.0
            p, v = C.embed_state(poly, b)
            fh.write(" ".join(format(x, ".17g") for x in (t, *p)) + "\n")
            for i in range(tr.n_done):
                t += float(tr.flights[i])
                q, _ = C.embed_state(poly, tr.state(i))
                fh.write(" ".join(format(x, ".17g") for x in (t, *q)) + "\n")
        payload = {"table": name, "labels": list(it.labels),
                   "termination": it.termination,
                   "files": [itin_path, traj_path]}
        _emit(args, payload, [
            f"table: {name}",
            "itinerary: " + ",".join(map(str, it.labels)),
            f"termination: {it.termination}",
            f"wrote {itin_path} and {traj_path}",
        ])
        return 0
    if args.vertex is None:
        print("error: simulate needs --side/--s/--psi or --vertex/--r/--gamma/--beta",
              file=sys.stderr)
        return 2
    theta = poly.angles[args.vertex - 1]
    eps = vertex_neighborhood_radius(poly, args.vertex - 1)
    c0 = F.chart_embed(F.ChartState(args.r, args.gamma, args.beta), theta, poly.k)
    traj = F.integrate_chart_flow(c0, args.time, theta, poly.k, eps=eps)
    traj_path = os.path.join(out, "chart_trajectory.txt")
    F.export_trajectory(traj, traj_path, theta=theta, k=poly.k,
                        coords=args.record_coords)
    payload = {"table": name, "vertex": args.vertex, "theta": theta,
               "eps": eps, "records": int(len(traj.t)),
               "exited": traj.exited, "files": [traj_path]}
    _emit(args, payload, [
        f"table: {name}",
        f"vertex {args.vertex}: angle {theta:.12g}, chart radius {eps:.12g}",
        f"records: {len(traj.t)}"
        + (f" (left the chart at rescaled time {traj.exit_time:.12g})"
           if traj.exited else ""),
        f"wrote {traj_path}",
    ])
    return 0


def cmd_unfold(args):
    poly, name = _load_table(args)
    out = _outdir(args)
    b = C.BoundaryState(args.side, args.s, args.psi)
    res = U.unfold(b, poly, args.bounces)
    svg_path = os.path.join(out, "unfold.svg")
    SVG.render_unfolding_svg(res, poly, svg_path)
    payload = {"table": name, "labels": list(res.labels),
               "vertex_hit": res.vertex_hit, "files": [svg_path]}
    _emit(args, payload, [
        f"table: {name}",
        "crossed sides: " + ",".join(map(str, res.labels)),
        f"vertex hit: {'yes' if res.vertex_hit else 'no'}",
        f"wrote {svg_path}",
    ])
    return 0


def _report_dict(rep):
    return {"labels": list(rep.labels), "length": rep.length,
            "residual": rep.residual, "holonomy": str(rep.holonomy),
            "start": {"side": rep.start.side, "s": rep.start.s,
                      "psi": rep.start.psi}}


def cmd_periodic(args):
    poly, name = _load_table(args)
    reports = U.find_periodic(poly, args.max_bounces, args.samples, args.seed)
    payload = {"table": name, "seed": args.seed,
               "budget": {"samples": args.samples,
                          "max_bounces": args.max_bounces},
               "orbits": [_report_dict(r) for r in reports]}
    lines = [f"table: {name}"]
    if not reports:
        lines.append(f"none found (budget: {args.samples} samples x "
                     f"{args.max_bounces} bounces, seed {args.seed})")
    for r in reports:
        lines.append(f"period {r.period}: labels {','.join(map(str, r.labels))}"
                     f" length {r.length:.12g} residual {r.residual:.3e}"
                     f" holonomy {r.holonomy}")
    _emit(args, payload, lines)
    return 0


def cmd_diagonals(args):
    poly, name = _load_table(args)
    diags = C.generalized_diagonals(poly, args.max_bounces, args.max_length,
                                    args.angles)
    payload = {"table": name,
               "diagonals": [{"start": d.start, "end": d.end,
                              "sequence": list(d.sequence),
                              "length": d.length} for d in diags]}
    lines = [f"table: {name}", f"diagonals found: {len(diags)}"]
    for d in diags:
        seq = ",".join(map(str, d.sequence)) or "-"
        lines.append(f"V{d.start} -> V{d.end} via sides {seq}: "
                     f"length {d.length:.12g}")
    _emit(args, payload, lines)
    return 0


def cmd_conjugate(args):
    poly, name = _load_table(args)
    pairs = C.conjugated_vertices(poly, args.max_bounces, args.max_length,
                                  args.angles)
    payload = {"table": name,
               "conjugated": [{"vertices": list(p.vertices), "m": p.m,
                               "length": p.diagonal.length,
                               "residual": p.residual} for p in pairs]}
    lines = [f"table: {name}", f"conjugated vertex pairs: {len(pairs)}"]
    for p in pairs:
        lines.append(f"V{p.vertices[0]} - V{p.vertices[1]}: length "
                     f"{p.diagonal.length:.12g} = {p.m} pi "
                     f"(residual {p.residual:.3e})")
    _emit(args, payload, lines)
    return 0


def cmd_expansivity(args):
    poly, name = _load_table(args)
    budget = E.SearchBudget(horizon=args.horizon, samples=args.samples,
                            periodic_bounces=args.max_bounces,
                            diagonal_depth=args.depth,
                            diagonal_angles=args.angles, seed=args.seed)
    verdict = E.classify(poly, budget)
    payload = {"table": name, "verdict": verdict.verdict,
               "rules": [r.value for r in verdict.rules],
               "witnesses": [w.kind for w in verdict.witnesses],
               "seed": args.seed}
    _emit(args, payload, E.format_verdict(verdict, name).splitlines())
    return 0


def cmd_topology(args):
    poly, name = _load_table(args)
    pres = T.pi1_presentation(poly)
    payload = {"table": name, "genus": pres.genus,
               "euler_characteristic": pres.euler_characteristic,
               "vertices": pres.n_vertices, "exponent": pres.exponent,
               "classification": pres.classification,
               "cyclic_order": pres.cyclic_order,
               "presentation": str(pres),
               "growth": T.growth_class(pres)}
    _emit(args, payload, [
        f"table: {name}",
        f"double surface: genus {pres.genus}, Euler characteristic "
        f"{pres.euler_characteristic}",
        f"fundamental group: {pres}",
        T.phase_space_description(pres),
        f"growth: {T.growth_class(pres)}",
    ])
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ccbilliards",
        description="Polygonal billiards on constant-curvature surfaces.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="trace a billiard or chart trajectory")
    _add_table_args(p)
    p.add_argument("--side", type=int, help="1-based starting side label")
    p.add_argument("--s", type=float, default=0.5, help="arc parameter")
    p.add_argument("--psi", type=float, default=math.pi / 2,
                   help="outgoing angle in (0, pi)")
    p.add_argument("--bounces", type=int, default=10)
    p.add_argument("--vertex", type=int,
                   help="1-based vertex for a chart-flow run")
    p.add_argument("--r", type=float, default=0.1)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=math.pi / 2)
    p.add_argument("--time", type=float, default=1.0,
                   help="rescaled integration time")
    p.add_argument("--record-coords", choices=["chart", "polar"],
                   default="chart")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("unfold", help="unfold a trajectory and emit SVG")
    _add_table_args(p)
    p.add_argument("--side", type=int, required=True)
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--psi", type=float, default=math.pi / 3)
    p.add_argument("--bounces", type=int, default=10)
    p.set_defaults(func=cmd_unfold)

    p = sub.add_parser("periodic", help="search for periodic orbits")
    _add_table_args(p)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--max-bounces", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_periodic)

    p = sub.add_parser("diagonals", help="search vertex-to-vertex trajectories")
    _add_table_args(p)
    p.add_argument("--max-bounces", type=int, default=20)
    p.add_argument("--max-length", type=float, default=4 * math.pi)
    p.add_argument("--angles", type=int, default=10000,
                   help="directions scanned per vertex")
    p.set_defaults(func=cmd_diagonals)

    p = sub.add_parser("conjugate", help="conjugated vertices (sphere)")
    _add_table_args(p)
    p.add_argument("--max-bounces", type=int, default=20)
    p.add_argument("--max-length", type=float, default=4 * math.pi)
    p.add_argument("--angles", type=int, default=10000)
    p.set_defaults(func=cmd_conjugate)

    p = sub.add_parser("expansivity", help="expansiveness verdict with witnesses")
    _add_table_args(p)
    p.add_argument("--horizon", type=int, default=1000)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--max-bounces", type=int, default=50)
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--angles", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_expansivity)

    p = sub.add_parser("topology", help="phase-space topology report")
    _add_table_args(p)
    p.set_defaults(func=cmd_topology)
    return ap


@functools.cache
def _parser():
    """The process's one parser: parse_args keeps no state between calls."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (GeometryError, PolygonError, DegenerateStateError,
            ChartExitError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
