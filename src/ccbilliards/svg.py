"""SVG emission of unfolded tables and trajectories.

Fixed conventions: the table copies are drawn with a grey 1%-of-extent
stroke and no fill, the trajectory in red; coordinates are written with
six decimals and the y-axis is flipped so the figures match the usual
mathematical orientation.  Flat tables are drawn in plane coordinates,
hyperbolic ones projected to the Poincare disc, spherical ones by
orthographic projection onto z = 0 with the far hemisphere clipped.
"""

import numpy as np

from . import _kernels as K
from . import geometry as G

POLY_STROKE = "#888888"
TRAJ_STROKE = "#cc0000"
SAMPLES_PER_SIDE = 32


def _project(pts, k):
    """Model points -> drawing plane; None marks clipped points."""
    out = []
    for p in pts:
        if k == 0:
            out.append((p[0], p[1]))
        elif k == -1:
            q = G.hyperboloid_to_poincare(p)
            out.append((q[0], q[1]))
        else:
            out.append((p[0], p[1]) if p[2] >= 0.0 else None)
    return out


def _sample_segment(a, b, k):
    g = G.geodesic_through(a, b, k)
    L = K.distance(k, a, b)
    return [K.renorm_point(k, K.geodesic_point(k, g.point, g.direction,
                                               L * i / SAMPLES_PER_SIDE))
            for i in range(SAMPLES_PER_SIDE + 1)]


def _polylines(path_pts):
    """Split a projected point list at clipped gaps."""
    runs = []
    cur = []
    for p in path_pts:
        if p is None:
            if len(cur) >= 2:
                runs.append(cur)
            cur = []
        else:
            cur.append(p)
    if len(cur) >= 2:
        runs.append(cur)
    return runs


def render_unfolding_svg(result, poly, path):
    """Write the unfolded copies and trajectory of an UnfoldResult."""
    k = poly.k
    copy_paths = []
    mats = [np.eye(3)] + [m for m, _ in result.chain.copies]
    for g in mats:
        for side in poly.sides:
            a = G.apply_isometry(g, side.geodesic.point, k)
            b = G.apply_isometry(
                g, K.renorm_point(k, K.geodesic_point(
                    k, side.geodesic.point, side.geodesic.direction,
                    side.length)), k)
            copy_paths.append(_project(_sample_segment(a, b, k), k))
    traj = []
    pts = result.points
    for i in range(len(pts) - 1):
        traj.append(_project(_sample_segment(pts[i], pts[i + 1], k), k))
    write_svg(path, copy_paths, traj)


def write_svg(path, grey_paths, red_paths):
    all_xy = [p for seq in grey_paths + red_paths for p in seq if p is not None]
    if not all_xy:
        all_xy = [(0.0, 0.0), (1.0, 1.0)]
    xs = [p[0] for p in all_xy]
    ys = [p[1] for p in all_xy]
    pad = 0.05 * max(max(xs) - min(xs), max(ys) - min(ys), 1e-6)
    x0, y0 = min(xs) - pad, min(ys) - pad
    w = max(xs) - min(xs) + 2 * pad
    h = max(ys) - min(ys) + 2 * pad
    stroke = 0.004 * max(w, h)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{x0:.6f} {-y0 - h:.6f} '
        f'{w:.6f} {h:.6f}">',
        '<g transform="scale(1,-1)">',
    ]
    for paths, color in ((grey_paths, POLY_STROKE), (red_paths, TRAJ_STROKE)):
        for seq in paths:
            for run in _polylines(seq):
                coords = " ".join(f"{x:.6f},{y:.6f}" for x, y in run)
                lines.append(f'<polyline points="{coords}" fill="none" '
                             f'stroke="{color}" stroke-width="{stroke:.6f}"/>')
    lines.append("</g>")
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
