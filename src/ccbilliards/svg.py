"""SVG emission of unfolded tables and trajectories.

Fixed conventions: the table copies are drawn with a grey 1%-of-extent
stroke and no fill, the trajectory in red; coordinates are written with
six decimals and the y-axis is flipped so the figures match the usual
mathematical orientation.  Flat tables are drawn in plane coordinates,
hyperbolic ones projected to the Poincare disc, spherical ones by
orthographic projection onto z = 0 with the far hemisphere clipped.

A flat or spherical segment is sampled along its geodesic.  A hyperbolic
one is sampled along the chord between its ends' Klein-model points
(geodesics are straight there) and mapped to the Poincare disc.  A Klein
point is a ratio of hyperboloid coordinates, so nothing grows with a
copy's distance from the table: about 18 bounces out the coordinates
near e^18 leave a geodesic sample's quadric norm to cancellation, which
can round it below 0.
"""

import math

import numpy as np

from . import _kernels as K
from . import geometry as G

POLY_STROKE = "#888888"
TRAJ_STROKE = "#cc0000"
SAMPLES_PER_SIDE = 32


def _drawn_segment(a, b, k):
    """The segment between model points a and b in drawing-plane
    coordinates, at SAMPLES_PER_SIDE + 1 points; None marks clipped
    points."""
    if k == -1:
        return _klein_chord(a, b)
    g = G.geodesic_through(a, b, k)
    L = K.distance(k, a, b)
    pts = [K.renorm_point(k, K.geodesic_point(k, g.point, g.direction,
                                              L * i / SAMPLES_PER_SIDE))
           for i in range(SAMPLES_PER_SIDE + 1)]
    if k == 0:
        return [(p[0], p[1]) for p in pts]
    return [(p[0], p[1]) if p[2] >= 0.0 else None for p in pts]


def _klein_chord(a, b):
    """Poincare-disc points of the hyperbolic segment a-b, evenly spaced
    on the chord between the Klein-model points (x / z, y / z) of its
    ends; a and b need not be normalized to the hyperboloid."""
    ax, ay = float(a[0]) / float(a[2]), float(a[1]) / float(a[2])
    bx, by = float(b[0]) / float(b[2]), float(b[1]) / float(b[2])
    out = []
    for i in range(SAMPLES_PER_SIDE + 1):
        t = i / SAMPLES_PER_SIDE
        x = ax + t * (bx - ax)
        y = ay + t * (by - ay)
        # Klein to Poincare; a far point rounds onto the unit circle
        d = 1.0 + math.sqrt(max(0.0, 1.0 - (x * x + y * y)))
        out.append((x / d, y / d))
    return out


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
    ends = [(side.geodesic.point,
             np.array(K.renorm_point(k, K.geodesic_point(
                 k, side.geodesic.point, side.geodesic.direction,
                 side.length)))) for side in poly.sides]
    for g in mats:
        for a, b in ends:
            if k == -1:
                # the chord reads ratios: no renormalization, whose
                # squared norm would overflow on far copies
                copy_paths.append(_klein_chord(g @ a, g @ b))
            else:
                copy_paths.append(_drawn_segment(
                    G.apply_isometry(g, a, k), G.apply_isometry(g, b, k), k))
    traj = []
    pts = result.points
    for i in range(len(pts) - 1):
        traj.append(_drawn_segment(pts[i], pts[i + 1], k))
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
