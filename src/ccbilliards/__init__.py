"""Polygonal billiards on surfaces of constant curvature.

Tables are geodesic polygons on the sphere, the Euclidean plane, or the
hyperbolic plane.  The package provides the geometry kernel, the
compactified flow near vertices, the boundary collision map with
itinerary coding, trajectory unfolding with periodic-orbit search,
expansiveness evidence probes, and phase-space topology reports, plus a
CLI tying them together.

The kernels are plain Python on float tuples, with one collision loop
per curvature; nothing is compiled.  The periodic-orbit seed sweep draws
its samples as (side, s, psi) arrays and traces them together in a
batched numpy engine instead.

The value records (``BoundaryState``, ``ChartState``, ``Diagonal``,
``SearchBudget`` and the rest) are ``typing.NamedTuple`` classes: they
compare and hash by value, refuse assignment, and are tuples, so they
unpack, index, and equal a plain tuple of the same values.  ``Polygon``
compares by identity (it holds arrays and lazy caches), and
``DoubleSurfacePoint`` is a frozen dataclass that checks its sheet.

Names resolve on first use.  ``import ccbilliards`` loads no submodule:
the first read of a public name (``ccbilliards.square``) or of a
submodule (``ccbilliards.collision``) imports the module that defines it
(PEP 562 ``__getattr__``), so a process compiles only the layers it
runs.  ``_EXPORTS`` below is the one table of submodules and the names
each exports; it also gives ``__all__`` and ``dir()``.
"""

import sys

__version__ = "0.1.0"

# there is no compiled path; kept for records that report it
NUMBA_ENABLED = False

# submodule -> the public names it exports; every submodule is listed,
# so that ``ccbilliards.<submodule>`` works without an import statement
_EXPORTS = {
    "_batch": (),
    "_collision_loops": (),
    "_crossing_loops": (),
    "_kernels": (),
    "_side_search": (),
    "cli": (),
    "collision": ("BoundaryState", "ConjugatePair", "Diagonal", "Itinerary",
                  "VertexHit", "collision_step", "conjugated_vertices",
                  "generalized_diagonals", "itinerary"),
    "errors": ("ChartExitError", "DegenerateStateError", "GeometryError",
               "PolygonError", "SingularFieldError", "SpecFileError"),
    "expansivity": ("ExpansivenessVerdict", "PairProbe", "Rule",
                    "SearchBudget", "classify", "format_verdict",
                    "periodic_orbit_neighborhood_check", "probe_pair"),
    "flow": ("CartesianChartState", "ChartState", "chart_embed",
             "chart_extract", "chart_forward", "chart_inverse",
             "chart_velocity_field", "closed_form_flow",
             "integrate_chart_flow", "polar_velocity_field",
             "reparameterization_factor", "singularity_jacobian"),
    "geometry": (),
    "polygon": ("DoubleSurfacePoint", "Polygon", "build_polygon",
                "double_points_equal", "interior_contains",
                "vertex_neighborhood_radius"),
    "specfile": ("load_polygon_spec", "parse_polygon_spec"),
    "svg": (),
    "tables": ("hyperbolic_pentagon", "named_table", "sphere_triangle",
               "square"),
    "topology": ("GroupPresentation", "double_surface_invariants",
                 "growth_class", "pi1_presentation"),
    "unfolding": ("IsometryClass", "PeriodicOrbitReport", "UnfoldingChain",
                  "UnfoldResult", "crossing_labels", "find_periodic",
                  "holonomy", "spherical_periodicity_condition", "unfold",
                  "unfolded_crossings", "verify_periodic"),
}

_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = sorted([*_ORIGIN, "NUMBA_ENABLED"])


def _submodule(name):
    # the builtin __import__, unlike importlib.import_module, goes through
    # the import machinery that ``python -X importtime`` reports
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    if name in _EXPORTS:
        return _submodule(name)
    if name in _ORIGIN:
        value = getattr(_submodule(_ORIGIN[name]), name)
        globals()[name] = value   # later reads skip this function
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__,
                   *(m for m in _EXPORTS if not m.startswith("_"))})
