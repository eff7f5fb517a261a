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
"""

from .collision import (BoundaryState, ConjugatePair, Diagonal, Itinerary,
                        VertexHit, collision_step, conjugated_vertices,
                        generalized_diagonals, itinerary)
from .errors import (ChartExitError, DegenerateStateError, GeometryError,
                     PolygonError, SingularFieldError, SpecFileError)
from .expansivity import (ExpansivenessVerdict, PairProbe, Rule, SearchBudget,
                          classify, format_verdict,
                          periodic_orbit_neighborhood_check, probe_pair)
from .flow import (CartesianChartState, ChartState, chart_embed,
                   chart_extract, chart_forward, chart_inverse,
                   chart_velocity_field, closed_form_flow,
                   integrate_chart_flow, polar_velocity_field,
                   reparameterization_factor, singularity_jacobian)
from .polygon import (DoubleSurfacePoint, Polygon, build_polygon,
                      double_points_equal, interior_contains,
                      vertex_neighborhood_radius)
from .specfile import load_polygon_spec, parse_polygon_spec
from .tables import hyperbolic_pentagon, named_table, sphere_triangle, square
from .topology import (GroupPresentation, double_surface_invariants,
                       growth_class, pi1_presentation)
from .unfolding import (IsometryClass, PeriodicOrbitReport, UnfoldingChain,
                        UnfoldResult, crossing_labels, find_periodic,
                        holonomy, spherical_periodicity_condition, unfold,
                        unfolded_crossings, verify_periodic)

__version__ = "0.1.0"

# there is no compiled path; kept for records that report it
NUMBA_ENABLED = False

__all__ = [
    "BoundaryState", "CartesianChartState", "ChartExitError", "ChartState",
    "ConjugatePair", "DegenerateStateError", "Diagonal", "DoubleSurfacePoint",
    "ExpansivenessVerdict", "GeometryError", "GroupPresentation",
    "IsometryClass", "Itinerary", "NUMBA_ENABLED", "PairProbe",
    "PeriodicOrbitReport", "Polygon", "PolygonError", "Rule", "SearchBudget",
    "SingularFieldError", "SpecFileError", "UnfoldResult", "UnfoldingChain",
    "VertexHit", "build_polygon", "chart_embed", "chart_extract",
    "chart_forward", "chart_inverse", "chart_velocity_field", "classify",
    "closed_form_flow", "collision_step", "conjugated_vertices",
    "crossing_labels",
    "double_points_equal", "double_surface_invariants", "find_periodic",
    "format_verdict", "generalized_diagonals", "growth_class", "holonomy",
    "hyperbolic_pentagon", "integrate_chart_flow",
    "interior_contains", "itinerary", "load_polygon_spec", "named_table",
    "parse_polygon_spec", "periodic_orbit_neighborhood_check",
    "pi1_presentation", "polar_velocity_field", "probe_pair",
    "reparameterization_factor", "singularity_jacobian",
    "sphere_triangle", "spherical_periodicity_condition", "square",
    "unfold", "unfolded_crossings", "verify_periodic",
    "vertex_neighborhood_radius",
]
