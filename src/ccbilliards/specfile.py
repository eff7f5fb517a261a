"""Polygon spec files.

Line-oriented ``key = value`` text with ``#`` comments.  Fields:

    curvature = -1 | 0 | 1
    model     = plane | poincare-disc | unit-sphere
    outer     = x y; x y; ...        (vertex list, coordinates per model)
    hole      = x y; x y; ...        (optional, repeatable)

``plane`` and ``poincare-disc`` vertices are coordinate pairs (disc points
must have norm < 1); ``unit-sphere`` vertices are unit 3-vectors.  Parse
errors cite the offending line and field.
"""

from .errors import PolygonError, SpecFileError
from .polygon import MODELS, build_polygon


def _parse_loop(value, model, line, field):
    want = MODELS[model][1]
    loop = []
    for vi, chunk in enumerate(value.split(";")):
        parts = chunk.split()
        if not parts:
            raise SpecFileError(f"vertex {vi} is empty", line, field)
        if len(parts) != want:
            raise SpecFileError(
                f"vertex {vi}: expected {want} coordinates for model "
                f"'{model}', got {len(parts)}", line, field)
        try:
            loop.append(tuple(float(x) for x in parts))
        except ValueError:
            raise SpecFileError(f"vertex {vi}: non-numeric coordinate",
                                line, field) from None
    if len(loop) < 3:
        raise SpecFileError("a loop needs at least 3 vertices", line, field)
    return loop


def parse_polygon_spec(text):
    """Build a polygon from spec text; see the module docstring for the format."""
    fields = {}
    holes = []
    line_of = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecFileError("expected 'key = value'", ln)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in ("curvature", "model", "outer", "hole"):
            raise SpecFileError(f"unknown field (expected curvature, model, "
                                f"outer, or hole)", ln, key)
        if key == "hole":
            holes.append((ln, value))
            continue
        if key in fields:
            raise SpecFileError("duplicate field", ln, key)
        fields[key] = value
        line_of[key] = ln

    for req in ("curvature", "model", "outer"):
        if req not in fields:
            raise SpecFileError("missing required field", None, req)

    try:
        k = int(fields["curvature"])
    except ValueError:
        raise SpecFileError("curvature must be -1, 0, or 1",
                            line_of["curvature"], "curvature") from None
    if k not in (-1, 0, 1):
        raise SpecFileError("curvature must be -1, 0, or 1",
                            line_of["curvature"], "curvature")
    model = fields["model"]
    if model not in MODELS:
        raise SpecFileError(f"model must be one of {', '.join(MODELS)}",
                            line_of["model"], "model")
    outer = _parse_loop(fields["outer"], model, line_of["outer"], "outer")
    hole_loops = [_parse_loop(v, model, ln, "hole") for ln, v in holes]
    try:
        return build_polygon(k, outer, holes=hole_loops, model=model)
    except PolygonError as e:
        raise SpecFileError(str(e), None, None) from e


def load_polygon_spec(path):
    with open(path) as fh:
        return parse_polygon_spec(fh.read())

