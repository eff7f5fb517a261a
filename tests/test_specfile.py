import pytest

from ccbilliards import SpecFileError, parse_polygon_spec

def format_polygon_spec(k, model, outer, holes=()):
    """Spec text for the given loops (inverse of the parser)."""
    def loop(vs):
        return "; ".join(" ".join(format(x, ".17g") for x in v) for v in vs)

    lines = [f"curvature = {k}", f"model = {model}", "outer = " + loop(outer)]
    lines += ["hole = " + loop(h) for h in holes]
    return "\n".join(lines) + "\n"


SQUARE = """
# unit square
curvature = 0
model = plane
outer = 0 0; 1 0; 1 1; 0 1
"""

DISC = """
curvature = -1
model = poincare-disc
outer = 0.3 0; 0 0.3; -0.3 0; 0 -0.3
"""

SPHERE = """
curvature = 1
model = unit-sphere
outer = 0 0 1; 1 0 0; 0.540302305868140 0.841470984807897 0
"""

ANNULUS = """
curvature = 0
model = plane
outer = 0 0; 3 0; 3 3; 0 3
hole = 1 1; 2 1; 2 2; 1 2
"""


class TestParse:
    def test_square(self):
        poly = parse_polygon_spec(SQUARE)
        assert poly.k == 0
        assert poly.n_sides == 4
        assert sum(s.length for s in poly.sides) == pytest.approx(4.0)

    def test_poincare(self):
        poly = parse_polygon_spec(DISC)
        assert poly.k == -1
        assert poly.n_vertices == 4

    def test_sphere(self):
        poly = parse_polygon_spec(SPHERE)
        assert poly.k == 1
        assert poly.angles[0] == pytest.approx(1.0, abs=1e-9)

    def test_hole(self):
        poly = parse_polygon_spec(ANNULUS)
        assert poly.boundary_components == 2

    def test_round_trip_through_formatter(self):
        text = format_polygon_spec(0, "plane",
                                   [(0, 0), (1, 0), (1, 1), (0, 1)],
                                   holes=[])
        poly = parse_polygon_spec(text)
        assert sum(s.length for s in poly.sides) == pytest.approx(4.0)

    def test_round_trip_with_a_hole(self):
        outer = [(0, 0), (3, 0), (3, 3), (0, 3)]
        hole = [(1, 1), (1, 2), (2, 2), (2, 1)]
        text = format_polygon_spec(0, "plane", outer, holes=[hole])
        assert text.splitlines()[-1] == "hole = 1 1; 1 2; 2 2; 2 1"
        poly = parse_polygon_spec(text)
        assert poly.boundary_components == 2
        assert [tuple(v[:2]) for v in poly.vertices] == outer + hole
        assert sum(s.length for s in poly.sides) == pytest.approx(16.0)


class TestErrors:
    def test_missing_field(self):
        with pytest.raises(SpecFileError, match="curvature"):
            parse_polygon_spec("model = plane\nouter = 0 0; 1 0; 0 1\n")

    def test_bad_curvature_cites_line(self):
        with pytest.raises(SpecFileError, match="line 1"):
            parse_polygon_spec("curvature = 7\nmodel = plane\n"
                               "outer = 0 0; 1 0; 0 1\n")

    def test_bad_model(self):
        with pytest.raises(SpecFileError, match="model"):
            parse_polygon_spec("curvature = 0\nmodel = klein\n"
                               "outer = 0 0; 1 0; 0 1\n")

    def test_model_curvature_mismatch(self):
        with pytest.raises(SpecFileError):
            parse_polygon_spec("curvature = 1\nmodel = plane\n"
                               "outer = 0 0; 1 0; 0 1\n")

    def test_wrong_arity_cites_field_and_line(self):
        with pytest.raises(SpecFileError, match="line 3.*outer|outer.*line 3"):
            parse_polygon_spec("curvature = 0\nmodel = plane\n"
                               "outer = 0 0 0; 1 0; 0 1\n")

    def test_non_numeric(self):
        with pytest.raises(SpecFileError, match="non-numeric"):
            parse_polygon_spec("curvature = 0\nmodel = plane\n"
                               "outer = a b; 1 0; 0 1\n")

    def test_unknown_key(self):
        with pytest.raises(SpecFileError, match="unknown field"):
            parse_polygon_spec("curvature = 0\nmodel = plane\nsides = 3\n"
                               "outer = 0 0; 1 0; 0 1\n")

    @pytest.mark.parametrize("text, message", [
        ("curvature = 0\nmodel = plane\nouter = 0 0; ; 0 1\n",
         "line 3.*vertex 1 is empty"),
        ("curvature = 0\nmodel = plane\nouter = 0 0; 1 0\n",
         "line 3.*at least 3 vertices"),
        ("curvature = 0\nmodel plane\nouter = 0 0; 1 0; 0 1\n",
         "line 2.*expected 'key = value'"),
        ("curvature = 0\nmodel = plane\nouter = 0 0; 1 0; 0 1\n"
         "curvature = 0\n", "line 4.*duplicate field"),
        ("curvature = 0.5\nmodel = plane\nouter = 0 0; 1 0; 0 1\n",
         "line 1.*curvature must be -1, 0, or 1"),
        ("curvature = 1\nmodel = unit-sphere\nouter = 0 0; 1 0; 0 1\n",
         "line 3.*expected 3 coordinates for model 'unit-sphere', got 2"),
        ("curvature = 0\nmodel = hyperboloid\nouter = 0 0 1; 1 0 1; 0 1 1\n",
         "model must be one of plane, poincare-disc, unit-sphere")])
    def test_line_errors(self, text, message):
        with pytest.raises(SpecFileError, match=message):
            parse_polygon_spec(text)

    def test_disc_norm_bound(self):
        with pytest.raises(SpecFileError):
            parse_polygon_spec("curvature = -1\nmodel = poincare-disc\n"
                               "outer = 0 0; 2 0; 0 1\n")
