import io
import json
import math
import os
import sys
from contextlib import redirect_stdout

import pytest

from ccbilliards.cli import build_parser, main

SPHERE_ARGS = ["--table", "sphere-triangle", "--theta", "1.0"]


def run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


class TestSimulate:
    def test_square_boundary(self, tmp_path):
        code, out = run_cli(["simulate", "--table", "square", "--side", "1",
                             "--s", "0.5", "--psi", "1.5707963", "--bounces",
                             "10", "--out", str(tmp_path)])
        assert code == 0
        itin = (tmp_path / "itinerary.txt").read_text()
        assert itin.splitlines()[0] == "1,3,1,3,1,3,1,3,1,3"
        traj = (tmp_path / "trajectory.txt").read_text().splitlines()
        assert len(traj) == 10
        assert len(traj[0].split()) == 4

    def test_sphere_meridian_vertex_hit(self, tmp_path):
        code, out = run_cli(["simulate", *SPHERE_ARGS, "--side", "2",
                             "--s", "0.4", "--psi", str(math.pi / 2),
                             "--bounces", "5", "--out", str(tmp_path)])
        assert code == 0
        assert "vertex_hit" in out

    def test_chart_mode(self, tmp_path):
        code, out = run_cli(["simulate", "--table", "square", "--vertex", "1",
                             "--r", "0.1", "--gamma", "0.2", "--beta", "1.0",
                             "--time", "0.5", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "chart_trajectory.txt").exists()

    def test_missing_spec_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["simulate", "--spec", "/nonexistent/poly.txt", "--side", "1"])
        assert e.value.code == 2
        assert "/nonexistent/poly.txt" in capsys.readouterr().err


class TestCommands:
    def test_unfold_svg(self, tmp_path):
        code, out = run_cli(["unfold", "--table", "square", "--side", "1",
                             "--s", "0.5", "--psi", "0.7853981633974483",
                             "--bounces", "12", "--out", str(tmp_path)])
        assert code == 0
        svg = (tmp_path / "unfold.svg").read_text()
        assert svg.startswith("<?xml")
        assert "polyline" in svg

    def test_periodic_none_on_irrational_sphere(self, tmp_path):
        code, out = run_cli(["periodic", *SPHERE_ARGS, "--samples", "200",
                             "--max-bounces", "30", "--seed", "0",
                             "--out", str(tmp_path)])
        assert code == 0
        assert "none found" in out

    def test_topology_triangle(self, tmp_path):
        code, out = run_cli(["topology", "--table", "sphere-triangle",
                             "--theta", "0.7", "--out", str(tmp_path)])
        assert code == 0
        assert "3-sphere" in out

    def test_expansivity_pentagon(self, tmp_path):
        code, out = run_cli(["expansivity", "--table", "hyperbolic-pentagon",
                             "--horizon", "50", "--samples", "50",
                             "--max-bounces", "10", "--depth", "2",
                             "--angles", "64", "--seed", "0",
                             "--out", str(tmp_path)])
        assert code == 0
        assert "verdict: expansive" in out
        assert "hyperbolic-expansive" in out

    def test_conjugate_json(self, tmp_path):
        code, out = run_cli(["conjugate", *SPHERE_ARGS, "--max-bounces", "2",
                             "--max-length", "4.0", "--angles", "128",
                             "--json", "--out", str(tmp_path)])
        assert code == 0
        data = json.loads(out)
        assert any(c["m"] == 1 and c["vertices"] == [1, 1]
                   for c in data["conjugated"])

    def test_spec_file_input(self, tmp_path):
        spec = tmp_path / "poly.txt"
        spec.write_text("curvature = 0\nmodel = plane\n"
                        "outer = 0 0; 2 0; 2 1; 0 1\n")
        code, out = run_cli(["topology", "--spec", str(spec),
                             "--out", str(tmp_path)])
        assert code == 0
        assert "finite cyclic of order 2" in out

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "bad.txt"
        spec.write_text("curvature = 9\nmodel = plane\nouter = 0 0; 1 0; 0 1\n")
        with pytest.raises(SystemExit) as e:
            main(["topology", "--spec", str(spec)])
        assert e.value.code == 2


class TestDeterminism:
    def test_periodic_reports_byte_identical(self, tmp_path):
        args = ["periodic", "--table", "square", "--samples", "300",
                "--max-bounces", "8", "--seed", "7", "--out", str(tmp_path)]
        _, out1 = run_cli(args)
        _, out2 = run_cli(args)
        assert out1 == out2

    def test_expansivity_json_byte_identical(self, tmp_path):
        args = ["expansivity", *SPHERE_ARGS, "--horizon", "200",
                "--samples", "200", "--max-bounces", "20", "--depth", "2",
                "--angles", "128", "--seed", "11", "--json",
                "--out", str(tmp_path)]
        _, out1 = run_cli(args)
        _, out2 = run_cli(args)
        assert out1 == out2


def run_fresh(args):
    """One CLI run through a newly built parser."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        ns = build_parser().parse_args(args)
        code = ns.func(ns)
    return code, buf.getvalue()


class TestParserReuse:
    def test_no_state_between_parses(self, tmp_path):
        base = ["--table", "square", "--samples", "60", "--max-bounces", "6",
                "--out", str(tmp_path)]
        runs = [["periodic", *base, "--json", "--seed", "1"],
                ["periodic", *base, "--json"],
                ["topology", "--table", "square", "--out", str(tmp_path)],
                ["periodic", *base]]
        got = [run_cli(args) for args in runs]
        assert [json.loads(out)["seed"] for _, out in got[:2]] == [1, 0]
        assert not got[3][1].startswith("{")
        assert got == [run_fresh(args) for args in runs]
