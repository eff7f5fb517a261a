import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from ccbilliards import BoundaryState, collision, named_table
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

    @pytest.mark.parametrize("vertex", ["0", "5", "7", "-1"])
    def test_vertex_out_of_range_exits_1(self, tmp_path, capsys, vertex):
        # before, 7 raised IndexError and 0 read the last vertex
        code, out = run_cli(["simulate", "--table", "square", "--vertex",
                             vertex, "--out", str(tmp_path)])
        assert code == 1 and out == ""
        assert capsys.readouterr().err == (
            f"error: --vertex must be in 1..4, got {vertex}\n")
        assert not (tmp_path / "chart_trajectory.txt").exists()

    @pytest.mark.parametrize("bounces", ["0", "-3"])
    def test_bounces_below_one_exits_1(self, tmp_path, capsys, bounces):
        code, out = run_cli(["simulate", "--table", "square", "--side", "1",
                             "--bounces", bounces, "--out", str(tmp_path)])
        assert code == 1 and out == ""
        assert capsys.readouterr().err == (
            f"error: --bounces must be an integer >= 1, got {bounces}\n")

    @pytest.mark.parametrize("r", ["5"])
    def test_chart_start_outside_the_chart(self, tmp_path, r):
        # the start is the one record, and the run left the chart at once
        code, out = run_cli(["simulate", "--table", "square", "--vertex", "1",
                             "--r", r, "--json", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["exited"] and payload["records"] == 1

    @pytest.mark.parametrize("r", ["-1", "-0.05"])
    def test_negative_chart_radius_exits_1(self, tmp_path, capsys, r):
        # before, the run started from the point mirrored through the
        # vertex: -1 left the chart at once, -0.05 wrote 49 records
        code, out = run_cli(["simulate", "--table", "square", "--vertex", "1",
                             "--r", r, "--out", str(tmp_path)])
        assert code == 1 and out == ""
        assert capsys.readouterr().err == (
            f"error: radial coordinate must be >= 0, got {float(r)}\n")
        assert not (tmp_path / "chart_trajectory.txt").exists()

    def test_sphere_chart_radius_from_half_pi_exits_1(self, tmp_path, capsys):
        # before, r = 2 started from the state folded back to r = pi - 2
        code, out = run_cli(["simulate", "--table", "sphere-triangle",
                             "--theta", "1", "--vertex", "1", "--r", "2",
                             "--out", str(tmp_path)])
        assert code == 1 and out == ""
        assert capsys.readouterr().err == (
            "error: spherical chart radius must be < pi/2, got 2.0\n")
        assert not (tmp_path / "chart_trajectory.txt").exists()

    def test_hyperbolic_chart_radius_past_float64_exits_1(self, tmp_path,
                                                          capsys):
        # before, sinh(800) raised OverflowError through the CLI
        code, out = run_cli(["simulate", "--table", "hyperbolic-pentagon",
                             "--vertex", "1", "--r", "800",
                             "--out", str(tmp_path)])
        assert code == 1 and out == ""
        assert capsys.readouterr().err == (
            "error: chart_embed: the input leaves the float64 range of sinh "
            "and cosh\n")
        assert not (tmp_path / "chart_trajectory.txt").exists()

    @pytest.mark.parametrize("table, state", [
        (["--table", "square"], ("1", "0", "1.1")),
        (["--table", "hyperbolic-pentagon"], ("2", "0.3", "0.7")),
        (SPHERE_ARGS, ("2", "0.4", repr(math.pi / 2))),
        (SPHERE_ARGS, ("3", "0.5", "2.2"))])
    def test_itinerary_is_the_library_itinerary(self, tmp_path, table,
                                                state):
        # the command builds its itinerary from its one trace; it must be
        # the library's itinerary, also from a vertex (s = 0) and when the
        # orbit ends on a vertex (the meridian start on the sphere)
        side, s, psi = state
        code, out = run_cli(["simulate", *table, "--side", side, "--s", s,
                             "--psi", psi, "--bounces", "12", "--json",
                             "--out", str(tmp_path / "cli")])
        assert code == 0
        poly = named_table(table[1], 1.0)
        it = collision.itinerary(BoundaryState(int(side), float(s),
                                               float(psi)), poly, 12)
        collision.write_itinerary(it, tmp_path / "lib.txt")
        assert (tmp_path / "cli" / "itinerary.txt").read_text() == \
            (tmp_path / "lib.txt").read_text()
        payload = json.loads(out)
        assert (tuple(payload["labels"]), payload["termination"]) == \
            (it.labels, it.termination)

    def test_polar_records(self, tmp_path):
        # --record-coords polar writes (t, r, gamma, beta): the start row
        # is the state given, at t = 0
        code, _ = run_cli(["simulate", "--table", "square", "--vertex", "1",
                           "--r", "0.1", "--gamma", "0.2", "--beta", "1.0",
                           "--time", "0.5", "--record-coords", "polar",
                           "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "chart_trajectory.txt").read_text().splitlines()
        t, r, gamma, beta = map(float, rows[0].split())
        assert t == 0.0
        assert (r, gamma, beta) == pytest.approx((0.1, 0.2, 1.0), abs=1e-15)
        assert len(rows) > 1

    def test_no_start_exits_2(self, tmp_path, capsys):
        code, out = run_cli(["simulate", "--table", "square", "--out",
                             str(tmp_path)])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            "error: simulate needs --side/--s/--psi or "
            "--vertex/--r/--gamma/--beta\n")

    def test_missing_spec_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["simulate", "--spec", "/nonexistent/poly.txt", "--side", "1"])
        assert e.value.code == 2
        assert "/nonexistent/poly.txt" in capsys.readouterr().err

    def test_out_is_a_regular_file_exits_2(self, tmp_path, capsys):
        # an --out naming a regular file is an error line, not a traceback
        out = tmp_path / "taken"
        out.write_text("keep me\n")
        with pytest.raises(SystemExit) as e:
            main(["simulate", "--table", "square", "--side", "1",
                  "--out", str(out)])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert out.read_text() == "keep me\n"


class TestCommands:
    def test_unfold_svg(self, tmp_path):
        code, out = run_cli(["unfold", "--table", "square", "--side", "1",
                             "--s", "0.5", "--psi", "0.7853981633974483",
                             "--bounces", "12", "--out", str(tmp_path)])
        assert code == 0
        svg = (tmp_path / "unfold.svg").read_text()
        assert svg.startswith("<?xml")
        assert "polyline" in svg

    @pytest.mark.parametrize("table", [
        ["--table", "hyperbolic-pentagon"], SPHERE_ARGS],
        ids=["poincare-disc", "sphere"])
    def test_unfold_svg_curved(self, tmp_path, table):
        # the Poincare-disc and upper-hemisphere projections of svg.py
        code, out = run_cli(["unfold", *table, "--side", "1", "--s", "0.3",
                             "--psi", "1.0", "--bounces", "8",
                             "--out", str(tmp_path)])
        assert code == 0
        assert "crossed sides: " in out
        svg = (tmp_path / "unfold.svg").read_text()
        assert svg.startswith("<?xml")
        assert "polyline" in svg

    @pytest.mark.parametrize("bounces", [20, 100])
    def test_unfold_svg_of_far_hyperbolic_copies(self, tmp_path, capsys,
                                                 bounces):
        # copies 19 bounces out have hyperboloid coordinates near e^18,
        # where a geodesic sample's quadric norm cancelled below 0 and the
        # run exited 1 with "math domain error"
        code, out = run_cli(["unfold", "--table", "hyperbolic-pentagon",
                             "--side", "1", "--bounces", str(bounces),
                             "--out", str(tmp_path)])
        assert code == 0 and capsys.readouterr().err == ""
        svg = (tmp_path / "unfold.svg").read_text()
        xy = re.findall(r"(-?\d+\.\d+),(-?\d+\.\d+)", svg)
        assert len(xy) == (bounces + 1) * 5 * 33 + bounces * 33
        assert max(float(x) ** 2 + float(y) ** 2 for x, y in xy) < 1.0 + 1e-5

    def test_unfold_past_the_float64_range_exits_1(self, tmp_path, capsys):
        code, out = run_cli(["unfold", "--table", "hyperbolic-pentagon",
                             "--side", "1", "--bounces", "400",
                             "--out", str(tmp_path)])
        assert code == 1 and out == ""
        assert capsys.readouterr().err == (
            "error: unfold: the unfolded copy at bounce 377 leaves the "
            "float64 range\n")
        assert not (tmp_path / "unfold.svg").exists()

    def test_diagonals_text_and_json(self, tmp_path):
        args = ["diagonals", *SPHERE_ARGS, "--angles", "24",
                "--out", str(tmp_path)]
        code, out = run_cli(args)
        assert code == 0
        assert out.splitlines() == [
            "table: sphere-triangle(theta=1.0)", "diagonals found: 1",
            "V1 -> V1 via sides 2: length 3.14159265359"]
        code, out = run_cli(args + ["--json"])
        assert code == 0
        assert json.loads(out) == {
            "table": "sphere-triangle(theta=1.0)",
            "diagonals": [{"start": 1, "end": 1, "sequence": [2],
                           "length": math.pi}]}
        # the square has diagonals with no side between their vertices and
        # with start != end
        code, out = run_cli(["diagonals", "--table", "square", "--angles",
                             "8", "--max-bounces", "2", "--out", str(tmp_path)])
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "diagonals found: 8"
        assert "V1 -> V3 via sides -: length 1.41421356237" in lines
        assert "V2 -> V1 via sides 3: length 2.23606797731" in lines

    def test_expansivity_square_witness_text(self, tmp_path):
        code, out = run_cli(["expansivity", "--table", "square",
                             "--samples", "200", "--max-bounces", "20",
                             "--out", str(tmp_path)])
        assert code == 0
        lines = out.splitlines()
        assert "verdict: not_expansive" in lines
        i = lines.index("  - kind: periodic_orbit (rule flat-periodic-orbit,"
                        " verified yes)")
        assert lines[i + 1:i + 3] == ["    labels: 3,1", "    length: 2"]
        assert lines[i + 3].startswith("    residual: ")
        assert lines[i + 4] == "    holonomy: translation by 2"

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

    def test_no_table_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["topology"])
        assert e.value.code == 2
        assert capsys.readouterr().err == "error: provide --table or --spec\n"

    def test_spec_is_a_directory_exits_2(self, tmp_path, capsys):
        # a spec that cannot be read is an error line, not a traceback
        with pytest.raises(SystemExit) as e:
            main(["topology", "--spec", str(tmp_path)])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path}: ")

    def test_spec_not_text_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "poly.bin"
        spec.write_bytes(b"curvature = 0\n\xff\xfe\n")
        with pytest.raises(SystemExit) as e:
            main(["topology", "--spec", str(spec)])
        assert e.value.code == 2
        assert capsys.readouterr().err.startswith(f"error: {spec}: ")

    @pytest.mark.parametrize("command", ["periodic", "expansivity"])
    def test_negative_seed_exits_1(self, command, capsys):
        # numpy's "expected non-negative integer" was all the run printed
        code, out = run_cli([command, "--table", "square", "--samples", "10",
                             "--seed", "-1"])
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == (
            "error: seed must be an integer >= 0, got -1\n")


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


def test_closed_stdout_exits_quietly():
    # stdout is a pipe whose reader has already gone: the first write or
    # flush raises BrokenPipeError, which must end the run with exit code
    # 1 and nothing on stderr, not a traceback
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ccbilliards.cli", "diagonals", "--table",
             "square", "--angles", "24"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, check=False)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 1
