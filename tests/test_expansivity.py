import math

import numpy as np
import pytest

from ccbilliards import _batch as B
from ccbilliards import _kernels as K
from ccbilliards import collision as C
from ccbilliards import expansivity as E
from ccbilliards import unfolding as U
from ccbilliards import (BoundaryState, DegenerateStateError, GeometryError,
                         Rule, SearchBudget, classify, find_periodic,
                         format_verdict, hyperbolic_pentagon,
                         periodic_orbit_neighborhood_check, probe_pair,
                         sphere_triangle, square, verify_periodic)
import kernel_oracle as O
from test_polygon import PROJECTED

SMALL = SearchBudget(horizon=300, samples=400, periodic_bounces=20,
                     diagonal_depth=3, diagonal_angles=256, pair_probes=12,
                     seed=9)


class TestProbePair:
    def test_parallel_band_agrees(self, sq):
        pr = probe_pair(BoundaryState(1, 0.4, math.pi / 2),
                        BoundaryState(1, 0.6, math.pi / 2), sq, 50)
        assert pr.outcome == "itineraries_agree"
        assert pr.diverge_index is None
        assert not pr.truncated

    def test_sphere_nearby_directions_agree(self, tri1):
        s = 0.37 * tri1.side(3).length
        pr = probe_pair(BoundaryState(3, s, 0.9),
                        BoundaryState(3, s, 0.9 + 1e-5), tri1, 1000)
        assert pr.outcome == "itineraries_agree"
        assert pr.compared == (1000, 1000)

    def test_hyperbolic_pair_diverges(self, pentagon):
        pr = probe_pair(BoundaryState(1, 0.3, 1.0),
                        BoundaryState(2, 0.5, 1.2), pentagon, 100)
        assert pr.outcome == "itineraries_diverge"
        assert pr.diverge_index is not None

    def test_symmetric_in_arguments(self, pentagon):
        a = BoundaryState(1, 0.31, 1.17)
        b = BoundaryState(4, 0.52, 0.83)
        p1 = probe_pair(a, b, pentagon, 60)
        p2 = probe_pair(b, a, pentagon, 60)
        assert p1.outcome == p2.outcome
        assert p1.diverge_index == p2.diverge_index

    def test_same_orbit_rejected(self, sq):
        a = BoundaryState(1, 0.5, math.pi / 2)
        b = BoundaryState(3, 0.5, math.pi / 2)  # = f(a)
        with pytest.raises(GeometryError):
            probe_pair(a, b, sq, 10)

    def test_identical_states_rejected(self, sq):
        a = BoundaryState(1, 0.25, 1.0)
        with pytest.raises(GeometryError):
            probe_pair(a, a, sq, 10)

    def test_b_is_checked_before_a(self, sq):
        # a grazes and b lies off its side: b's error comes first
        a = BoundaryState(1, 0.5, 0.0)
        with pytest.raises(GeometryError, match="outside"):
            probe_pair(a, BoundaryState(1, 5.0, 1.0), sq, 10)
        with pytest.raises(DegenerateStateError, match="grazing"):
            probe_pair(a, BoundaryState(1, 0.5, 1.0), sq, 10)

    def test_vertex_at_the_horizon_is_not_a_truncation(self, sq):
        # a bounces once off the right wall, then runs into the corner
        # (0, 1); a.reversed() likewise into (1, 1).  a's directions are
        # traced past the horizon, so the corner lies inside those traces
        # at horizon 1, but the comparison never reaches it
        a = BoundaryState(1, 0.5, math.atan2(1.0, 1.5))
        assert C.trace(sq, a, 5).status == C.K.STEP_VERTEX
        assert C.trace(sq, a, 5).n_done == 1
        b = BoundaryState(1, 0.5, a.psi + 1e-3)
        assert not probe_pair(a, b, sq, 1).truncated
        assert not probe_pair(b, a, sq, 1).truncated
        assert probe_pair(a, b, sq, 2).truncated
        assert probe_pair(a, b, sq, 2).compared == (1, 1)

    def test_escape_raises(self, monkeypatch, sq):
        # no built-in table lets a ray escape: a trace of b that escaped
        # after one bounce must raise, not shorten the comparison
        a = BoundaryState(1, 0.4, 1.0)
        b = BoundaryState(1, 0.4, 1.1)
        trace = C.trace

        def escaping(poly, state, n):
            tr = trace(poly, state, n)
            if state != b:
                return tr
            return C.TraceResult(1, K.STEP_ESCAPED, 0, tr.labels[:1],
                                 tr.svals[:1], tr.psis[:1], tr.flights[:1],
                                 tr.flights[0])

        monkeypatch.setattr(C, "trace", escaping)
        with pytest.raises(GeometryError, match="no boundary intersection"):
            probe_pair(a, b, sq, 10)

    @pytest.mark.parametrize("horizon", [1, 19, 20, 21, 60])
    def test_matches_four_separate_traces(self, sq, pentagon, tri1, horizon):
        # the comparison probe_pair made when each direction had its own
        # trace to the horizon
        rng = np.random.default_rng(horizon)
        for poly in (sq, pentagon, tri1):
            for _ in range(6):
                side = int(rng.integers(1, poly.n_sides + 1))
                a = BoundaryState(side, rng.uniform(0.05, 0.95)
                                  * poly.side(side).length,
                                  rng.uniform(0.1, math.pi - 0.1))
                b = BoundaryState(side, a.s, a.psi + 10.0 ** -rng.integers(
                    3, 6))
                seqs = []
                truncated = False
                for x in (a, b, a.reversed(), b.reversed()):
                    tr = C.trace(poly, x, horizon)
                    seqs.append([x.side, *tr.labels])
                    truncated |= tr.status in (C.K.STEP_VERTEX,
                                               C.K.STEP_GRAZING)
                nf = min(len(seqs[0]), len(seqs[1]))
                nb = min(len(seqs[2]), len(seqs[3]))
                diverge = next((i for i in range(nf)
                                if seqs[0][i] != seqs[1][i]), None)
                if diverge is None:
                    diverge = next((-i for i in range(1, nb)
                                    if seqs[2][i] != seqs[3][i]), None)
                pr = probe_pair(a, b, poly, horizon)
                assert (pr.diverge_index, pr.truncated, pr.compared) == (
                    diverge, truncated, (nb - 1, nf - 1))


class TestClassify:
    def test_hyperbolic_expansive(self, pentagon):
        v = classify(pentagon, SMALL)
        assert v.verdict == "expansive"
        assert v.rules == (Rule.HYPERBOLIC_EXPANSIVE,)
        assert v.witnesses == ()

    def test_hyperbolic_default_budget(self, pentagon):
        v = classify(pentagon)
        assert (v.verdict, v.rules) == ("expansive",
                                        (Rule.HYPERBOLIC_EXPANSIVE,))
        assert v.budget == SearchBudget()

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed_rejected(self, sq, pentagon, seed):
        # the hyperbolic verdict uses no seed, but rejects a bad one too
        budget = SearchBudget(samples=10, seed=seed)
        for poly in (sq, pentagon):
            with pytest.raises(ValueError, match="seed must be an integer"):
                classify(poly, budget)

    @pytest.mark.parametrize("field,value", [
        ("horizon", 2.5), ("horizon", 0), ("horizon", True),
        ("horizon", math.nan), ("samples", 0), ("periodic_bounces", 0),
        ("diagonal_depth", -1), ("diagonal_angles", 0),
        ("diagonal_angles", 2.0), ("pair_probes", -3),
        ("diagonal_length", 0.0), ("diagonal_length", -1.0),
        ("diagonal_length", math.nan), ("diagonal_length", math.inf),
        ("diagonal_length", True), ("diagonal_length", "4")])
    def test_bad_budget_rejected_before_search(self, monkeypatch, sq, tri1,
                                               pentagon, field, value):
        # a bad horizon used to fail on the sphere only after the periodic
        # and pair searches, and to give a verdict on the square
        def no_search(*args):
            raise AssertionError("a search ran")

        monkeypatch.setattr(U, "find_periodic", no_search)
        monkeypatch.setattr(U, "_periodic_sweep", no_search)
        monkeypatch.setattr(C, "generalized_diagonals", no_search)
        monkeypatch.setattr(E, "probe_pair", no_search)
        budget = SMALL._replace(**{field: value})
        for poly in (sq, tri1, pentagon):
            with pytest.raises(ValueError, match=field):
                classify(poly, budget)

    def test_least_budget_accepted(self, sq, tri1):
        budget = SearchBudget(horizon=1, samples=1, periodic_bounces=1,
                              diagonal_depth=0, diagonal_length=3,
                              diagonal_angles=np.int64(1), pair_probes=0,
                              seed=np.int64(0))
        for poly in (sq, tri1):
            assert classify(poly, budget).budget is budget

    def test_square_not_expansive_with_witness(self, sq):
        v = classify(sq, SMALL)
        assert v.verdict == "not_expansive"
        assert v.rules == (Rule.FLAT_PERIODIC_ORBIT,)
        assert len(v.witnesses) == 1
        rep = v.witnesses[0].data
        assert verify_periodic(rep, sq) < 1e-8

    def test_sphere_example_witnesses(self, tri1):
        v = classify(tri1, SMALL)
        assert v.verdict == "not_expansive"
        kinds = {w.kind for w in v.witnesses}
        assert "same_itinerary_pair" in kinds
        assert "conjugated_vertices" in kinds
        assert "periodic_orbit" not in kinds
        assert Rule.SPHERE_SAME_ITINERARY in v.rules
        assert Rule.SPHERE_CONJUGATE_VERTICES in v.rules

    def test_rational_sphere_periodic_witness(self):
        tri = sphere_triangle(math.pi / 6)
        v = classify(tri, SMALL)
        assert v.verdict == "not_expansive"
        assert Rule.SPHERE_PERIODIC_ORBIT in v.rules

    def test_never_expansive_off_hyperbolic(self, sq, tri1):
        for poly in (sq, tri1):
            assert classify(poly, SMALL).verdict != "expansive"

    @pytest.mark.parametrize("pair_probes,sides", [
        (0, []), (1, [1]), (2, [1, 2]), (3, [1, 2, 3]), (5, [1, 2, 3]),
        (7, [1, 1, 2, 2, 3, 3]), (48, [1] * 16 + [2] * 16 + [3] * 16)])
    def test_pair_probes_within_budget(self, monkeypatch, tri1, pair_probes,
                                       sides):
        # below n_sides, one probe on each of the first pair_probes sides;
        # from there on pair_probes // n_sides on each side
        probed = []

        def diverging(a, b, poly, horizon):
            probed.append(a.side)
            return E.PairProbe(a, b, horizon, "itineraries_diverge", 1,
                               False, (0, 1))

        monkeypatch.setattr(E, "probe_pair", diverging)
        budget = SMALL._replace(pair_probes=pair_probes)
        assert E._sphere_pair_witness(tri1, budget) is None
        assert probed == sides

    def test_no_pair_witness_without_pair_probes(self):
        # pair_probes=0 used to probe one pair per side, and found a pair
        tri = sphere_triangle(math.pi / 4)
        v = classify(tri, SMALL._replace(pair_probes=0))
        assert "same_itinerary_pair" not in {w.kind for w in v.witnesses}

    def test_report_text(self, tri1):
        v = classify(tri1, SMALL)
        text = format_verdict(v, "sphere-triangle(theta=1.0)")
        assert "verdict: not_expansive" in text
        assert "sphere-same-itinerary" in text
        assert "1 pi" in text


def first_verified(poly, max_bounces, samples, seed):
    """The first report of the full ``find_periodic`` that
    ``verify_periodic`` confirms, or None."""
    return next((r for r in find_periodic(poly, max_bounces, samples, seed)
                 if verify_periodic(r, poly) < U.RETURN_VERIFY_TOL), None)


class TestEarlyStop:
    @pytest.mark.parametrize("theta", [None, math.pi / 4, 1.0],
                             ids=["square", "triangle-pi4", "triangle-1"])
    def test_witness_is_first_verified_report(self, sq, theta):
        poly = sq if theta is None else sphere_triangle(theta)
        for seed in range(16):
            budget = SearchBudget(samples=200, periodic_bounces=20,
                                  seed=seed)
            assert (U.first_verified_orbit(poly, 20, 200, seed)
                    == first_verified(poly, 20, 200, seed)), seed

    def test_witness_is_first_verified_report_over_blocks(self, sq):
        # 5,044 states: three sweep blocks advance together
        rep = U.first_verified_orbit(sq, 30, 5000, 0)
        assert rep is not None
        assert rep == first_verified(sq, 30, 5000, 0)

    def test_classify_keeps_first_verified_report(self, sq):
        v = classify(sq, SMALL)
        assert v.witnesses[0].data == first_verified(
            sq, SMALL.periodic_bounces, SMALL.samples, SMALL.seed)

    @pytest.mark.parametrize("theta,period", [(None, 2), (math.pi / 4, 5)],
                             ids=["square", "triangle-pi4"])
    def test_sweep_stops_at_witness_period(self, monkeypatch, sq, theta,
                                           period):
        # at the CLI's sweep size (five blocks, 50 bounces) the engine
        # runs exactly `period` bounces of every block and is closed there
        poly = sq if theta is None else sphere_triangle(theta)
        budget = SearchBudget()
        bounces, blocks = [], []
        trace_columns, advance = B.trace_columns, B._advance

        def counted(*args):
            bounces.append(0)
            for column in trace_columns(*args):
                bounces[-1] += 1
                yield column

        def advanced(*args):
            blocks.append(1)
            return advance(*args)

        monkeypatch.setattr(B, "trace_columns", counted)
        monkeypatch.setattr(B, "_advance", advanced)
        rep = U.first_verified_orbit(poly, budget.periodic_bounces,
                                     budget.samples, budget.seed)
        assert rep.period == period
        assert bounces == [period]
        assert len(blocks) == 5 * period


class TestNeighborhoodCheck:
    def test_square_band(self, sq):
        rep = next(r for r in find_periodic(sq, 8, 300, seed=1)
                   if set(r.labels) == {1, 3})
        chk = periodic_orbit_neighborhood_check(rep, sq)
        assert chk
        assert chk.failures == ()

    def test_displacement_off_side_flagged(self, sq):
        rep = next(r for r in find_periodic(sq, 8, 300, seed=1)
                   if set(r.labels) == {1, 3})
        big = tuple(d * 1000 for d in (-1e-3, -5e-4, 2.5e-4, 5e-4, 1e-3))
        chk = periodic_orbit_neighborhood_check(rep, sq, displacements=big)
        assert not chk.ok
        assert chk.failures

    def test_non_flat_rejected(self, tri1):
        rep = find_periodic(sphere_triangle(math.pi / 6), 20, 120, seed=3)[0]
        with pytest.raises(GeometryError):
            periodic_orbit_neighborhood_check(rep, tri1)

    DISPLACEMENTS = (-1e-3, -5e-4, 2.5e-4, 5e-4, 1e-3)

    @staticmethod
    def report(s, psi, labels):
        # a hand-built report from side 1 of the square; the check reads
        # only its start and labels
        return U.PeriodicOrbitReport(BoundaryState(1, s, psi), labels,
                                     2.0, 0.0, None)

    def test_changed_bounce_sequence_flagged(self, sq):
        # the perpendicular orbit from side 1 bounces off 3 and 1 at every
        # displacement, never off the reported 3 and 2
        chk = periodic_orbit_neighborhood_check(
            self.report(0.5, math.pi / 2, (3, 2)), sq)
        assert not chk
        assert chk.failures == tuple((d, "bounce sequence changed")
                                     for d in self.DISPLACEMENTS)

    def test_return_residual_flagged(self, sq):
        # delta off perpendicular, the orbit climbs to side 3 and back: it
        # returns to side 1 with psi unchanged and s moved by 2 tan(delta)
        delta = 1e-4
        chk = periodic_orbit_neighborhood_check(
            self.report(0.5, math.pi / 2 + delta, (3, 1)), sq)
        assert not chk
        assert [d for d, _ in chk.failures] == list(self.DISPLACEMENTS)
        for _, why in chk.failures:
            assert why.startswith("return residual ")
            assert float(why.split()[-1]) == pytest.approx(
                2 * math.tan(delta), rel=1e-3)

    def test_vertex_hit_flagged(self, sq):
        # displaced by 5e-4 the start is (0.5, 0), aimed at the corner (1, 1)
        chk = periodic_orbit_neighborhood_check(
            self.report(0.5 - 5e-4, math.atan2(1.0, 0.5), (3, 1)), sq,
            displacements=(5e-4,))
        assert not chk
        assert chk.failures == ((5e-4, "displaced orbit hits a vertex"),)


TABLES = {"square": square,
          "triangle-pi4": lambda: sphere_triangle(math.pi / 4),
          "triangle-1": lambda: sphere_triangle(1.0),
          "pentagon": hyperbolic_pentagon,
          "L-shape": PROJECTED["L-shape"],
          "holed-square": PROJECTED["holed-square"]}


def _long_orbit(poly):
    """A state whose orbit runs SAME_ORBIT_WINDOW bounces both ways, and
    the oracle's list of it and its iterates: a, f^1..f^20, f^-1..f^-20."""
    a = BoundaryState(2, 0.37 * poly.side(2).length, 1.1)
    orbit = O.orbit_states(poly, a, E.SAME_ORBIT_WINDOW)
    assert len(orbit) == 2 * E.SAME_ORBIT_WINDOW + 1
    return a, orbit


def _traces(poly, a):
    return (C.trace(poly, a, E.SAME_ORBIT_WINDOW),
            C.trace(poly, a.reversed(), E.SAME_ORBIT_WINDOW))


def _shifted(x, ds, dpsi):
    return BoundaryState(x.side, x.s + ds, x.psi + dpsi)


@pytest.mark.parametrize("i", [1, 2, 20])
@pytest.mark.parametrize("table", ["sq", "tri1", "pentagon"])
def test_probe_pair_rejects_past_and_future_iterates(request, table, i):
    # b = f^i(a) and b = f^-i(a) are a's orbit, in either argument order
    poly = request.getfixturevalue(table)
    a, orbit = _long_orbit(poly)
    for b in (orbit[i], orbit[E.SAME_ORBIT_WINDOW + i]):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(GeometryError, match="distinct orbits"):
                probe_pair(x, y, poly, 30)


@pytest.mark.parametrize("table", ["sq", "tri1", "pentagon"])
def test_same_orbit_on_shifted_states(request, table):
    # a and its iterates, past and future, moved by 0.3 SAME_ORBIT_TOL in
    # s or psi are on a's orbit; moved by 3 SAME_ORBIT_TOL, or reversed,
    # they are not
    poly = request.getfixturevalue(table)
    a, orbit = _long_orbit(poly)
    traces = _traces(poly, a)
    tol = E.SAME_ORBIT_TOL
    for x in orbit:
        for f, on in ((0.3, True), (-0.3, True), (3.0, False), (-3.0, False)):
            assert E._same_orbit(a, traces, _shifted(x, f * tol, 0.0)) is on
            assert E._same_orbit(a, traces, _shifted(x, 0.0, f * tol)) is on
        assert E._same_orbit(a, traces, x.reversed()) is False


@pytest.mark.parametrize("table", list(TABLES))
def test_same_orbit_matches_oracle(table):
    # the verdicts of the oracle's bounce-by-bounce iteration on seeded
    # starts: on each iterate, on states 0.3 and 3 SAME_ORBIT_TOL off it,
    # on its reversal, and on random states
    poly = TABLES[table]()
    rng = np.random.default_rng(11)
    tol = E.SAME_ORBIT_TOL
    seen = set()
    for _ in range(6):
        side = int(rng.integers(1, poly.n_sides + 1))
        a = BoundaryState(side, float(rng.uniform(0.1, 0.9))
                          * poly.side(side).length,
                          float(rng.uniform(0.2, math.pi - 0.2)))
        traces = _traces(poly, a)
        orbit = O.orbit_states(poly, a, E.SAME_ORBIT_WINDOW)
        states = [x.reversed() for x in orbit]
        for x in orbit:
            states.append(x)
            for f in (0.3, 3.0):
                states.append(_shifted(x, f * tol * rng.choice((-1, 1)), 0.0))
                states.append(_shifted(x, 0.0, f * tol * rng.choice((-1, 1))))
        for _ in range(40):
            j = int(rng.integers(1, poly.n_sides + 1))
            states.append(BoundaryState(
                j, float(rng.uniform(0.0, 1.0)) * poly.side(j).length,
                float(rng.uniform(0.1, math.pi - 0.1))))
        for b in states:
            got = E._same_orbit(a, traces, b)
            assert got is O.same_orbit(orbit, b)
            seen.add(got)
    assert seen == {True, False}
