import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kernel_oracle as O
from ccbilliards import (BoundaryState, GeometryError, build_polygon,
                         find_periodic, holonomy, hyperbolic_pentagon,
                         sphere_triangle, spherical_periodicity_condition,
                         square, unfold, unfolded_crossings, verify_periodic)
from ccbilliards import _batch as B
from ccbilliards import _kernels as K
from ccbilliards import collision as C
from ccbilliards import geometry as G
from ccbilliards import itinerary
from ccbilliards import unfolding as U
from ccbilliards.unfolding import classify_isometry


def fit_line_residual(points):
    """Max distance to the least-squares line through planar points."""
    xy = points[:, :2]
    c = xy.mean(axis=0)
    d = xy - c
    _, _, vt = np.linalg.svd(d, full_matrices=False)
    n = vt[-1]
    return float(np.max(np.abs(d @ n)))


def fit_plane_residual_minkowski(points):
    """Max Minkowski-plane defect of hyperboloid points on one geodesic."""
    J = np.diag([1.0, 1.0, -1.0])
    m = points @ J
    _, _, vt = np.linalg.svd(m, full_matrices=False)
    n = vt[-1]
    nn = n @ J @ n
    n = n / math.sqrt(abs(nn))
    return float(np.max(np.abs(np.arcsinh(m @ n))))


class TestUnfold:
    def test_perpendicular_vertical_line(self, sq):
        res = unfold(BoundaryState(1, 0.5, math.pi / 2), sq, 4)
        xs = res.points[:, 0]
        ys = res.points[:, 1]
        np.testing.assert_allclose(xs, 0.5, atol=1e-12)
        np.testing.assert_allclose(ys, np.arange(5), atol=1e-12)

    def test_flat_collinearity_50_bounces(self, sq):
        res = unfold(BoundaryState(1, 0.5, math.pi / 4), sq, 50)
        assert fit_line_residual(res.points) < 1e-9

    def test_crossings_match_itinerary_flat(self, sq):
        b = BoundaryState(1, 0.37, 1.1)
        res = unfold(b, sq, 30)
        it = itinerary(b, sq, 31)
        assert unfolded_crossings(res, sq) == tuple(it.labels[1:])

    def test_crossings_match_itinerary_hyperbolic(self, pentagon):
        b = BoundaryState(3, 0.61, 0.8)
        res = unfold(b, pentagon, 30)
        it = itinerary(b, pentagon, 31)
        assert unfolded_crossings(res, pentagon) == tuple(it.labels[1:])

    def test_hyperbolic_single_geodesic(self, pentagon):
        # hyperboloid coordinates grow like exp(length); keep the unfolded
        # length below ~9 so the 1e-8 planarity residual is representable
        res = unfold(BoundaryState(1, 0.5, 1.2), pentagon, 8)
        assert fit_plane_residual_minkowski(res.points) < 1e-8

    def test_spherical_points_on_great_circle(self, tri1):
        res = unfold(BoundaryState(2, 0.3, 1.2), tri1, 40)
        axis = np.cross(res.start_tangent.point, res.start_tangent.direction)
        axis /= np.linalg.norm(axis)
        assert np.max(np.abs(res.points @ axis)) < 1e-9

    def test_vertex_hit_truncates(self, tri1):
        res = unfold(BoundaryState(2, 0.4, math.pi / 2), tri1, 10)
        assert res.vertex_hit
        assert len(res.labels) < 10


class TestHolonomy:
    def test_empty_chain_identity(self, sq):
        res = unfold(BoundaryState(1, 0.5, math.pi / 2), sq, 0)
        assert holonomy(res.chain).kind == "identity"

    def test_parallel_mirrors_translate(self, sq):
        res = unfold(BoundaryState(1, 0.5, math.pi / 2), sq, 2)
        h = holonomy(res.chain)
        assert h.kind == "translation"
        assert h.length == pytest.approx(2.0, abs=1e-12)

    def test_meridian_pair_rotation(self):
        theta = 0.7
        tri = sphere_triangle(theta)
        m1 = G.reflection_matrix(tri.sides[0].geodesic, 1)
        m3 = G.reflection_matrix(tri.sides[2].geodesic, 1)
        for n in (1, 2, 3):
            comp = np.linalg.matrix_power(m3 @ m1, n)
            cls = classify_isometry(comp, 1)
            assert cls.kind == "rotation"
            expect = (2 * n * theta) % (2 * math.pi)
            expect = min(expect, 2 * math.pi - expect)
            assert cls.angle == pytest.approx(expect, abs=1e-12)
            np.testing.assert_allclose(np.abs(cls.axis), [0, 0, 1], atol=1e-12)

    def test_associativity_of_composition(self, pentagon):
        res = unfold(BoundaryState(1, 0.4, 1.0), pentagon, 12)
        mats = [G.reflection_matrix(pentagon.side(l).geodesic, -1)
                for l in res.labels]
        left = np.eye(3)
        for m in mats:
            left = left @ m
        right = np.eye(3)
        for m in reversed(mats):
            right = m @ right
        # left-to-right and right-to-left association agree
        np.testing.assert_allclose(left, res.chain.holonomy_matrix(), atol=1e-10)
        np.testing.assert_allclose(right, res.chain.holonomy_matrix(), atol=1e-10)

    @pytest.mark.parametrize("word, kind, text", [
        ((1,), "reflection", "reflection-type"),
        ((1, 2), "rotation", "rotation by 3.14159265359"),
        ((1, 1), "identity", "identity"),
        ((1, 3, 1, 4), "translation", "translation by 4.6789441412"),
    ])
    def test_pentagon_word_classes(self, pentagon, word, kind, text):
        # O(2,1) branch: reflection matrix products in the order unfold
        # composes them; (1, 3, 1, 4) is the period-4 orbit of length
        # 4.6789441412 on the right-angled pentagon
        g = np.eye(3)
        for label in word:
            g = g @ pentagon.reflection_matrices()[label - 1]
        cls = classify_isometry(g, -1)
        assert cls.kind == kind
        assert str(cls) == text
        if kind == "rotation":
            assert cls.angle == pytest.approx(math.pi, abs=1e-12)
        if kind == "translation":
            assert cls.length == pytest.approx(4.6789441412, abs=1e-10)

    def test_sphere_reflection_text(self, tri1):
        cls = classify_isometry(tri1.reflection_matrices()[0], 1)
        assert str(cls) == "reflection-type (rotation content 0)"

    def test_flat_reflection_fixes_its_mirror_direction(self, sq):
        # one bounce off the right side x = 1: the chain is the mirror
        # (x, y) -> (2 - x, y), whose linear part diag(-1, 1) fixes (0, 1)
        res = unfold(BoundaryState(1, 0.5, math.pi / 4), sq, 1)
        assert res.labels == (2,)
        np.testing.assert_allclose(res.chain.holonomy_matrix(),
                                   [[-1, 0, 2], [0, 1, 0], [0, 0, 1]],
                                   atol=1e-15)
        cls = holonomy(res.chain)
        assert (cls.kind, str(cls)) == ("reflection", "reflection-type")
        np.testing.assert_allclose(np.abs(cls.axis), [0, 1, 0], atol=1e-15)

    def test_hyperbolic_parabolic(self):
        # I + N + N^2 / 2 = exp(N) for the nilpotent N = [[0, -1, 0],
        # [1, 0, 1], [0, 1, 0]] of so(2,1): an O(2,1) isometry other than
        # the identity whose trace is exactly 3
        g = np.array([[0.5, -1.0, -0.5], [1.0, 1.0, 1.0], [0.5, 1.0, 1.5]])
        J = np.diag([1.0, 1.0, -1.0])
        np.testing.assert_array_equal(g.T @ J @ g, J)
        assert np.trace(g) == 3.0
        cls = classify_isometry(g, -1)
        assert (cls.kind, str(cls)) == ("parabolic", "parabolic")


class TestSphericalPeriodicityCondition:
    def test_quarter_angle(self):
        assert spherical_periodicity_condition(math.pi / 4, 2, 1)

    def test_examples(self):
        assert spherical_periodicity_condition(math.pi / 6, 3, 1)
        assert not spherical_periodicity_condition(1.0, 3, 2)

    @pytest.mark.parametrize("theta", [0.0, math.pi, 4.0])
    def test_angle_outside_0_pi_rejected(self, theta):
        with pytest.raises(ValueError, match="theta must be in"):
            spherical_periodicity_condition(theta, 1, 1)

    def test_irrational_never_true_small_range(self):
        n = np.arange(1, 200001)
        v = 2.0 * n * 1.0
        m = np.round(v / math.pi)
        assert np.min(np.abs(v - m * math.pi)) > 1e-9

    def test_precondition(self):
        with pytest.raises(ValueError):
            spherical_periodicity_condition(1.0, 0, 1)

    @pytest.mark.parametrize("n, m", [(1.5, 3), (2, 0.99999999999),
                                      (2.0, 1), (True, 1), (2, -1)])
    def test_counts_must_be_integers(self, n, m):
        # before, (1.5, 3) gave False and (2, 0.99999999999) and (2.0, 1)
        # gave True: 2 n theta = m pi at theta = pi/4 needs whole counts
        with pytest.raises(ValueError, match="integer"):
            spherical_periodicity_condition(math.pi / 4, n, m)

    def test_numpy_integers_accepted(self):
        assert spherical_periodicity_condition(math.pi / 4, np.int64(2),
                                               np.int32(1))


class TestFindPeriodic:
    def test_square_perpendicular_family(self, sq):
        reports = find_periodic(sq, 8, 400, seed=1)
        per2 = [r for r in reports if set(r.labels) in ({1, 3}, {2, 4})]
        assert per2
        r = per2[0]
        assert r.length == pytest.approx(2.0, abs=1e-10)
        assert r.residual < 1e-8
        assert r.holonomy.kind == "translation"
        assert verify_periodic(r, sq) < 1e-8

    def test_irrational_sphere_triangle_empty_small_budget(self, tri1):
        assert find_periodic(tri1, 30, 500, seed=2) == []

    def test_rational_sphere_triangle_found(self):
        theta = math.pi / 6
        tri = sphere_triangle(theta)
        reports = find_periodic(tri, 20, 120, seed=3)
        assert reports
        rep = reports[0]
        assert verify_periodic(rep, tri) < 1e-8
        meridian_hits = sum(1 for x in rep.labels if x in (1, 3))
        assert meridian_hits % 2 == 0
        n = meridian_hits // 2
        m = round(2 * n * theta / math.pi)
        assert spherical_periodicity_condition(theta, n, m)
        assert (n, m) == (3, 1)

    def test_bad_bounds_rejected(self, sq):
        with pytest.raises(ValueError):
            find_periodic(sq, 0, 10, seed=0)

    @pytest.mark.parametrize("max_bounces, samples, name", [
        (5, math.nan, "samples"), (5, 2.5, "samples"), (5, True, "samples"),
        (5, 10.0, "samples"), (2.5, 10, "max_bounces"),
        (True, 10, "max_bounces"), (math.nan, 10, "max_bounces")])
    def test_non_integer_counts_rejected(self, sq, max_bounces, samples,
                                         name):
        # nan passed `samples < 1` and ran one state per side; 2.5 bounces
        # failed inside numpy
        with pytest.raises(ValueError, match=name):
            find_periodic(sq, max_bounces, samples, 0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, math.nan, None, "1"])
    def test_bad_seed_rejected(self, sq, seed):
        # -1 failed inside numpy's default_rng, 1.5 raised a TypeError and
        # True ran as seed 1
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            find_periodic(sq, 5, 10, seed)

    def test_numpy_integer_counts_accepted(self, sq):
        assert (find_periodic(sq, np.int64(5), np.int32(10), 0)
                == find_periodic(sq, 5, 10, 0))

    @pytest.mark.parametrize("make, moved", [
        (lambda: sphere_triangle(math.pi / 4), False), (square, True)],
        ids=["triangle-pi4", "square"])
    def test_newton_polish_from_offset_start(self, make, moved):
        # every sweep candidate already starts below the 1e-13 stop, so
        # start each reported orbit off by 1e-6.  On the square that is
        # off the orbit and the Newton steps must bring it back; on the
        # pi/4 triangle the return map is the identity near the orbit
        # (3, 2, 1, 3, 1), so the offset start is itself periodic.
        poly = make()
        reports = find_periodic(poly, 8, 200, 0)
        assert reports
        for r in reports:
            u0 = (r.start.s + 1e-6, r.start.psi + 1e-6)
            f, _ = U._return_displacement(poly, r.start.side, r.period, u0)
            assert (np.max(np.abs(f)) > 1e-9) == moved
            start, residual, tr = U._refine_candidate(poly, r.start.side,
                                                      r.period, u0)
            assert residual < 1e-14
            assert tr.labels == r.labels
            assert ((start.s, start.psi) != u0) == moved

    def test_reports_compare_equal(self, sq):
        # holonomy axes are float tuples, so whole reports support ==
        reports = find_periodic(sq, 5, 10, 0)
        assert any(r.holonomy.axis is not None for r in reports)
        assert reports == find_periodic(sq, 5, 10, 0)


def polish_every_candidate(poly, max_bounces, samples, seed):
    """find_periodic that polishes every near-return of the sweep.

    The row-by-row candidate loop of the search before it learned to skip
    the polish of a sequence it had already reported; a test oracle only.
    """
    side, s, psi = U._sweep_states(poly, samples, seed)
    reports = {}
    for lo in range(0, len(side), U.SWEEP_BLOCK):
        block = slice(lo, lo + U.SWEEP_BLOCK)
        labels, svals, psis = O.trace_many(poly, side[block], s[block],
                                           psi[block], max_bounces)
        for r in range(len(labels)):
            b = BoundaryState(int(side[lo + r]), float(s[lo + r]),
                              float(psi[lo + r]))
            for i in range(int(np.count_nonzero(labels[r]))):
                if int(labels[r, i]) != b.side:
                    continue
                disp = max(abs(float(svals[r, i]) - b.s),
                           abs(float(psis[r, i]) - b.psi))
                if disp >= U.RETURN_CANDIDATE_TOL:
                    continue
                n = i + 1
                refined = U._refine_candidate(poly, b.side, n, (b.s, b.psi))
                if refined is None:
                    continue
                start, residual, rtr = refined
                key = O.canonical_sequence(rtr.labels)
                if key in reports:
                    break
                res = unfold(start, poly, n)
                hol = holonomy(res.chain)
                if poly.k == 0 and not O.flat_direction_check(res):
                    continue
                reports[key] = U.PeriodicOrbitReport(
                    start, rtr.labels, float(np.sum(rtr.flights)),
                    residual, hol)
                break
    return sorted(reports.values(),
                  key=lambda r: (r.period, r.length, r.labels))


@pytest.mark.parametrize("make", [
    square, lambda: sphere_triangle(math.pi / 4), hyperbolic_pentagon],
    ids=["square", "triangle-pi4", "pentagon"])
@pytest.mark.parametrize("samples", [1, 3, 200, 10_000])
@pytest.mark.parametrize("seed", [0, 7])
def test_sweep_states_match_scalar_loop(make, samples, seed):
    # the array draw reads the scalar loop's random stream and repeats its
    # expressions, so every state keeps its bits and its place
    poly = make()
    side, s, psi = U._sweep_states(poly, samples, seed)
    want = O.sweep_states(poly, samples, seed)
    assert side.dtype == np.int64
    assert side.tolist() == [b.side for b in want]
    for got, name in ((s, "s"), (psi, "psi")):
        bits = np.array([getattr(b, name) for b in want]).view(np.int64)
        np.testing.assert_array_equal(got.view(np.int64), bits)


def skew_quadrilateral():
    return build_polygon(0, [(0.0, 0.0), (1.3, 0.1), (1.1, 0.9), (0.2, 1.2)])


ORACLE_TABLES = {
    "square": square,
    "triangle-pi4": lambda: sphere_triangle(math.pi / 4),
    "triangle-1": lambda: sphere_triangle(1.0),
    "pentagon": hyperbolic_pentagon,
    "skew-quad": skew_quadrilateral,
}


@pytest.fixture(scope="module", params=sorted(ORACLE_TABLES))
def oracle_table(request):
    return ORACLE_TABLES[request.param]()


class TestFindPeriodicOracle:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("budget", [(20, 200), (8, 400)])
    def test_equals_polish_every_candidate(self, oracle_table, seed, budget):
        got = find_periodic(oracle_table, *budget, seed)
        assert got == polish_every_candidate(oracle_table, *budget, seed)

    @pytest.mark.parametrize("make,calls", [
        (square, 3), (lambda: sphere_triangle(math.pi / 4), 1)],
        ids=["square", "triangle-pi4"])
    def test_one_polish_per_new_sequence(self, monkeypatch, make, calls):
        poly = make()
        seen = []
        refine = U._refine_candidate

        def counted(*args):
            seen.append(args)
            return refine(*args)

        monkeypatch.setattr(U, "_refine_candidate", counted)
        reports = find_periodic(poly, 20, 200, 0)
        assert reports
        assert len(seen) == calls

    @pytest.mark.parametrize("make", [
        square, lambda: sphere_triangle(math.pi / 4)],
        ids=["square", "triangle-pi4"])
    def test_sweep_blocks_do_not_change_the_polish(self, monkeypatch, make):
        # 7 states per block puts block edges all through the 200-sample
        # sweep; every candidate with a new sweep sequence must still reach
        # _polish with the same state and bounce, in the same order
        poly = make()
        polish = U._polish

        def run():
            calls = []

            def recorded(poly, b, n, seen):
                calls.append((b, n))
                return polish(poly, b, n, seen)

            monkeypatch.setattr(U, "_polish", recorded)
            return find_periodic(poly, 20, 200, 0), calls

        want = run()
        assert want[1]
        monkeypatch.setattr(U, "SWEEP_BLOCK", 7)
        assert run() == want

    def test_three_block_sweep(self, sq):
        # 4 * (21 + 40 * 30) = 5,044 states: two full blocks and a partial
        side, _, _ = U._sweep_states(sq, 5000, 0)
        assert len(side) == 5044 > 2 * U.SWEEP_BLOCK
        got = find_periodic(sq, 6, 5000, 0)
        assert got
        assert got == polish_every_candidate(sq, 6, 5000, 0)

    def test_failed_polish_moves_on_to_next_return(self, monkeypatch, sq):
        # with every 1- and 2-bounce polish failing, the perpendicular
        # family is found through its 4-bounce return in the same sample
        refine = U._refine_candidate

        def no_short_orbits(poly, side0, n, u0):
            return None if n <= 2 else refine(poly, side0, n, u0)

        monkeypatch.setattr(U, "_refine_candidate", no_short_orbits)
        got = find_periodic(sq, 8, 400, 1)
        assert (1, 3, 1, 3) in [O.canonical_sequence(r.labels) for r in got]
        assert got == polish_every_candidate(sq, 8, 400, 1)


def _dart(k):
    from test_nonconvex import DARTS   # which imports this module
    return DARTS[k]


SCAN_TABLES = {**ORACLE_TABLES, "dart-plane": lambda: _dart(0),
               "dart-sphere": lambda: _dart(1),
               "dart-hyperbolic": lambda: _dart(-1)}
SCAN_SEEDS = range(16)
SCAN_SAMPLES = (1, 3, 200)
SCAN_BOUNCES = (1, 20, 50)


def traced_sweeps(poly):
    """``trace_many`` on the sweeps of every seed and sample count of the
    scan grid, traced at once for the most bounces and keyed by the sweep
    states' bytes.

    The engine traces every row alone and bounce by bounce, so a row's
    first n columns of that trace are its n-bounce trace bit for bit.
    """
    sweeps = {}
    for samples in SCAN_SAMPLES:
        for seed in SCAN_SEEDS:
            states = U._sweep_states(poly, samples, seed)
            sweeps[tuple(a.tobytes() for a in states)] = states
    traced = O.trace_many(poly, *(np.concatenate(a) for a in
                                  zip(*sweeps.values())), max(SCAN_BOUNCES))
    out, lo = {}, 0
    for key, states in sweeps.items():
        hi = lo + len(states[0])
        out[key] = tuple(a[lo:hi] for a in traced)
        lo = hi
    return out


@pytest.mark.parametrize("name", sorted(SCAN_TABLES))
def test_equals_row_scan_oracle(monkeypatch, name):
    # the set lookup per candidate against the row-by-row scan with its
    # least rotations, on the grid's 144 searches per table; both read
    # the one shared trace in place of the engine, so each search costs
    # only its scan and polish
    poly = SCAN_TABLES[name]()
    traced = traced_sweeps(poly)

    def shared(*args):
        side, s, psi, n = args[-5:-1]
        key = side.tobytes(), s.tobytes(), psi.tobytes()
        return O.columns(tuple(a[:, :n] for a in traced[key]), n)

    monkeypatch.setattr(B, "trace_columns", shared)
    for samples in SCAN_SAMPLES:
        for seed in SCAN_SEEDS:
            for max_bounces in SCAN_BOUNCES:
                got = find_periodic(poly, max_bounces, samples, seed)
                assert got == O.find_periodic(poly, max_bounces, samples,
                                              seed), (samples, seed,
                                                      max_bounces)


@settings(max_examples=100, deadline=None)
@given(seq=st.lists(st.integers(1, 3), min_size=1, max_size=8),
       other=st.lists(st.integers(1, 3), min_size=1, max_size=8),
       shift=st.integers(0, 7), flip=st.booleans(), related=st.booleans())
def test_rotation_set_is_the_canonical_class(seq, other, shift, flip,
                                             related):
    # x is in the rotation set of seq exactly when both have one least
    # rotation or reversal; half the draws make x a rotation of seq
    x = tuple(other)
    if related:
        x = tuple(seq[::-1] if flip else seq)
        x = x[shift % len(x):] + x[:shift % len(x)]
    assert (x in U._rotations(seq)) == (
        O.canonical_sequence(x) == O.canonical_sequence(seq))


@st.composite
def small_tables(draw):
    """Sphere triangles and convex plane quadrilaterals.

    Rational opening angles pi/q and parallelograms are drawn often, since
    they carry short periodic orbits that a small sweep finds.
    """
    if draw(st.booleans()):
        theta = draw(st.floats(0.3, 2.8)
                     | st.integers(2, 9).map(lambda q: math.pi / q))
        return sphere_triangle(theta)
    # four points on an ellipse in angular order; opposite points make a
    # parallelogram
    if draw(st.booleans()):
        g = draw(st.floats(0.5, math.pi - 0.5))
        gaps = [g, math.pi - g, g, math.pi - g]
    else:
        gaps = [draw(st.floats(0.4, 2.5)) for _ in range(4)]
        scale = 2 * math.pi / sum(gaps)
        gaps = [x * scale for x in gaps]
        assume(all(0.4 <= x <= 2.5 for x in gaps))
    a = draw(st.floats(0.0, 2 * math.pi))
    ry = draw(st.floats(0.5, 2.0))
    pts = []
    for g in gaps:
        pts.append((math.cos(a), ry * math.sin(a)))
        a += g
    return build_polygon(0, pts)


@settings(max_examples=12, deadline=None)
@given(poly=small_tables(), max_bounces=st.integers(2, 12),
       samples=st.integers(10, 100), seed=st.integers(0, 2**16))
def test_find_periodic_properties(poly, max_bounces, samples, seed):
    reports = find_periodic(poly, max_bounces, samples, seed)
    for rep in reports:
        assert verify_periodic(rep, poly) < U.RETURN_VERIFY_TOL
    keys = [O.canonical_sequence(rep.labels) for rep in reports]
    assert len(set(keys)) == len(keys)
    assert reports == polish_every_candidate(poly, max_bounces, samples, seed)


# ---------------------------------------------------------------------------
# the per-curvature crossing loops against the generic loop they replaced
# ---------------------------------------------------------------------------

CROSSING_TABLES = {
    "square": square(),
    "skew-quad": build_polygon(
        0, [(0.0, 0.0), (1.3, 0.2), (0.9, 1.1), (-0.2, 0.7)]),
    "sphere-triangle-1": sphere_triangle(1.0),
    "sphere-triangle-2": sphere_triangle(2.0),
    "sphere-triangle-pi4": sphere_triangle(math.pi / 4),
    "hyperbolic-pentagon": hyperbolic_pentagon()}


def _oracle_crossings(poly, p, v, n):
    sa, su, sn, sl = poly.kernel_pack()[:4]
    labels = np.empty(max(n, 1), dtype=np.int64)
    m = O.unfold_crossings(poly.k, sa, su, sn, sl, poly.reflection_pack(),
                           p, v, n, C.FLIGHT_MIN, C.VERTEX_TOL, labels)
    return tuple(int(x) + 1 for x in labels[:m])


def _crossing_start(poly, side, frac, psi, start):
    """A boundary state: interior, grazing (psi within 1e-6 of 0 or pi),
    or just off a vertex and turned nearly parallel to the next side."""
    length = poly.side(side).length
    if start == "grazing":
        tilt = C.GRAZE_TOL + psi * 1e-6
        return BoundaryState(side, frac * length,
                             tilt if frac < 0.5 else math.pi - tilt)
    if start == "near-vertex":
        theta = poly.angles[poly.side(side).end]
        return BoundaryState(side, length * (1.0 - frac * 1e-6),
                             math.pi - theta - psi * 1e-6)
    return BoundaryState(side, frac * length, 0.01 + psi * (math.pi - 0.02))


@settings(max_examples=120, deadline=None)
@given(table=st.sampled_from(sorted(CROSSING_TABLES)), side=st.integers(1, 5),
       frac=st.floats(0.0, 1.0), psi=st.floats(0.0, 1.0),
       start=st.sampled_from(["interior", "grazing", "near-vertex"]),
       n=st.integers(0, 60))
def test_crossing_labels_match_oracle(table, side, frac, psi, start, n):
    poly = CROSSING_TABLES[table]
    assume(side <= poly.n_sides)
    b = _crossing_start(poly, side, frac, psi, start)
    assume(C.GRAZE_TOL < b.psi < math.pi - C.GRAZE_TOL)
    p, v = C.embed_state(poly, b)
    assert U.crossing_labels(poly, b, n) == _oracle_crossings(poly, p, v, n)


@pytest.mark.parametrize("table", ["square", "sphere-triangle-1",
                                   "hyperbolic-pentagon"])
@pytest.mark.parametrize("bad", ["zero", "nan-direction", "inf-direction",
                                 "nan-point", "inf-point", "off-surface",
                                 "non-tangent", "unit-non-tangent",
                                 "doubled", "halved",
                                 "unit-non-tangent-at-3",
                                 "unit-non-tangent-at-8"])
def test_crossing_labels_reject_bad_rays(table, bad):
    # a point off the model surface, or a direction off its tangent
    # plane or not of unit length, is not a billiard ray
    poly = CROSSING_TABLES[table]
    p, v = map(np.array, C.embed_state(
        poly, BoundaryState(1, 0.3 * poly.side(1).length, 1.0)))
    if bad == "zero":
        v = np.zeros(3)
    elif bad == "off-surface":
        p = p.copy()
        p[2] = 0.0 if poly.k == 0 else 3.0
    elif bad == "non-tangent":
        v = v + 0.5 * p
    elif bad == "unit-non-tangent":
        v = v + 0.5 * p
        v = v / math.sqrt(K.mdot(poly.k, v, v))
    elif bad in ("doubled", "halved"):
        v = v * (2.0 if bad == "doubled" else 0.5)
    elif bad.startswith("unit-non-tangent-at-"):
        # p r out from the model's origin (0, 0, 1) and v = sqrt(2) u + p
        # for a unit tangent u there, scaled to unit length: on the
        # hyperboloid it is unit already, with mdot(p, v) = -1
        r = float(bad.rsplit("-", 1)[1])
        c, sn = (math.cos(r), math.sin(r)) if poly.k == 1 else (
            (1.0, r) if poly.k == 0 else (math.cosh(r), math.sinh(r)))
        p = np.array([sn, 0.0, c])
        v = math.sqrt(2.0) * np.array([0.0, 1.0, 0.0]) + p
        v = v / math.sqrt(K.mdot(poly.k, v, v))
    elif bad.endswith("direction"):
        v = v.copy()
        v[1] = math.nan if bad.startswith("nan") else math.inf
    else:
        p = p.copy()
        p[0] = math.nan if bad.startswith("nan") else -math.inf
    with pytest.raises(GeometryError):
        U.crossing_labels_from_tangent(poly, p, v, 10)


def test_unfold_matches_reflection_matrix_products():
    # unfold's cached matrices and kernel_pack hit points give the bits of
    # reflection_matrix products and numpy side geodesics
    for poly in CROSSING_TABLES.values():
        b = BoundaryState(1, 0.41 * poly.side(1).length, 1.1)
        res = unfold(b, poly, 16)
        svals = C.trace(poly, b, 16).svals
        g = np.eye(3)
        for i, (mat, label) in enumerate(res.chain.copies):
            side = poly.side(label)
            q = np.array(K.renorm_point(poly.k, K.geodesic_point(
                poly.k, side.geodesic.point, side.geodesic.direction,
                float(svals[i]))))
            assert np.array_equal(res.points[i + 1],
                                  G.apply_isometry(g, q, poly.k))
            g = g @ G.reflection_matrix(side.geodesic, poly.k)
            assert np.array_equal(mat, g)
        assert not any(m.flags.writeable for m in poly.reflection_matrices())


@pytest.mark.parametrize("make", [
    square, skew_quadrilateral, lambda: sphere_triangle(math.pi / 4),
    lambda: sphere_triangle(math.pi / 6)],
    ids=["square", "skew-quad", "triangle-pi4", "triangle-pi6"])
def test_report_residual_is_its_verification(make):
    # first_verified_orbit takes the first report unchecked: the polish
    # kept it on the same return displacement, from the same start over
    # the same period, that verify_periodic traces again
    poly = make()
    reports = find_periodic(poly, 12, 300, seed=2)
    assert reports
    for rep in reports:
        assert verify_periodic(rep, poly) == rep.residual
        assert rep.residual < U.RETURN_VERIFY_TOL
    assert U.first_verified_orbit(poly, 12, 300, 2) == reports[0]


class TestPeriodicSearchBranches:
    """The periodic search's Newton on hand-built starts on the square,
    where a start (s, psi) on side 1 (the bottom) runs up with slope
    tan psi: two bounces bring it back at s + 2 cot psi."""

    PERP = BoundaryState(1, 0.5, math.pi / 2)

    @pytest.mark.parametrize("s, psi", [(0.0, 1.0), (1.0, 1.0),
                                        (0.5, 0.5e-9), (0.5, math.pi)])
    def test_displacement_off_the_side(self, sq, s, psi):
        assert U._return_displacement(sq, 1, 2, (s, psi)) is None

    def test_displacement_off_the_branch(self, sq):
        # one bounce lands on the top side, not back on side 1
        assert U._return_displacement(sq, 1, 1, (0.5, math.pi / 2)) is None
        # aimed at the vertex (1, 1): the trace stops before two bounces
        assert U._return_displacement(
            sq, 1, 2, (0.5, math.atan2(1.0, 0.5))) is None

    def test_start_off_the_branch(self, sq):
        assert U._refine_candidate(sq, 1, 1, (0.5, math.pi / 2)) is None

    def test_probe_leaves_the_branch(self, sq):
        # 5e-8 from the vertex (0, 0), the finite-difference probe at
        # s - 1e-7 leaves the side, so the Newton stops where it started:
        # a 2e-9 return is kept, a 2e-7 one is not
        psi = math.pi / 2 - 1e-9
        start, residual, tr = U._refine_candidate(sq, 1, 2, (5e-8, psi))
        assert start == BoundaryState(1, 5e-8, psi)
        assert residual == pytest.approx(2.0 / math.tan(psi), rel=1e-6)
        assert tr.labels == (3, 1)
        assert U._refine_candidate(sq, 1, 2, (5e-8, math.pi / 2 - 1e-7)) \
            is None

    def test_line_search_gives_up(self, sq, monkeypatch):
        # a return displacement that is the same everywhere has a zero
        # Jacobian, so the Newton step is zero and none of the line
        # search's 8 halvings improves on it
        calls = []

        def constant(poly, side0, n, u):
            calls.append(tuple(u))
            return np.array([1e-3, 0.0]), None

        monkeypatch.setattr(U, "_return_displacement", constant)
        assert U._refine_candidate(sq, 1, 2, (0.5, 1.0)) is None
        assert len(calls) == 1 + 4 + 8
        assert set(calls[5:]) == {(0.5, 1.0)}

    def test_polish_closes_a_reported_sequence(self, sq):
        b = (1, 0.5, math.pi / 2)
        rep, still_open = U._polish(sq, b, 2, set())
        assert rep.labels == (3, 1) and not still_open
        assert U._polish(sq, b, 2, U._rotations((1, 3))) == (None, False)

    def test_polish_rejects_a_turning_flat_holonomy(self, sq, monkeypatch):
        # a polish that claims the start launched at pi/4 returns after the
        # one bounce off the top side: that reflection turns the direction
        # (cos, sin)(pi/4) to (cos, -sin)(pi/4), so the polish fails
        tr = C.trace(sq, self.PERP, 1)
        refined = (BoundaryState(1, 0.5, math.pi / 4), 0.0, tr)
        monkeypatch.setattr(U, "_refine_candidate", lambda *a: refined)
        assert U._polish(sq, (1, 0.5, math.pi / 4), 1, set()) == (None, True)

    def test_verify_periodic_rejects(self, sq):
        def report(labels):
            return U.PeriodicOrbitReport(self.PERP, labels, 2.0, 0.0, None)

        assert verify_periodic(report((3, 1)), sq) < 1e-15
        # one bounce does not return to side 1
        assert verify_periodic(report((3,)), sq) == math.inf
        # two bounces return, along (3, 1)
        assert verify_periodic(report((1, 3)), sq) == math.inf
