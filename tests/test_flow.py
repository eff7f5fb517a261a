import contextlib
import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccbilliards import (CartesianChartState, ChartExitError, ChartState,
                         GeometryError, SingularFieldError, chart_embed,
                         chart_extract, chart_forward, chart_inverse,
                         chart_velocity_field, closed_form_flow,
                         integrate_chart_flow, polar_velocity_field,
                         reparameterization_factor, singularity_jacobian)
import kernel_oracle as O
from ccbilliards import _kernels as K
from ccbilliards.flow import export_trajectory

KS = (-1, 0, 1)
TWO_PI = 2 * math.pi


def sample_in_chart_state(rng, k):
    """Random state whose short-time flow stays off the vertex."""
    r = rng.uniform(0.2, 0.8)
    gamma = rng.uniform(0, TWO_PI)
    side = rng.integers(0, 2)
    beta = rng.uniform(0.2, math.pi - 0.2) + side * math.pi
    return ChartState(r, gamma, beta)


class TestChart:
    def test_circle_collapses_gamma(self):
        for gamma in (0.0, 0.3, 2.0):
            c = chart_forward(ChartState(0.0, gamma, 1.2), 0.9)
            assert (c.x, c.y) == (0.0, 0.0)
            assert c.z == pytest.approx(1.2)

    def test_direct_substitution(self):
        c = chart_forward(ChartState(1.0, math.pi / 2, 0.0), math.pi)
        assert c.x == pytest.approx(0.0, abs=1e-15)
        assert c.y == pytest.approx(1.0, abs=1e-15)

    def test_round_trip_thousand(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            theta = rng.uniform(0.1, 3.0)
            s = ChartState(rng.uniform(0, 2), rng.uniform(0, 2 * theta),
                           rng.uniform(0, TWO_PI))
            back = chart_inverse(chart_forward(s, theta), theta)
            assert back.r == pytest.approx(s.r, abs=1e-12)
            assert back.gamma == pytest.approx(s.gamma, abs=1e-12)
            assert back.beta == pytest.approx(s.beta, abs=1e-12)

    def test_nonpositive_angle_rejected(self):
        with pytest.raises(GeometryError):
            chart_forward(ChartState(1, 0, 0), 0.0)

    @pytest.mark.parametrize("k", KS)
    def test_negative_radius_rejected(self, k):
        # before, r < 0 embedded as the point mirrored through the vertex
        with pytest.raises(GeometryError, match="must be >= 0"):
            chart_embed(ChartState(-0.1, 0.3, 1.0), 1.0, k)

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("bad", [(math.nan, 0.3, 1.0),
                                     (0.1, math.inf, 1.0),
                                     (0.1, 0.3, -math.inf)])
    def test_non_finite_polar_state_rejected(self, bad, k):
        # before, a nan r gave nan coordinates and an infinite gamma a bare
        # "math domain error"
        with pytest.raises(GeometryError, match="finite"):
            chart_embed(ChartState(*bad), 1.0, k)

    @pytest.mark.parametrize("r", [math.pi, 4.0])
    def test_sphere_radius_from_pi_rejected(self, r):
        # before, r = 4 wrapped through sin(4) < 0 to the mirrored point
        with pytest.raises(GeometryError, match="< pi"):
            chart_embed(ChartState(r, 0.3, 1.0), 1.0, 1)

    def test_sphere_round_trip_below_half_pi(self):
        # sin r is one to one on [0, pi/2), so extract recovers r there
        for r in np.linspace(0.0, 0.5 * math.pi, 33)[:-1]:
            s = ChartState(float(r), 0.3, 1.0)
            back = chart_extract(chart_embed(s, 1.0, 1), 1.0, 1)
            assert back.r == pytest.approx(r, abs=1e-12)
            # the vertex circle r = 0 collapses gamma
            assert back.gamma == (pytest.approx(0.3, abs=1e-12) if r else 0.0)

    @pytest.mark.parametrize("r", [0.5 * math.pi, 2.0, 3.0, math.pi - 1e-9])
    def test_sphere_radius_from_half_pi_rejected(self, r):
        # before, r = 2 and r = 3 embedded onto the points for pi - 2 and
        # pi - 3, and extract returned 1.1416 and 0.1416
        with pytest.raises(GeometryError, match="must be < pi/2"):
            chart_embed(ChartState(r, 0.3, 1.0), 1.0, 1)

    @pytest.mark.parametrize("k", KS)
    def test_vertex_circle_embeds(self, k):
        c = chart_embed(ChartState(0.0, 0.3, 1.2), 1.0, k)
        assert (c.x, c.y, c.z) == (0.0, 0.0, 1.2)

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("bad", [(math.nan, 0.0, 1.0),
                                     (0.1, -math.inf, 1.0),
                                     (0.1, 0.2, math.inf)])
    def test_non_finite_chart_state_rejected_by_extract(self, bad, k):
        with pytest.raises(GeometryError, match="finite"):
            chart_extract(CartesianChartState(*bad), 1.0, k)

    def test_embed_matches_forward_flat(self):
        s = ChartState(0.43, 0.2, 1.0)
        a, b = chart_embed(s, 0.8, 0), chart_forward(s, 0.8)
        assert (a.x, a.y, a.z) == (b.x, b.y, b.z)

    def test_embed_extract_round_trip(self):
        rng = np.random.default_rng(4)
        for k in KS:
            for _ in range(200):
                theta = rng.uniform(0.1, 3.0)
                s = ChartState(rng.uniform(0, 1.2), rng.uniform(0, 2 * theta),
                               rng.uniform(0, TWO_PI))
                back = chart_extract(chart_embed(s, theta, k), theta, k)
                assert back.r == pytest.approx(s.r, abs=1e-12)
                assert back.gamma == pytest.approx(s.gamma, abs=1e-12)


class TestPolarField:
    def test_radial_motion(self):
        for k in KS:
            v = polar_velocity_field(ChartState(0.7, 0.1, 0.0), k)
            np.testing.assert_allclose(v, [1, 0, 0], atol=1e-15)

    def test_flat_values(self):
        v = polar_velocity_field(ChartState(2.0, 0.0, math.pi / 2), 0)
        np.testing.assert_allclose(v, [0, 0.5, -0.5], atol=1e-15)

    def test_hyperbolic_values(self):
        v = polar_velocity_field(ChartState(1.0, 0.0, math.pi / 2), -1)
        assert v[1] == pytest.approx(1 / math.sinh(1), abs=1e-12)
        assert v[2] == pytest.approx(-math.cosh(1) / math.sinh(1), abs=1e-12)

    def test_first_component_is_cos_beta(self):
        rng = np.random.default_rng(7)
        for k in KS:
            for _ in range(200):
                s = ChartState(rng.uniform(0.05, 2 if k == 1 else 5),
                               rng.uniform(0, 6), rng.uniform(0, TWO_PI))
                v = polar_velocity_field(s, k)
                assert v[0] == math.cos(s.beta)

    def test_singular_at_zero(self):
        with pytest.raises(SingularFieldError):
            polar_velocity_field(ChartState(0.0, 0.0, 1.0), 0)


class TestClosedForm:
    def test_identity_at_zero(self):
        s = ChartState(0.5, 1.0, 2.0)
        for k in KS:
            out = closed_form_flow(s, 0.0, k)
            assert (out.r, out.gamma, out.beta) == (0.5, 1.0, 2.0)

    def test_flat_example(self):
        out = closed_form_flow(ChartState(1.0, 0.0, math.pi / 2), 1.0, 0)
        assert out.r == pytest.approx(math.sqrt(2), abs=1e-15)
        assert out.gamma == pytest.approx(math.pi / 4, abs=1e-15)
        assert out.beta == pytest.approx(math.pi / 4, abs=1e-15)

    def test_equatorial_orbit(self):
        for t in (0.3, 1.0, 4.0, 9.0, 20.0):
            out = closed_form_flow(ChartState(math.pi / 2, 0.0, math.pi / 2), t, 1)
            assert out.r == pytest.approx(math.pi / 2, abs=1e-12)
            assert out.gamma == pytest.approx(t, abs=1e-9)
            assert out.beta == pytest.approx(math.pi / 2, abs=1e-12)

    def test_flat_conservation_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            s = ChartState(rng.uniform(0.1, 3), rng.uniform(0, 6),
                           rng.uniform(0.1, math.pi - 0.1))
            out = closed_form_flow(s, rng.uniform(0, 4), 0)
            assert out.gamma + out.beta == pytest.approx(s.gamma + s.beta,
                                                         abs=1e-12)

    def test_group_property(self):
        # flowing t then u equals flowing t + u
        rng = np.random.default_rng(13)
        for k in KS:
            for _ in range(300):
                s = sample_in_chart_state(rng, k)
                t, u = rng.uniform(0.05, 0.6, size=2)
                a = closed_form_flow(closed_form_flow(s, t, k), u, k)
                b = closed_form_flow(s, t + u, k)
                assert a.r == pytest.approx(b.r, abs=1e-10)
                assert math.cos(a.beta) == pytest.approx(math.cos(b.beta), abs=1e-9)
                # gamma branch: compare increments mod winding
                assert a.gamma == pytest.approx(b.gamma, abs=1e-8)

    def test_backward_inverts_forward(self):
        rng = np.random.default_rng(17)
        for k in KS:
            for _ in range(300):
                s = sample_in_chart_state(rng, k)
                t = rng.uniform(0.05, 0.5)
                out = closed_form_flow(closed_form_flow(s, t, k), -t, k)
                assert out.r == pytest.approx(s.r, abs=1e-10)
                assert out.gamma == pytest.approx(s.gamma, abs=1e-9)
                assert out.beta == pytest.approx(s.beta, abs=1e-9)

    def test_chart_exit_reported(self):
        s0 = ChartState(0.4, 0.0, 0.2)
        for k in KS:
            for t in (2.0, -2.0):
                with pytest.raises(ChartExitError) as ei:
                    closed_form_flow(s0, t, k, eps=0.5)
                err = ei.value
                assert 0.0 < err.exit_time / t < 1.0
                assert err.state.r == pytest.approx(0.5, abs=1e-6)
                assert closed_form_flow(s0, err.exit_time, k).r == (
                    pytest.approx(0.5, rel=1e-12))

    @pytest.mark.parametrize("t", [256 * TWO_PI, 256 * TWO_PI + 0.5])
    def test_short_chart_trip_on_sphere(self, t):
        # r(u) has period 2 pi: 256 evenly spaced samples of [0, t] all land
        # where r = r0 for the first t, and the first sample past eps lies
        # in a later period for the second
        s0 = ChartState(0.1, 0.3, 1.0)
        with pytest.raises(ChartExitError) as ei:
            closed_form_flow(s0, t, 1, eps=0.3)
        assert ei.value.exit_time == pytest.approx(0.23415, abs=1e-5)
        assert closed_form_flow(s0, ei.value.exit_time, 1).r == pytest.approx(
            0.3, rel=1e-12)

    def test_vertex_crossing_flips_gamma(self):
        out = closed_form_flow(ChartState(1.0, 0.3, math.pi), 1.5, 0)
        assert out.r == pytest.approx(0.5, abs=1e-15)
        assert out.beta == pytest.approx(0.0)
        assert out.gamma % TWO_PI == pytest.approx((0.3 + math.pi) % TWO_PI)


class TestRadialFlow:
    def test_sphere_ray_short_of_vertex_and_antipode(self):
        # outward at unit speed for 0.5 from r = 1: r = 1.5, no fold
        s = closed_form_flow(ChartState(1.0, 0.2, 0.0), 0.5, 1)
        assert (s.r, s.gamma, s.beta) == (1.5, 0.2, 0.0)

    @pytest.mark.parametrize("k, s0, t", [
        (1, (1.0, 0.2, math.pi), 1.0),        # inward onto the vertex
        (1, (1.0, 0.2, 0.0), math.pi - 1.0),  # outward onto the antipode
        (0, (1.0, 0.2, math.pi), 1.0),
        (-1, (1.0, 0.2, math.pi), 1.0),
    ])
    def test_ray_landing_on_vertex_or_antipode_is_singular(self, k, s0, t):
        assert s0[0] + math.cos(s0[2]) * t in (0.0, math.pi)
        with pytest.raises(SingularFieldError, match="radial trajectory hits"):
            closed_form_flow(ChartState(*s0), t, k)


class TestOracleEquivalence:
    @pytest.mark.parametrize("k", KS)
    def test_integration_matches_closed_form(self, k):
        rng = np.random.default_rng(100 + k)
        worst = 0.0
        for _ in range(200):
            s = sample_in_chart_state(rng, k)
            t = rng.uniform(0.05, 0.6)
            a = O.integrate_polar_flow(s, t, k)
            b = closed_form_flow(s, t, k)
            err = max(abs(a.r - b.r), abs(a.gamma - b.gamma),
                      abs(a.beta - b.beta)) / max(1.0, abs(b.r))
            worst = max(worst, err)
        assert worst < 1e-8

    @pytest.mark.parametrize("k, s0, t", [
        (-1, (0.3, 0.2, math.pi), 1.0),
        (0, (0.3, 0.2, math.pi), 1.0),
        (1, (0.3, 0.2, math.pi), 1.0),
        # on the sphere through the antipode, and through vertex and antipode
        (1, (3.0, 0.2, 0.0), 1.0),
        (1, (0.3, 0.2, math.pi), 7.0),
    ])
    def test_radial_ray_through_vertex(self, k, s0, t):
        # the integrated ray passes the vertex at a negative radius; it comes
        # back as the same point and direction with r >= 0
        a = O.integrate_polar_flow(ChartState(*s0), t, k)
        b = closed_form_flow(ChartState(*s0), t, k)
        assert a.r >= 0.0
        assert abs(a.r - b.r) < 1e-9
        assert abs(math.remainder(a.gamma - b.gamma, TWO_PI)) < 1e-9
        assert abs(math.remainder(a.beta - b.beta, TWO_PI)) < 1e-9


class TestChartField:
    def test_on_circle_values(self):
        for theta in (0.3, 1.0, 2.5):
            for k in KS:
                for z in np.linspace(0, TWO_PI, 37):
                    v = chart_velocity_field(CartesianChartState(0, 0, z),
                                             theta, k)
                    np.testing.assert_allclose(v, [0, 0, -math.sin(z)],
                                               atol=1e-15)

    def test_two_fixed_points(self):
        for z0 in (0.0, math.pi):
            v = chart_velocity_field(CartesianChartState(0, 0, z0), 1.0, 1)
            np.testing.assert_allclose(v, [0, 0, 0], atol=1e-15)

    def test_flat_substitution(self):
        v = chart_velocity_field(CartesianChartState(0.1, 0.0, math.pi / 2),
                                 math.pi / 2, 0)
        np.testing.assert_allclose(v, [0, 0.2, -1], atol=1e-15)

    def test_sphere_domain_error(self):
        with pytest.raises(GeometryError):
            chart_velocity_field(CartesianChartState(1.0, 0.2, 0.0), 1.0, 1)

    def test_consistency_with_rescaled_polar_field(self):
        # push the polar field through the embedding differential and
        # multiply by the rescaling factor: must equal the chart field
        rng = np.random.default_rng(23)
        for k in KS:
            theta = 0.9
            pf = math.pi / theta
            for _ in range(200):
                s = ChartState(rng.uniform(0.05, 0.9), rng.uniform(0, 2 * theta),
                               rng.uniform(0, TWO_PI))
                rho = math.sin(s.r) if k == 1 else (
                    math.sinh(s.r) if k == -1 else s.r)
                x = polar_velocity_field(s, k) * rho
                a = s.gamma * pf
                rr = rho
                drr = math.cos(s.r) if k == 1 else (
                    math.cosh(s.r) if k == -1 else 1.0)
                jac = np.array([
                    [drr * math.cos(a), -rr * math.sin(a) * pf, 0.0],
                    [drr * math.sin(a), rr * math.cos(a) * pf, 0.0],
                    [0.0, 0.0, 1.0]])
                pushed = jac @ x
                c = chart_embed(s, theta, k)
                z = chart_velocity_field(c, theta, k)
                np.testing.assert_allclose(pushed, z, atol=1e-9)


class TestSingularityJacobian:
    def test_analytic_eigenvalues(self):
        for theta in (math.pi / 6, math.pi / 2, 2.0):
            for k in KS:
                _, e0 = singularity_jacobian(0.0, theta, k)
                np.testing.assert_allclose(e0, [-1, 1, 1], atol=1e-14)
                _, epi = singularity_jacobian(math.pi, theta, k)
                np.testing.assert_allclose(epi, [-1, -1, 1], atol=1e-14)

    def test_finite_difference_oracle(self):
        h = 1e-6
        for theta in (math.pi / 6, math.pi / 2, 2.0):
            for k in KS:
                for z0 in (0.0, math.pi):
                    jac, _ = singularity_jacobian(z0, theta, k)
                    fd = np.empty((3, 3))
                    base = np.array([0.0, 0.0, z0])
                    for j in range(3):
                        ep = base.copy()
                        ep[j] += h
                        em = base.copy()
                        em[j] -= h
                        fp = chart_velocity_field(
                            CartesianChartState(*ep), theta, k)
                        fm = chart_velocity_field(
                            CartesianChartState(*em), theta, k)
                        fd[:, j] = (fp - fm) / (2 * h)
                    np.testing.assert_allclose(fd, jac, atol=1e-6)


class TestRho:
    def test_zero_at_vertex(self):
        for k in KS:
            assert reparameterization_factor(0.0, k, 1.0) == 0.0

    def test_raw_inside_half(self):
        assert reparameterization_factor(0.3, 0, 1.0) == 0.3
        assert reparameterization_factor(0.3, -1, 1.0) == math.sinh(0.3)
        assert reparameterization_factor(0.3, 1, 1.0) == math.sin(0.3)

    def test_one_outside(self):
        for k in KS:
            assert reparameterization_factor(1.0, k, 1.0) == 1.0
        for k in (0, -1):
            assert reparameterization_factor(7.3, k, 0.4) == 1.0
        # before, the sphere's r < pi bound was checked only inside the
        # chart, and r = 7.3 gave 1
        with pytest.raises(GeometryError, match="must be < pi"):
            reparameterization_factor(7.3, 1, 0.4)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, -0.1])
    def test_bad_radius_rejected(self, r):
        # a nan r used to reach the bump with both weights 0 and raise
        # ZeroDivisionError; +inf returned 1
        for k in KS:
            with pytest.raises(GeometryError, match="radius"):
                reparameterization_factor(r, k, 1.0)

    def test_smooth_monotone_blend(self):
        rs = np.linspace(0.4, 1.1, 400)
        vals = [reparameterization_factor(r, 0, 1.0) for r in rs]
        assert all(np.diff(vals) > -1e-12)


class TestIntegrateChartFlow:
    def test_south_north_on_circle(self):
        traj = integrate_chart_flow(CartesianChartState(0, 0, math.pi / 2),
                                    30.0, 1.0, 0)
        assert np.all(np.abs(traj.states[:, :2]) == 0.0)
        z = traj.states[:, 2]
        assert np.all(np.diff(z) <= 1e-14)
        assert z[-1] < 1e-10

    def test_fixed_point_stationary(self):
        traj = integrate_chart_flow(CartesianChartState(0, 0, 0), 10.0, 0.7, -1)
        np.testing.assert_allclose(traj.states[-1], [0, 0, 0], atol=1e-15)

    def test_matches_closed_form_through_time_change(self):
        rng = np.random.default_rng(31)
        for k in KS:
            theta = 1.1
            for _ in range(20):
                s0 = ChartState(rng.uniform(0.2, 0.5), rng.uniform(0, 2 * theta),
                                rng.uniform(0.3, math.pi - 0.3))
                c0 = chart_embed(s0, theta, k)
                traj = integrate_chart_flow(c0, 0.5, theta, k,
                                            track_arc_time=True)
                t_geo = traj.arc_time[-1]
                ref = chart_embed(closed_form_flow(s0, t_geo, k), theta, k)
                got = traj.final()
                assert abs(got.x - ref.x) < 1e-8
                assert abs(got.y - ref.y) < 1e-8
                assert abs(got.z - ref.z) < 1e-8

    def test_exit_flagged_at_radius(self):
        for k in KS:
            traj = integrate_chart_flow(CartesianChartState(0.2, 0.0, 0.3),
                                        5.0, 1.0, k, eps=0.5)
            assert traj.exited
            assert traj.exit_time == traj.t[-1]
            assert chart_extract(traj.final(), 1.0, k).r == pytest.approx(
                0.5, abs=1e-9)

    def test_exit_matches_closed_form_exit(self):
        # rk45's dense-output exit and the closed-form root, through the
        # time change
        s0 = ChartState(0.2, 0.4, 0.3)
        for k in KS:
            traj = integrate_chart_flow(chart_embed(s0, 1.0, k), 50.0, 1.0, k,
                                        eps=0.5, track_arc_time=True)
            with pytest.raises(ChartExitError) as ei:
                closed_form_flow(s0, 50.0, k, eps=0.5)
            t_exit = ei.value.exit_time
            assert traj.arc_time[-1] == pytest.approx(t_exit, abs=1e-8)
            ref = chart_embed(closed_form_flow(s0, t_exit, k), 1.0, k)
            got = traj.final()
            assert abs(got.x - ref.x) < 1e-8
            assert abs(got.y - ref.y) < 1e-8
            assert abs(got.z - ref.z) < 1e-8

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("r", [0.5 + 1e-9, 0.7, 1.5])
    @pytest.mark.parametrize("T", [2.0, -2.0])
    @pytest.mark.parametrize("record", [True, False])
    def test_start_outside_chart_exits_at_zero(self, k, r, T, record):
        # both routes leave at time 0.0 from the start itself: closed_form_flow
        # through ChartExitError, the integrator with the start as its one
        # record (before, rk45 bisected a first step and reported 6e-27)
        s0 = ChartState(r, 0.4, 2.0)
        c0 = chart_embed(s0, 1.0, k)
        with pytest.raises(ChartExitError) as ei:
            closed_form_flow(s0, T, k, eps=0.5)
        assert ei.value.exit_time == 0.0 and ei.value.state == s0
        traj = integrate_chart_flow(c0, T, 1.0, k, eps=0.5, record=record,
                                    track_arc_time=True)
        assert traj.exited and traj.exit_time == 0.0
        assert traj.t.tolist() == [0.0] and traj.arc_time.tolist() == [0.0]
        assert traj.final() == c0

    @pytest.mark.parametrize("k", KS)
    def test_start_outside_chart_at_time_zero(self, k):
        # a run of no time stays at its start on both routes, inside the
        # chart or not
        s0 = ChartState(0.7, 0.4, 2.0)
        c0 = chart_embed(s0, 1.0, k)
        assert closed_form_flow(s0, 0.0, k, eps=0.5) == s0
        traj = integrate_chart_flow(c0, 0.0, 1.0, k, eps=0.5)
        assert not traj.exited and traj.exit_time is None
        assert traj.t.tolist() == [0.0] and traj.final() == c0

    def test_export_format(self, tmp_path):
        traj = integrate_chart_flow(CartesianChartState(0.1, 0.0, 1.0),
                                    0.5, 1.0, 0)
        out = tmp_path / "traj.txt"
        export_trajectory(traj, out)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == len(traj.t)
        first = lines[0].split()
        assert len(first) == 4
        assert float(first[1]) == pytest.approx(0.1)

    @pytest.mark.parametrize("opts", [
        {"coords": "bogus"}, {"coords": "polar"},
        {"coords": "polar", "theta": 1.0}, {"coords": "polar", "k": 0}],
        ids=["bogus", "polar", "polar-no-k", "polar-no-theta"])
    def test_export_bad_coords_leaves_file(self, tmp_path, opts):
        # an unknown coords must not write chart rows, nor "polar" without
        # theta or k truncate the file
        traj = integrate_chart_flow(CartesianChartState(0.1, 0.0, 1.0),
                                    0.5, 1.0, 0)
        out = tmp_path / "traj.txt"
        out.write_text("keep me\n")
        with pytest.raises(ValueError, match="coords"):
            export_trajectory(traj, out, **opts)
        assert out.read_text() == "keep me\n"


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-6, 2.0), st.floats(0, 100), st.floats(0, TWO_PI),
       st.floats(0.05, 3.0))
def test_chart_round_trip_property(r, gamma, beta, theta):
    s = ChartState(r, gamma % (2 * theta), beta)
    back = chart_inverse(chart_forward(s, theta), theta)
    assert back.r == pytest.approx(s.r, rel=1e-12, abs=1e-12)
    assert back.gamma == pytest.approx(s.gamma, abs=1e-9 * max(1, theta))


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0, -0.5])
@pytest.mark.parametrize("k", KS)
def test_bad_chart_radius_rejected(eps, k):
    with pytest.raises(GeometryError):
        closed_form_flow(ChartState(0.3, 0.0, 1.0), 1.0, k, eps=eps)
    with pytest.raises(GeometryError):
        closed_form_flow(ChartState(0.3, 0.0, 1.0), 0.0, k, eps=eps)
    with pytest.raises(GeometryError):
        integrate_chart_flow(CartesianChartState(0.2, 0.0, 0.3), 1.0, 1.0, k,
                             eps=eps)
    with pytest.raises(GeometryError):
        reparameterization_factor(0.3, k, eps)


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in a call that runs longer than ``seconds``.

    A bad tolerance used to send the step loop round forever; this keeps
    such a regression a failing test instead of a hung suite.
    """
    def expire(signum, frame):
        raise TimeoutError(f"call did not return within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


# (keyword, value); the vertex-circle state has x = y = 0, where atol = 0
# makes the error norm 0/0
BAD_BOUNDS = [("T", math.nan), ("T", math.inf), ("T", -math.inf),
              ("atol", 0.0), ("atol", -1e-12), ("atol", math.nan),
              ("atol", math.inf), ("rtol", -1e-10), ("rtol", math.nan),
              ("rtol", math.inf)]


@pytest.mark.parametrize("name,value", BAD_BOUNDS,
                         ids=[f"{n}={v}" for n, v in BAD_BOUNDS])
@pytest.mark.parametrize("k", KS)
def test_bad_integration_bounds_rejected(name, value, k):
    kw = {"T": 5.0, "rtol": 1e-10, "atol": 1e-12}
    kw[name] = value
    T = kw.pop("T")
    with deadline(5.0), pytest.raises(ValueError, match="finite"):
        integrate_chart_flow(CartesianChartState(0.0, 0.0, 0.3), T, 1.0, k,
                             **kw)
    if name == "T":
        # a non-finite time must not give a nan or inf state
        for eps in (None, 1.0):
            with pytest.raises(ValueError, match="finite"):
                closed_form_flow(ChartState(0.5, 0.0, 1.0), T, k, eps=eps)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_initial_state_rejected(bad):
    with deadline(5.0), pytest.raises(GeometryError, match="finite"):
        integrate_chart_flow(CartesianChartState(0.1, bad, 0.3), 5.0, 1.0, 0)
    # in every curvature and every coordinate, also for t = 0
    for k in KS:
        for state in (ChartState(bad, 0.0, 1.0), ChartState(0.5, bad, 1.0),
                      ChartState(0.5, 0.0, bad)):
            for t in (0.0, 1.0):
                with pytest.raises(GeometryError, match="finite"):
                    closed_form_flow(state, t, k)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", range(3))
def test_non_finite_field_state_rejected(bad, slot):
    # the fields used to return nan, and the chart field raised a bare
    # ValueError for an infinite z
    polar = [0.5, 0.1, 1.0]
    chart = [0.1, 0.2, 1.0]
    polar[slot] = chart[slot] = bad
    for k in KS:
        with pytest.raises(GeometryError, match="polar state must be finite"):
            polar_velocity_field(ChartState(*polar), k)
        with pytest.raises(GeometryError, match="chart state must be finite"):
            chart_velocity_field(CartesianChartState(*chart), 1.0, k)


def test_sphere_chart_state_outside_disc_rejected():
    with pytest.raises(GeometryError, match="domain"):
        integrate_chart_flow(CartesianChartState(0.8, 0.7, 0.3), 1.0, 1.0, 1)


class TestOutOfDomainStage:
    # the first step, h = T / 128, puts a stage outside the unit disc
    THETA = 0.3781377626109931
    EPS = 0.4611596316608205
    S0 = ChartState(0.3664377164336188, 0.2618977251957367, 4.739074079932266)

    def test_long_first_step_rejected_not_raised(self):
        c0 = chart_embed(self.S0, self.THETA, 1)
        traj = integrate_chart_flow(c0, -51.424240848036895, self.THETA, 1,
                                    eps=self.EPS)
        short = integrate_chart_flow(c0, -5.0, self.THETA, 1, eps=self.EPS)
        assert traj.exited and short.exited
        assert traj.exit_time == pytest.approx(short.exit_time, abs=1e-11)
        assert chart_extract(traj.final(), self.THETA, 1).r == pytest.approx(
            self.EPS, abs=1e-9)

    def test_field_is_nan_outside_domain(self):
        assert all(math.isnan(v) for v in
                   O.field_eval(O.FIELD_CHART, 1, 2.0, (0.8, 0.7, 0.3)))
        assert all(math.isnan(v) for v in
                   O.field_eval(O.FIELD_CHART_ARC, 1, 2.0, (0.8, 0.7, 0.3)))
        assert all(math.isnan(v) for v in
                   O.field_eval(O.FIELD_POLAR, 0, 0.0, (0.0, 0.2, 1.0)))
        # on the unit circle itself the chart field is still defined
        assert O.field_eval(O.FIELD_CHART, 1, 2.0, (0.6, 0.8, 0.0)) == (
            0.0, 0.0, -0.0, 0.0)


@pytest.mark.parametrize("T", [0.999, 2.9, -2.9])
@pytest.mark.parametrize("k", KS)
def test_run_to_end_time_does_not_underflow(T, k):
    # the step clipped to end at T lands an ulp short of it here; the
    # leftover step must not count as a step-size underflow
    traj = integrate_chart_flow(CartesianChartState(0.0, 0.0, 0.0), T, 1.0, k)
    assert not traj.exited
    assert traj.t[-1] == pytest.approx(T, rel=1e-15)
    traj = integrate_chart_flow(
        CartesianChartState(-0.17869914361470923, 0.26274306518159357,
                            0.5686600701670019), 0.02464925081584105, 1.0, 0)
    assert traj.t[-1] == pytest.approx(0.02464925081584105, rel=1e-15)


@pytest.mark.parametrize("record", [True, False])
def test_hyperbolic_run_off_to_infinity_is_a_geometry_error(record):
    # without eps the chart field's radius grows without bound here, until
    # the step size underflows
    theta = 2.0197965557679267
    c0 = chart_embed(ChartState(0.17140402119374165, 0.26818620159599327,
                                0.10384619671527331), theta, -1)
    with pytest.raises(GeometryError, match=r"rescaled time 2\.\d+, chart "
                       r"radius \d\.\d+e\+\d\d"):
        integrate_chart_flow(c0, 20.0, theta, -1, record=record)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.05, 2.5), st.floats(0.0, 0.999), st.floats(0.0, 2.0),
       st.floats(0.0, TWO_PI), st.floats(0.1, 60.0), st.booleans(),
       st.floats(0.3, 3.0))
def test_sphere_chart_flow_exits_or_finishes(theta, rf, gf, beta, T, back,
                                             eps_scale):
    # long first steps from anywhere in the chart never raise: a stage
    # outside the unit disc is a rejected step
    eps = min(0.5 * eps_scale, 1.5)
    s0 = ChartState(rf * eps, gf * theta, beta)
    traj = integrate_chart_flow(chart_embed(s0, theta, 1),
                                -T if back else T, theta, 1, eps=eps)
    rad = float(np.hypot(*traj.states[-1, :2]))
    assert rad <= min(math.sin(eps) if eps < math.pi / 2 else 1.0,
                      1.0 - 1e-12) + 1e-12


@pytest.mark.parametrize("k", KS)
def test_run_ends_exactly_at_end_time(k):
    # the last step is clipped to h = T - t, and t + h can round past T;
    # the run must still end at T, in both directions of time
    rng = np.random.default_rng(7 + k)
    for i in range(300):
        T = float(rng.uniform(0.01, 4.0)) * (1 if i % 3 else -1)
        c0 = CartesianChartState(0.0, 0.0, float(rng.uniform(0.0, math.pi)))
        traj = integrate_chart_flow(c0, T, 1.0, k, record=bool(i % 2))
        assert traj.t[-1] == T
    traj = integrate_chart_flow(CartesianChartState(0.0, 0.0, 0.0),
                                0.18999999999999997, 1.0, 1)
    assert traj.t[-1] == 0.18999999999999997


@pytest.mark.parametrize("bad", [0, -3, 2.5, True, None, "5"])
def test_bad_max_records_rejected(bad):
    with pytest.raises(ValueError, match="max_records"):
        integrate_chart_flow(CartesianChartState(0.1, 0.0, 0.3), 1.0, 1.0, 0,
                             max_records=bad)


# ---------------------------------------------------------------------------
# rk45 against the integrator it replaced (tests/kernel_oracle.py)
# ---------------------------------------------------------------------------

def _rk45_run(rk45, field, k, pf, y0, t1, rlo, rhi, cap, record):
    tbuf = np.full(cap, np.nan)
    ybuf = np.full((cap, len(y0)), np.nan)
    status, nrec, t_end, y_end = rk45(field, k, pf, y0, 0.0, t1, 1e-9,
                                      1e-12, rlo, rhi, tbuf, ybuf, record)
    return (status, nrec, t_end.hex(), [x.hex() for x in y_end],
            [x.hex() for x in tbuf[:nrec]],
            [[x.hex() for x in row] for row in ybuf[:nrec]])


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(["chart", "arc-time", "backward", "no-record",
                             "buffer-full"]),
       k=st.sampled_from(KS), theta=st.floats(0.3, 3.0),
       rf=st.floats(0.0, 0.95), gf=st.floats(0.0, 1.0),
       beta=st.floats(0.0, TWO_PI), T=st.floats(0.5, 30.0),
       eps=st.floats(0.2, 1.2))
def test_rk45_matches_oracle(case, k, theta, rf, gf, beta, T, eps):
    pf = math.pi / theta
    rhi = K.sink(k, eps) if k != 0 else eps
    if k == 1:
        rhi = min(rhi, 1.0 - 1e-12)
    c0 = chart_embed(ChartState(rf * eps, gf * theta, beta), theta, k)
    y0 = (c0.x, c0.y, c0.z)
    field, cap, record, t1 = K.FIELD_CHART, 4096, 1, T
    if case == "arc-time":
        field, y0 = K.FIELD_CHART_ARC, y0 + (0.0,)
    elif case == "backward":
        t1 = -T
    elif case == "no-record":
        cap, record = 1, 0
    elif case == "buffer-full":
        cap = 1 + int(4 * gf)
    args = (field, k, pf, y0, t1, -K.INF, rhi, cap, record)
    assert _rk45_run(K.rk45, *args) == _rk45_run(O.rk45, *args)


def test_rk45_arc_time_near_the_unit_circle_matches_oracle(monkeypatch):
    # FIELD_CHART_ARC on the sphere from just inside the unit circle: long
    # steps put stages outside the field's domain and are rejected, and
    # every output bit, the arc component included, is the oracle's
    outside = []
    field_eval = O.field_eval

    def counted(*args):
        value = field_eval(*args)
        outside.append(math.isnan(value[0]))
        return value

    monkeypatch.setattr(O, "field_eval", counted)
    rng = np.random.default_rng(3)
    ends = set()
    for _ in range(12):
        r = 1.0 - 10.0 ** rng.uniform(-6.0, -2.0)
        g, z = rng.uniform(0.0, TWO_PI, 2)
        y0 = (r * math.cos(g), r * math.sin(g), float(z), 0.0)
        for t1 in (3.0, -3.0):
            args = (K.FIELD_CHART_ARC, 1, math.pi / 0.7, y0, t1, -K.INF,
                    K.INF, 512, 1)
            got = _rk45_run(K.rk45, *args)
            assert got == _rk45_run(O.rk45, *args)
            ends.add(got[0])
    assert any(outside) and K.RK_DONE in ends


# ---------------------------------------------------------------------------
# the sphere's radial bound and input branches of the flow entries
# ---------------------------------------------------------------------------

class TestSphereRadiusBound:
    """On the sphere every flow entry requires r < pi: beyond it sin r and
    cos r measure the distance to the antipode, not to the vertex."""

    @pytest.mark.parametrize("r", [math.pi, 4.0])
    def test_polar_field(self, r):
        # before, r = pi gave angular rates of 6.9e15 and r = 4 rates of
        # the wrong sign
        with pytest.raises(GeometryError, match="must be < pi"):
            polar_velocity_field(ChartState(r, 0.1, 1.0), 1)

    @pytest.mark.parametrize("r", [math.pi, 3.5])
    def test_reparameterization_factor_inside_the_chart(self, r):
        # before, r = 3.5 inside a chart of radius 8 gave -0.351, a
        # negative time change, and beyond eps the factor read 1
        with pytest.raises(GeometryError, match="must be < pi"):
            reparameterization_factor(r, 1, 8.0)
        with pytest.raises(GeometryError, match="must be < pi"):
            reparameterization_factor(r, 1, 1.0)

    @pytest.mark.parametrize("r", [math.pi, 4.0])
    def test_closed_form_flow(self, r):
        with pytest.raises(GeometryError, match="must be < pi"):
            closed_form_flow(ChartState(r, 0.1, 1.0), 0.5, 1)

    @pytest.mark.parametrize("k", [0, -1])
    def test_the_bound_is_the_spheres_alone(self, k):
        s = ChartState(4.0, 0.1, 1.0)
        chart_embed(s, 1.0, k)
        closed_form_flow(s, 0.5, k)
        polar_velocity_field(s, k)
        assert reparameterization_factor(4.0, k, 8.0) > 0.0


class TestHyperbolicFloat64Range:
    """Past an argument of about 710, sinh and cosh leave the float64
    range: the flow entries raise GeometryError, not OverflowError."""

    CALLS = {
        "chart_embed": lambda: chart_embed(ChartState(800, 0.1, 1), 1, -1),
        "polar_velocity_field":
            lambda: polar_velocity_field(ChartState(800, 0.1, 1), -1),
        "reparameterization_factor":
            lambda: reparameterization_factor(800, -1, 1000),
        "closed_form_flow-t":
            lambda: closed_form_flow(ChartState(0.5, 0.1, 1), 800, -1),
        "closed_form_flow-r":
            lambda: closed_form_flow(ChartState(800, 0.1, 1), 0.1, -1),
        "closed_form_flow-eps":
            lambda: closed_form_flow(ChartState(0.5, 0.1, 1), 0.3, -1,
                                     eps=800),
        "integrate_chart_flow":
            lambda: integrate_chart_flow(CartesianChartState(0.1, 0.1, 1),
                                         0.5, 1, -1, eps=800),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_overflow_is_a_geometry_error(self, name):
        with pytest.raises(GeometryError, match="float64 range"):
            self.CALLS[name]()

    def test_below_the_limit_finite(self):
        s = ChartState(700.0, 0.1, 1.0)
        assert math.isfinite(chart_embed(s, 1.0, -1).x)
        assert np.isfinite(polar_velocity_field(s, -1)).all()
        assert reparameterization_factor(700.0, -1, 1401.0) == math.sinh(700.0)
        assert math.isfinite(
            closed_form_flow(ChartState(0.5, 0.1, 1.0), 700.0, -1).r)


@pytest.mark.parametrize("r0", [0.0, -0.1])
def test_closed_form_flow_needs_positive_radius(r0):
    for k in KS:
        with pytest.raises(SingularFieldError, match="requires r > 0"):
            closed_form_flow(ChartState(r0, 0.1, 1.0), 0.5, k)


@pytest.mark.parametrize("k", [0, -1])
def test_outward_radial_flow(k):
    # straight out from the vertex, r grows by t; gamma and beta stay
    s = closed_form_flow(ChartState(0.5, 0.2, 0.0), 0.25, k)
    assert (s.r, s.gamma, s.beta) == (0.75, 0.2, 0.0)


@pytest.mark.parametrize("s0, eps", [
    # the great circle perpendicular to the radius at r = 1.5 keeps
    # r in [1.5, pi - 1.5], inside a chart of radius 3
    (ChartState(1.5, 0.0, math.pi / 2), 3.0),
    # every r on the sphere is below pi < eps
    (ChartState(1.0, 0.0, 0.3), 3.5)])
def test_sphere_geodesic_that_never_leaves_the_chart(s0, eps):
    for t in (2.0, -5.0):
        assert closed_form_flow(s0, t, 1, eps=eps) == \
            closed_form_flow(s0, t, 1)


def test_sphere_chart_radius_above_one_rejected():
    with pytest.raises(GeometryError, match="exceeds 1"):
        chart_extract(CartesianChartState(0.9, 0.9, 0.0), 1.0, 1)


def test_full_record_buffer_raises():
    # the start is the first record, so the first accepted step overflows
    with pytest.raises(RuntimeError, match="buffer full"):
        integrate_chart_flow(CartesianChartState(0.1, 0.1, 1.0), 0.5, 1.0,
                             0, max_records=1)


@pytest.mark.parametrize("k", KS)
def test_export_polar_rows(tmp_path, k):
    # each polar row is chart_extract of the chart row at the same time;
    # 17 significant digits give back every float exactly
    traj = integrate_chart_flow(CartesianChartState(0.05, 0.02, 2.0), 0.3,
                                1.2, k)
    chart_path, polar_path = tmp_path / "chart.txt", tmp_path / "polar.txt"
    export_trajectory(traj, chart_path)
    export_trajectory(traj, polar_path, theta=1.2, k=k, coords="polar")
    chart = np.loadtxt(chart_path)
    polar = np.loadtxt(polar_path)
    assert polar.shape == chart.shape == (len(traj.t), 4)
    np.testing.assert_array_equal(polar[:, 0], chart[:, 0])
    for (_, x, y, z), (_, r, gamma, beta) in zip(chart, polar):
        st = chart_extract(CartesianChartState(x, y, z), 1.2, k)
        assert (r, gamma, beta) == (st.r, st.gamma, st.beta)
