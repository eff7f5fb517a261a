"""Billiard flow near a vertex: charts, velocity fields, closed-form flow.

Near a vertex with interior angle theta the flow is described in polar
coordinates (r, gamma, beta): distance to the vertex, angular position
around it (mod 2 theta), and the direction angle measured CCW from the
outgoing radial direction.  The chart map

    (r, gamma, beta)  ->  (r cos(gamma pi / theta), r sin(gamma pi / theta), beta)

opens the wedge to a full disc; the circle r = 0 compactifies the vertex.

After rescaling time by sink(k, r) the flow extends smoothly over r = 0.
The extended field in disc coordinates is

    (f x cos z - (pi/theta) y sin z,  f y cos z + (pi/theta) x sin z,  -f sin z),

with f = sqrt(1 - k (x^2 + y^2)).  This expression is exact when the disc
radius is sink(k, r) rather than r itself (for k = 0 the two agree); the
pair :func:`chart_embed` / :func:`chart_extract` provides that
dynamics-consistent radial convention, while :func:`chart_forward` /
:func:`chart_inverse` keep the plain curvature-independent chart.

On the hyperbolic plane, an entry whose sinh or cosh leaves the float64
range (a radius, time or eps past about 710) raises GeometryError, and so
does :func:`closed_form_flow` where a product of cosh values overflows.
Its exit test with ``eps`` stays finite up to there: it takes an arc past
|tanh| = 1/2 as a log, where atanh(y / x) would round to 1 past about 18.7.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from . import _kernels as K
from .errors import ChartExitError, GeometryError, SingularFieldError
from .geometry import check_curvature

TWO_PI = 2.0 * math.pi

# integrate_chart_flow's rk45 tolerances, and the most states a run records
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
MAX_RECORDS = 200000


class ChartState(NamedTuple):
    """Vertex polar coordinates (r, gamma, beta)."""

    r: float
    gamma: float
    beta: float


class CartesianChartState(NamedTuple):
    """Disc chart coordinates (x, y, z) near a vertex."""

    x: float
    y: float
    z: float

    def as_array(self):
        return np.array([self.x, self.y, self.z])


def _check_theta(theta):
    if not theta > 0.0:
        raise GeometryError(f"vertex angle must be positive, got {theta}")


def _check_eps(eps):
    # nan compares false, so an unchecked nan radius would never be left
    if not (math.isfinite(eps) and eps > 0.0):
        raise GeometryError(
            f"chart radius eps must be finite and positive, got {eps}")


def _check_polar(s):
    if not all(math.isfinite(v) for v in (s.r, s.gamma, s.beta)):
        raise GeometryError(f"polar state must be finite, got {s}")


def _check_chart(c):
    if not all(math.isfinite(v) for v in (c.x, c.y, c.z)):
        raise GeometryError(f"chart state must be finite, got {c}")


def _check_sphere_radius(r, k):
    # past the antipode, sin r and cos r fold the state back through it
    if k == 1 and r >= math.pi:
        raise GeometryError("spherical radial coordinate must be < pi")


def _float64_range(fn):
    """fn with the math module's OverflowError raised as GeometryError: on
    the hyperbolic plane sinh and cosh leave the float64 range past an
    argument of about 710 (a radius, a time or eps)."""
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError:
            raise GeometryError(f"{fn.__name__}: the input leaves the float64 "
                                "range of sinh and cosh") from None
    return checked


def chart_forward(s, theta):
    """Wedge-to-disc chart; the circle r = 0 collapses gamma.  The plain
    chart ignores curvature: it is :func:`chart_embed` at k = 0."""
    return chart_embed(s, theta, 0)


def chart_inverse(c, theta):
    return chart_extract(c, theta, 0)


@_float64_range
def chart_embed(s, theta, k):
    """Chart map whose disc radius is sink(k, r).

    This is the radial convention under which the extended field is an
    exact time-rescaling of the geodesic flow; it agrees with
    :func:`chart_forward` for k = 0 and to second order in r otherwise.
    A non-finite state, r < 0, or r >= pi/2 on the sphere raises
    GeometryError; r = 0 is the vertex circle.
    """
    _check_theta(theta)
    check_curvature(k)
    _check_polar(s)
    if s.r < 0.0:
        raise GeometryError(f"radial coordinate must be >= 0, got {s.r}")
    # sin r folds back past pi/2: r and pi - r would embed at one point
    if k == 1 and s.r >= 0.5 * math.pi:
        raise GeometryError("spherical chart radius must be < pi/2, "
                            f"got {s.r}")
    rr = K.sink(k, s.r)
    a = s.gamma * math.pi / theta
    return CartesianChartState(rr * math.cos(a), rr * math.sin(a),
                               s.beta % TWO_PI)


def chart_extract(c, theta, k):
    """Inverse of :func:`chart_embed`; a non-finite state raises
    GeometryError, as does a disc radius above 1 on the sphere."""
    _check_theta(theta)
    check_curvature(k)
    _check_chart(c)
    rr = math.hypot(c.x, c.y)
    if k == 1:
        if rr > 1.0:
            raise GeometryError("chart radius exceeds 1 on the sphere")
        r = math.asin(rr)
    elif k == -1:
        r = math.asinh(rr)
    else:
        r = rr
    if rr == 0.0:
        gamma = 0.0
    else:
        gamma = (math.atan2(c.y, c.x) * theta / math.pi) % (2.0 * theta)
    return ChartState(r, gamma, c.z % TWO_PI)


@_float64_range
def polar_velocity_field(s, k):
    """Geodesic velocity in (r, gamma, beta); singular on r = 0.  A
    non-finite state, or r >= pi on the sphere, raises GeometryError.

    The radial rate is cos(beta) for every curvature; the angular rates
    carry 1/sink(k, r) and are what the compactification removes.
    """
    check_curvature(k)
    _check_polar(s)
    if s.r <= 0.0:
        raise SingularFieldError("polar field is singular at r = 0; "
                                 "use the extended chart field instead")
    _check_sphere_radius(s.r, k)
    sk = K.sink(k, s.r)
    sb = math.sin(s.beta)
    return np.array([math.cos(s.beta), sb / sk, -K.cosk(k, s.r) * sb / sk])


def chart_velocity_field(c, theta, k):
    """Extended (time-rescaled) field in disc coordinates; smooth at r = 0.
    A non-finite state, or x^2 + y^2 >= 1 on the sphere, raises
    GeometryError.  ``rk45`` writes these expressions out at each stage."""
    _check_theta(theta)
    check_curvature(k)
    _check_chart(c)
    x, y, z = float(c.x), float(c.y), float(c.z)
    rr = x * x + y * y
    if k == 1 and rr >= 1.0:
        raise GeometryError("chart field domain requires x^2 + y^2 < 1 on the sphere")
    pf = math.pi / theta
    f = math.sqrt(1.0 - k * rr)
    cz = math.cos(z)
    sz = math.sin(z)
    return np.array([f * x * cz - pf * y * sz, f * y * cz + pf * x * sz,
                     -f * sz])


def singularity_jacobian(z0, theta, k):
    """Derivative of the chart field at the fixed points (0, 0, 0) and (0, 0, pi).

    Returns (jacobian, eigenvalues); the spectra are {1, 1, -1} at z0 = 0
    and {-1, -1, 1} at z0 = pi, independent of theta and curvature.
    """
    _check_theta(theta)
    check_curvature(k)
    cz = math.cos(z0)
    sz = math.sin(z0)
    pf = math.pi / theta
    jac = np.array([[cz, -pf * sz, 0.0],
                    [pf * sz, cz, 0.0],
                    [0.0, 0.0, -cz]])
    eig = np.sort(np.linalg.eigvals(jac).real)
    return jac, eig


@_float64_range
def reparameterization_factor(r, k, eps):
    """Time-rescaling factor: sink(k, r) near the vertex, 1 outside.

    Pure sink on [0, eps/2], constant 1 beyond eps, joined by a smooth
    bump on [eps/2, eps] so the global flow is a C-infinity time change.
    r must be finite and nonnegative, and below pi on the sphere, else
    GeometryError.
    """
    check_curvature(k)
    # a nan r would reach the bump with both weights 0
    if not 0.0 <= r < math.inf:
        raise GeometryError(f"radius must be finite and nonnegative, got {r}")
    _check_eps(eps)
    _check_sphere_radius(r, k)
    if r >= eps:
        return 1.0
    raw = K.sink(k, r)
    if r <= 0.5 * eps:
        return raw
    u = (r - 0.5 * eps) / (0.5 * eps)
    ha = math.exp(-1.0 / u) if u > 0 else 0.0
    hb = math.exp(-1.0 / (1.0 - u)) if u < 1 else 0.0
    w = ha / (ha + hb)
    return (1.0 - w) * raw + w * 1.0


# ---------------------------------------------------------------------------
# closed-form flow of the polar system
# ---------------------------------------------------------------------------

@_float64_range
def closed_form_flow(s0, t, k, eps=None):
    """Exact solution of the polar motion system after time t.

    gamma is returned unwrapped (continuous in t, including full windings
    around the vertex on the sphere); beta stays in its (0, pi) or
    (pi, 2 pi) branch.  With ``eps`` given, leaving r < eps raises
    :class:`ChartExitError` carrying the exit time and state.  A non-finite
    t raises ValueError and a non-finite state GeometryError.
    """
    check_curvature(k)
    if eps is not None:
        _check_eps(eps)
    if not math.isfinite(t):
        raise ValueError(f"flow time must be finite, got {t}")
    _check_polar(s0)
    r0 = s0.r
    if r0 <= 0.0:
        raise SingularFieldError("closed-form flow requires r > 0")
    _check_sphere_radius(r0, k)
    beta0 = s0.beta % TWO_PI
    if t == 0.0:
        return ChartState(r0, s0.gamma, beta0)
    sb0 = math.sin(beta0)
    cb0 = math.cos(beta0)

    if eps is not None:
        _check_chart_window(s0, t, k, eps, sb0, cb0)

    if abs(sb0) < 1e-15:
        return _radial_flow(s0, t, k, cb0)

    if k == 0:
        rt = math.sqrt(r0 * r0 + 2.0 * t * r0 * cb0 + t * t)
        if rt < 1e-300:
            raise SingularFieldError("trajectory reaches the vertex")
        beta_t = math.atan2(r0 * sb0, r0 * cb0 + t) % TWO_PI
        # flat conservation: gamma + beta is exactly invariant
        gamma_t = s0.gamma + (beta0 - beta_t)
        return ChartState(rt, gamma_t, beta_t)

    if k == -1:
        ch = math.cosh(r0) * math.cosh(t) + math.sinh(r0) * math.sinh(t) * cb0
        if not math.isfinite(ch):
            # the cosh product overflowed to inf (or inf - inf = nan), and
            # float multiplication raises nothing
            raise OverflowError
        rt = math.acosh(max(1.0, ch))
        if rt < 1e-300:
            raise SingularFieldError("trajectory reaches the vertex")
        sb_t = sb0 * math.sinh(r0)   # = sin(beta_t) sinh(r_t)
        cb_t = math.cosh(r0) * math.sinh(t) + math.sinh(r0) * math.cosh(t) * cb0
        beta_t = math.atan2(sb_t, cb_t) % TWO_PI
        dgam = math.atan2(math.sin(beta_t) * math.sinh(t) * math.sinh(rt),
                          math.cosh(r0) * math.cosh(rt) - math.cosh(t))
        return ChartState(rt, s0.gamma + dgam, beta_t)

    # sphere: reduce t mod 2 pi and add back the whole windings of gamma
    winds = math.floor(t / TWO_PI)
    tr = t - winds * TWO_PI
    ct = math.cos(tr)
    st = math.sin(tr)
    cr = math.cos(r0) * ct - math.sin(r0) * st * cb0
    cr = min(1.0, max(-1.0, cr))
    rt = math.acos(cr)
    srt = math.sin(rt)
    if srt < 1e-300:
        raise SingularFieldError("trajectory reaches the vertex or its antipode")
    sb_t = sb0 * math.sin(r0)        # = sin(beta_t) sin(r_t), Clairaut constant
    cb_t = math.cos(r0) * st + math.sin(r0) * ct * cb0
    beta_t = math.atan2(sb_t, cb_t) % TWO_PI
    dgam = math.atan2(math.sin(beta_t) * st * srt,
                      ct - math.cos(r0) * cr)
    # gamma is monotone with the sign of the Clairaut constant
    if sb0 > 0.0 and dgam < 0.0:
        dgam += TWO_PI
    elif sb0 < 0.0 and dgam > 0.0:
        dgam -= TWO_PI
    dgam += winds * TWO_PI * (1.0 if sb0 > 0.0 else -1.0)
    return ChartState(rt, s0.gamma + dgam, beta_t)


def _radial_flow(s0, t, k, cb0):
    """Purely radial motion (sin beta = 0): gamma frozen, vertex flips it by pi."""
    sgn = 1.0 if cb0 > 0.0 else -1.0
    x = s0.r + sgn * t
    if k == 1:
        # fold through the vertex (x < 0) and the antipode (x > pi)
        period = 2.0 * math.pi
        xm = x % period
        if xm > math.pi:
            xm = period - xm
            flip = True
        else:
            flip = False
        if xm < 1e-300 or math.pi - xm < 1e-300:
            raise SingularFieldError("radial trajectory hits the vertex or antipode")
        crossed = flip or (x < 0.0) or (x > math.pi)
        beta = (s0.beta + (math.pi if crossed else 0.0))
        return ChartState(xm, s0.gamma + (math.pi if crossed else 0.0), beta % TWO_PI)
    if x < 1e-300:
        if x < 0.0:
            return ChartState(-x, s0.gamma + math.pi,
                              (s0.beta + math.pi) % TWO_PI)
        raise SingularFieldError("radial trajectory hits the vertex")
    return ChartState(x, s0.gamma, s0.beta % TWO_PI)


def _check_chart_window(s0, t, k, eps, sb0, cb0):
    """Raise ChartExitError when r reaches eps between times 0 and t."""
    if s0.r >= eps:
        raise ChartExitError("initial state outside the chart", 0.0, s0)
    exit_time = _scan_exit(s0, t, k, eps, sb0, cb0)
    if exit_time is not None:
        state = closed_form_flow(s0, exit_time * (1 - 1e-12), k)
        raise ChartExitError("trajectory leaves the chart", exit_time, state)


def _scan_exit(s0, t, k, eps, sb0, cb0):
    """First time u between 0 and t at which r(u) = eps, or None.

    Along the geodesic cos_k r(u) = A cos_k u + B sin_k u with
    A = cos_k r0 and B = -k sin_k r0 cos beta0 (for k = 0, r(u)^2 is the
    quadratic r0^2 + 2 u r0 cos beta0 + u^2).  The root is taken in a
    well-conditioned form.  Drop the perpendicular from the vertex to the
    geodesic; its length d has sin_k d = sin_k r0 |sin beta0|.  The state
    sits at signed arc x0 from its foot, and the circle r = eps meets the
    geodesic at arcs +-x_eps, so u = x_eps - x0 forward in time and
    u = -x_eps - x0 backward.  Passing through the vertex on a radial
    trajectory is not an exit.
    """
    if k == 1 and eps > math.pi:
        return None   # r never exceeds pi on the sphere
    sr0 = K.sink(k, s0.r)
    sd = sr0 * sb0
    se = K.sink(k, eps)
    q = (se - sd) * (se + sd)
    if q < 0.0:
        return None   # the geodesic stays inside the disc r < eps
    # on k = -1 q overflows past eps of about 355, its root does not
    ye = math.sqrt(q) if q < math.inf else math.sqrt(se - sd) * math.sqrt(
        se + sd)
    x0 = _arctan_k(k, sr0 * cb0, K.cosk(k, s0.r), sd)
    x_eps = _arctan_k(k, ye, K.cosk(k, eps), sd)
    u = x_eps - x0 if t > 0.0 else -x_eps - x0
    return u if abs(u) <= abs(t) else None


def _arctan_k(k, y, x, sd):
    """The arc whose tan_k = sin_k / cos_k is y / x, where x^2 - k y^2 =
    cos_k^2 d and sd = sin_k d (the perpendicular d of ``_scan_exit``).

    On k = -1 that is atanh(y / x) below |y / x| = 1/2.  From there it is
    log((x + |y|) / cosh d) with the sign of y, as x^2 - y^2 = cosh^2 d,
    written as log(x / cosh d) + log1p(|y / x|) so that no sum overflows:
    it stays finite where y / x rounds to 1 (arcs past about 18.7), up to
    the float64 range of cosh.
    """
    if k == 1:
        return math.atan2(y, x)
    if k == -1:
        q = y / x
        if -0.5 < q < 0.5:
            return math.atanh(q)
        arc = math.log(x / math.hypot(1.0, sd)) + math.log1p(abs(q))
        if not arc < math.inf:
            raise OverflowError   # y overflowed
        return math.copysign(arc, y)
    return y / x


# ---------------------------------------------------------------------------
# numerical integration
# ---------------------------------------------------------------------------

class ChartTrajectory(NamedTuple):
    """Time-stamped chart states from the adaptive integrator."""

    t: np.ndarray
    states: np.ndarray          # (n, 3) chart coordinates (x, y, z)
    exited: bool
    exit_time: float | None
    arc_time: np.ndarray | None = None   # accumulated geodesic time, if tracked

    def final(self):
        row = self.states[-1]
        return CartesianChartState(row[0], row[1], row[2])


@_float64_range
def integrate_chart_flow(c0, T, theta, k, eps=None, track_arc_time=False):
    """Integrate the extended chart field from c0 for rescaled time T.

    States with r = 0 stay on the vertex circle and converge to z = 0 or
    z = pi according to the sign of -sin z.  When the state leaves the disc
    of radius min(eps-equivalent, 1) the trajectory is truncated at the
    crossing and flagged; for T != 0 a start outside that disc exits at
    time 0.0, with itself as the only record, as in :func:`closed_form_flow`.

    The run records every accepted step at DEFAULT_RTOL and DEFAULT_ATOL,
    up to MAX_RECORDS states, and raises RuntimeError when they do not
    fit.  A run that does not leave the chart ends at exactly T.

    T must be finite, else ValueError; c0 must be finite and, on the
    sphere, inside the unit disc, else GeometryError.  A step whose stages
    leave the field's domain (the unit disc on the sphere) is rejected and
    retried with a smaller step, like one whose error is too large.
    Without eps, a trajectory outside every chart radius can run off to
    infinity (on the hyperbolic plane), until the step size underflows;
    that raises GeometryError with the time and radius reached.
    """
    _check_theta(theta)
    check_curvature(k)
    # a non-finite T never ends the step loop or ends it at once
    if not math.isfinite(T):
        raise ValueError(f"integration time must be finite, got {T}")
    _check_chart(c0)
    if k == 1 and c0.x ** 2 + c0.y ** 2 > 1.0:
        raise GeometryError("chart field domain requires x^2 + y^2 <= 1 "
                            "on the sphere")
    pf = math.pi / theta
    rhi = K.INF
    if eps is not None:
        _check_eps(eps)
        rhi = K.sink(k, eps) if k != 0 else eps
    if k == 1:
        rhi = min(rhi, 1.0 - 1e-12)
    dim = 4 if track_arc_time else 3
    y0 = (float(c0.x), float(c0.y), float(c0.z), 0.0)[:dim]
    if T != 0.0 and math.hypot(y0[0], y0[1]) > rhi:
        return ChartTrajectory(np.zeros(1), np.array([y0[:3]]), True, 0.0,
                               np.zeros(1) if track_arc_time else None)
    field = K.FIELD_CHART_ARC if track_arc_time else K.FIELD_CHART
    tbuf = np.empty(MAX_RECORDS)
    ybuf = np.empty((MAX_RECORDS, dim))
    status, nrec, t_end, y_end = K.rk45(field, k, pf, y0, 0.0, T,
                                        DEFAULT_RTOL, DEFAULT_ATOL, -K.INF,
                                        rhi, tbuf, ybuf, 1)
    if status == K.RK_UNDERFLOW:
        raise GeometryError(
            f"integrator step size underflow at rescaled time {t_end:.6g}, "
            f"chart radius {math.hypot(y_end[0], y_end[1]):.6g}: the "
            "trajectory runs off to infinity (pass eps to stop at the chart "
            "exit)")
    if status == K.RK_BUFFER_FULL:
        raise RuntimeError("trajectory buffer full: a run records at most "
                           f"{MAX_RECORDS} states")
    exited = status == K.RK_EXITED
    ys = ybuf[:nrec].copy()
    return ChartTrajectory(t=tbuf[:nrec].copy(), states=ys[:, :3],
                           exited=exited, exit_time=t_end if exited else None,
                           arc_time=ys[:, 3] if track_arc_time else None)


def export_trajectory(traj, path, theta=None, k=None, coords="chart"):
    """Write line-delimited records with 17 significant digits.

    coords = "chart": rows (t, x, y, z).  coords = "polar": rows
    (t, r, gamma, beta) via chart_extract (requires theta and k).  Any
    other coords, or "polar" without theta or k, raises ValueError before
    the file is opened.
    """
    if coords != "chart" and (coords != "polar" or theta is None or k is None):
        raise ValueError("coords must be 'chart', or 'polar' with theta and "
                         f"k; got coords={coords!r}, theta={theta}, k={k}")
    with open(path, "w") as fh:
        for i in range(len(traj.t)):
            x, y, z = traj.states[i]
            if coords == "polar":
                st = chart_extract(CartesianChartState(x, y, z), theta, k)
                row = (traj.t[i], st.r, st.gamma, st.beta)
            else:
                row = (traj.t[i], x, y, z)
            fh.write(" ".join(format(v, ".17g") for v in row) + "\n")
