"""Radial profiles of the cohomogeneity-one families and their integrals.

Four profile equations, written autonomously with r(0) = rho, r'(0) = 0:

  ch_sphere:  r'' sinh r cosh r = (1 - r'^2)(sinh^2 r + n cosh^2 r)
  ch_tube:    r'' sinh r cosh r = (1 - r'^2)(cosh^2 r + n sinh^2 r)
  ch_horo:    closed form r(s) = rho cosh^{1/(n+1)}((n+1) s)
  cp_sphere:  r'' sin r cos r  = (1 - r'^2)(n cos^2 r - sin^2 r)

Each ODE conserves an energy integral; for example ch_sphere conserves
(1 - r'^2) cosh^2 r sinh^2n r.  Because r' -> 1 exponentially fast for the
hyperbolic families, the system is integrated in the variables (r, u) with
r' = tanh u, which turns the equations into the cancellation-free form

  r' = tanh u,   u' = tanh r + n coth r        (ch_sphere)
  r' = tanh u,   u' = coth r + n tanh r        (ch_tube)
  r' = tanh u,   u' = n cot r - tan r          (cp_sphere)

and makes the conserved quantity cosh^2 r sinh^2n r / cosh^2 u, which is
evaluated in log space.  The phase speed of every family is
f(s) = a / denom(r)^{n+1} with a = sqrt(energy constant).

Each family is one row of a table (``_row``): a pair (S, C) = (sinh, cosh),
(sin, cos) or, for ch_horo, (r, 1) with S' = C, C' = sigma S and T = S / C;
the exponents (alpha, beta) of the first integral (1 - r'^2) S^{2 alpha}
C^{2 beta}; and the phase integrands sign a S^p C^q as (sign, p, q).  The
energy constant, u' = alpha / T + sigma beta T, r'' = (1 - r'^2) u', the
energy residual's logs and every phase integrand with its derivative
dg/dr = g (p / T + sigma q T) are read from the row; ch_horo keeps its
closed form and first integral r'^2 + a^2 / r^{2n} = r^2.  ``PAIRS`` gives
a tag's pair without a rho; its ``jets`` are what every lift's curve
factor multiplies, the real geodesic (the a = 0 member) included.

The ODEs are solved by ``solve_ivp``, the in-repo DOP853 of ``dop853``
(bit-identical to scipy's), imported on the first solve.  Each profile is
one solve over [0, s_max]; s < 0 is its exact mirror (r(-s), -u(-s)),
since the system is autonomous, r' = tanh u is odd in u and u' = slope(r)
does not read u, and DOP853 from the mirrored state negates every stage
sum exactly (``solve_profile``).  Interpolants use ``Spline``, a numpy
piecewise polynomial bit-identical to scipy's ``CubicHermiteSpline``.
Cumulative integrals integrate the same cubic Hermite pieces exactly and
sum them at the knots, with one Richardson step (``cumulative_integral``).
The s- and t-forms of the total curvature integral use ``quad``, an
adaptive 21-point Gauss-Kronrod rule over numpy arrays.  Nothing here
imports scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .domain import (
    DEFAULT_ODE_TOL,
    ODE_TOL_RANGE,
    PROFILE_FAMILIES as FAMILY_TAGS,
    DetectionFailure,
    GeometryError,
    IntegrationFailure,
    InvalidArgument,
    NeedsLargerDomain,
)

__all__ = [
    "FAMILY_TAGS",
    "PAIRS",
    "Spline",
    "ProfileFamily",
    "ProfileSolution",
    "PhaseIntegrals",
    "SigmaIntegralSpec",
    "SIGMA_TAIL_TOL",
    "DEFAULT_ODE_TOL",
    "FINE_ODE_TOL",
    "ODE_TOL_RANGE",
    "EQUILIBRIUM_PROXIMATE",
    "PeriodResult",
    "IntegrationFailure",
    "NeedsLargerDomain",
    "DetectionFailure",
    "solve_profile",
    "energy_residual",
    "cumulative_integral",
    "phase_integrals",
    "embedding_phase_sup",
    "sphere_volume",
    "sigma_integral_thm1",
    "sigma_integral_numeric",
    "detect_period",
]


def solve_ivp(*args, **kwargs):
    """``dop853.solve_ivp``, imported on the first solve.

    Compiling the solver module takes about 6 ms where no bytecode cache is
    kept; commands that only read stored profiles never pay it.
    """
    from .dop853 import solve_ivp as dop853_solve_ivp

    return dop853_solve_ivp(*args, **kwargs)


# The 21-point Gauss-Kronrod rule of QUADPACK's qk21: nodes on [-1, 1], the
# 10-point Gauss weights at the odd nodes and the 21-point Kronrod weights, as
# scipy's ``integrate/_quad_vec.py::_quadrature_gk21`` lists them (scipy's BSD
# license is quoted in ``dop853``).
_GK21_NODES = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0,
    -0.148874338981631210884826001129720,
    -0.294392862701460198131126603103866,
    -0.433395394129247190799265943165784,
    -0.562757134668604683339000099272694,
    -0.679409568299024406234327365114874,
    -0.780817726586416897063717578345042,
    -0.865063366688984510732096688423493,
    -0.930157491355708226001207180059508,
    -0.973906528517171720077964012084452,
    -0.995657163025808080735527280689003,
)
_GK21_GAUSS = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
    0.295524224714752870173892994651338,
    0.269266719309996355091226921569469,
    0.219086362515982043995534934228163,
    0.149451349150580593145776339657697,
    0.066671344308688137593568809893332,
)
_GK21_KRONROD = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
    0.147739104901338491374841515972068,
    0.142775938577060080797094273138717,
    0.134709217311473325928054001771707,
    0.123491976262065851077958109831074,
    0.109387158802297641899210590325805,
    0.093125454583697605535065465083366,
    0.075039674810919952767043140916190,
    0.054755896574351996031381300244580,
    0.032558162307964727478818972459390,
    0.011694638867371874278064396062192,
)
_GK21_X = np.array(_GK21_NODES)
_GK21_K = np.array(_GK21_KRONROD)
_GK21_G = np.zeros(21)
_GK21_G[1::2] = _GK21_GAUSS


def _gk21_panels(f, lo, hi):
    """Kronrod values and QUADPACK error estimates of f on the panels
    [lo, hi], all panels' nodes in one call of f."""
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fx = np.asarray(f((c[:, None] + h[:, None] * _GK21_X).ravel()), dtype=float)
    fx = fx.reshape(len(lo), 21)
    k = fx @ _GK21_K
    width = np.abs(h)
    err = np.abs(fx @ _GK21_G - k) * width
    # qk21's scaling by the spread about the mean, and its roundoff floor
    spread = (np.abs(fx - 0.5 * k[:, None]) @ _GK21_K) * width
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = spread * np.minimum(1.0, (200.0 * err / spread) ** 1.5)
    err = np.where((spread != 0) & (err != 0), scaled, err)
    err = np.maximum(err, 50.0 * np.finfo(float).eps * (np.abs(fx) @ _GK21_K) * width)
    return k * h, err


def quad(f, a, b, epsabs=1.49e-8, epsrel=1.49e-8, limit=50):
    """(integral of f over [a, b], error estimate) by adaptive 21-point
    Gauss-Kronrod quadrature.

    ``f`` takes an array of points and returns the values there.  Each round
    evaluates every new panel in one call of ``f`` and bisects each panel
    whose error estimate exceeds its width's share of the tolerance
    max(epsabs, epsrel |I|), until the summed estimate is within it.  Raises
    ``IntegrationFailure`` when that would take more than ``limit`` panels.
    """
    lo, hi = np.array([float(a)]), np.array([float(b)])
    val, err = _gk21_panels(f, lo, hi)
    while True:
        total, abserr = float(val.sum()), float(err.sum())
        tol = max(epsabs, epsrel * abs(total))
        if abserr <= tol:
            return total, abserr
        # NaN estimates split too, and the worst panel always does
        split = ~(err <= tol * (hi - lo) / (b - a)) | (err == err.max())
        if len(lo) + np.count_nonzero(split) > limit:
            raise IntegrationFailure(
                f"quadrature error {abserr:.2e} above {tol:.2e} with {len(lo)} panels"
                f" (limit {limit})"
            )
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_val, new_err = _gk21_panels(f, new_lo, new_hi)
        keep = ~split
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        val, err = np.concatenate([val[keep], new_val]), np.concatenate([err[keep], new_err])


class Spline:
    """Piecewise polynomial on strictly increasing knots, extrapolated by
    the end pieces.

    ``rows[j, k]`` is the coefficient of (x - knots[j])^k on the piece
    [knots[j], knots[j+1]); a piece's coefficients sit side by side, so an
    evaluation gathers them in one ``take``.  ``Spline.hermite`` builds the
    cubic Hermite interpolant.  It and evaluation follow scipy's
    ``CubicHermiteSpline`` operation for operation, so results are
    bit-identical to it: the piece is
    ``searchsorted(knots, x, "right") - 1`` clipped to [0, N-2], and terms
    are summed lowest power first with powers built by repeated
    multiplication.
    """

    def __init__(self, knots: np.ndarray, rows: np.ndarray):
        self.knots = knots
        # scipy sums a piece's terms starting from 0.0, which turns a -0.0
        # constant term into 0.0
        rows[:, 0] += 0.0
        self.rows = rows
        # searchsorted over the interior knots is the clipped piece index
        self._interior = knots[1:-1]

    @classmethod
    def hermite(cls, x, y, dydx) -> "Spline":
        """Cubic Hermite interpolant of values ``y`` and slopes ``dydx``."""
        x = np.asarray(x, dtype=float)
        return cls(x, _hermite_rows(x, y, dydx, np.empty((len(x) - 1, 4))))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim > 1:  # the gathered rows lead with the points: take them flat
            return self(x.ravel()).reshape(x.shape)
        i = self._interior.searchsorted(x, "right")
        if x.ndim == 0:
            # one point: Python floats round exactly like the array path
            return _sum_powers(self.rows[i].tolist(), float(x) - float(self.knots[i]))
        return _sum_powers(self.rows.take(i, axis=0).T, x - self.knots.take(i))


def _hermite_rows(x, y, dydx, rows):
    """The cubic Hermite coefficients, lowest power first, written into
    ``rows`` (pieces, 4)."""
    y, dydx = np.asarray(y, dtype=float), np.asarray(dydx, dtype=float)
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    rows[:, 0] = y[:-1]
    rows[:, 1] = dydx[:-1]
    rows[:, 2] = (slope - dydx[:-1]) / dx - t
    rows[:, 3] = t / dx
    return rows


def _sum_powers(c, s):
    """sum_k c[k] s^k, lowest power first, powers by repeated multiplication."""
    out = c[0] + c[1] * s
    power = s
    for ck in c[2:]:
        power = power * s
        out = out + ck * power
    return out


def _logcosh(x):
    x = np.abs(np.asarray(x, dtype=float))
    return x + np.log1p(np.exp(-2.0 * x)) - math.log(2.0)


def _logsinh(x):
    # valid for x > 0
    x = np.asarray(x, dtype=float)
    return x + np.log1p(-np.exp(-2.0 * x)) - math.log(2.0)


@dataclass(frozen=True)
class _Trig:
    """(S, C) with S' = C, C' = sigma S and T = S / C, over arrays; ``S0``
    and ``C0`` are the forms the scalar rho has always used."""

    sigma: float
    S: object
    C: object
    T: object
    S0: object
    C0: object
    logs: object = None  # r -> (log S, log C)

    def jets(self, t):
        """Jets of (S(t), C(t)) from the jet t = (t, t', t'')."""
        t0, t1, t2 = t
        S, C, sigma = self.S(t0), self.C(t0), self.sigma
        return (np.stack([S, C * t1, sigma * S * t1**2 + C * t2]),
                np.stack([C, sigma * S * t1, sigma * (C * t1**2 + S * t2)]))


_HYPERBOLIC = _Trig(1.0, np.sinh, np.cosh, np.tanh, math.sinh, math.cosh,
                    lambda r: (_logsinh(r), _logcosh(r)))
_CIRCULAR = _Trig(-1.0, np.sin, np.cos, np.tan, math.sin, math.cos,
                  lambda r: (np.log(np.sin(r)), np.log(np.cos(r))))
# ch_horo: S = r, C = 1; its first integral is not of the (1 - r'^2) form
_FLAT = _Trig(0.0, lambda r: r, np.ones_like, lambda r: r, lambda r: r, lambda r: 1.0)


@dataclass(frozen=True)
class _Row:
    """One profile family; ``speed`` is a / denom^{n+1} = a S^p C^q as (p, q)."""

    trig: _Trig
    alpha: int
    beta: int
    phase_a: tuple
    phase_b: tuple
    speed: tuple


# each family's pair (S, C), which its tag alone decides
PAIRS = {"ch_sphere": _HYPERBOLIC, "ch_tube": _HYPERBOLIC, "ch_horo": _FLAT,
         "cp_sphere": _CIRCULAR}


def _row(tag: str, n: int) -> _Row:
    m = n + 1
    return _Row(PAIRS[tag], *{
        "ch_sphere": (n, 1, (1.0, -m, 0), (1.0, 1 - n, -2), (-m, 0)),
        "ch_tube": (1, n, (1.0, -2, 1 - n), (1.0, 0, -m), (0, -m)),
        "ch_horo": (m, 0, (1.0, -m, 0), (1.0, -m - 2, 0), (-m, 0)),
        "cp_sphere": (n, 1, (-1.0, -m, 0), (1.0, 1 - n, -2), (-m, 0)),
    }[tag])


@dataclass(frozen=True)
class ProfileFamily:
    """Family tag plus parameters (n, rho) of the initial radius."""

    tag: str
    n: int
    rho: float
    # built once: ode_rhs reads it on every right-hand-side evaluation
    row: _Row = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.tag not in FAMILY_TAGS:
            raise InvalidArgument(f"unknown profile family {self.tag!r}")
        if self.n < 2:
            raise InvalidArgument("profile families need n >= 2")
        if not self.rho > 0:
            raise InvalidArgument("rho must be positive")
        if self.tag == "cp_sphere" and not self.rho < math.pi / 2:
            raise InvalidArgument("cp_sphere requires rho < pi/2")
        object.__setattr__(self, "row", _row(self.tag, self.n))
        try:
            finite = math.isfinite(self.energy_constant)
        except OverflowError:  # math.sinh and float powers raise past the largest float
            finite = False
        if not finite:
            raise InvalidArgument(f"rho={self.rho!r} is too large: its energy constant overflows")

    @cached_property
    def energy_constant(self) -> float:
        """S(rho)^{2 alpha} C(rho)^{2 beta}, taken once when the family is made."""
        row = self.row
        return row.trig.S0(self.rho) ** (2 * row.alpha) * row.trig.C0(self.rho) ** (2 * row.beta)

    @property
    def phase_constant(self) -> float:
        """First-integral constant a = sqrt(energy); the phase speed is
        f(s) = a / denom(r)^{n+1}."""
        return math.sqrt(self.energy_constant)

    def slope(self, r):
        """u' = alpha / T + sigma beta T as a function of r for the (r, u)
        system (r' = tanh u)."""
        row = self.row
        if row.trig is _FLAT:
            raise InvalidArgument("ch_horo has no ODE form; use the closed form")
        t = row.trig.T(r)
        return row.alpha / t + row.trig.sigma * row.beta * t

    def ode_rhs(self, _s, y):
        """Right-hand side (r', u') = (tanh u, slope(r)) of the (r, u) system,
        in ``solve_ivp``'s calling convention.

        Called on every stage, so ``slope`` is spelled out in Python floats,
        which round as numpy's scalars do; T stays numpy's tan/tanh, whose
        bits ``math.tan`` does not always share."""
        row = self.row
        if row.trig is _FLAT:
            raise InvalidArgument("ch_horo has no ODE form; use the closed form")
        r, u = y.tolist()
        t = float(row.trig.T(r))
        return (math.tanh(u), row.alpha / t + row.trig.sigma * row.beta * t)

    def second_derivative(self, r, rp):
        """r'' = (1 - r'^2) slope(r) from the profile equation at state
        (r, r') (ch_horo: from its first integral, independent of r')."""
        if self.tag == "ch_horo":
            # differentiating the first integral r'^2 + a^2 / r^{2n} = r^2
            return r + self.n * self.energy_constant / r ** (2 * self.n + 1)
        return (1.0 - rp**2) * self.slope(r)

    def integrands(self, r, *terms):
        """(g, dg/dr, ...) for each g = c S(r)^p C(r)^q of ``terms`` as
        (c, p, q), with dg/dr = g (p / T + sigma q T); S, C and T are taken
        once for all of them."""
        trig = self.row.trig
        S, C, t = trig.S(r), trig.C(r), trig.T(r)
        out = []
        for c, p, q in terms:
            g = c * S**p * C**q
            out += [g, g * (p / t + trig.sigma * q * t)]
        return out


@dataclass
class ProfileSolution:
    """Dense numeric profile on a symmetric grid.

    ``grid`` columns are (s, r, r'); ``u`` carries artanh(r') for the ODE
    families (None for the closed-form ch_horo) and is what makes long-range
    energy evaluation possible.  ``interpolant`` is the cubic Hermite spline
    of (s, r, r'), built here from the grid; downstream quadratures consume
    it.
    """

    family: ProfileFamily
    s: np.ndarray
    r: np.ndarray
    rp: np.ndarray
    u: np.ndarray | None
    energy_constant: float
    tol: float
    u_reconstructed: bool = False
    interpolant: Spline = field(init=False, repr=False)
    _rp_spline: Spline | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for a in (self.s, self.r, self.rp):
            a.setflags(write=False)
        self.interpolant = Spline.hermite(self.s, self.r, self.rp)

    @property
    def s_max(self) -> float:
        return float(self.s[-1])

    def r_of(self, s):
        return self.interpolant(s)

    def rp_of(self, s):
        return self.rp_interpolant()(s)

    def rp_interpolant(self) -> Spline:
        """r' as a cubic Hermite spline with the profile equation's r'' as
        knot slopes, built on first use: O(step^4) between knots, where the
        derivative of ``interpolant`` is O(step^3)."""
        if self._rp_spline is None:
            rpp = self.family.second_derivative(self.r, self.rp)
            self._rp_spline = Spline.hermite(self.s, self.rp, rpp)
        return self._rp_spline


def _closed_form_horo(fam: ProfileFamily, s: np.ndarray):
    m = fam.n + 1
    lc = _logcosh(m * s)
    r = fam.rho * np.exp(lc / m)
    rp = r * np.tanh(m * s)
    return r, rp


# spacing of the profile grid that interpolants and phase integrals read
_GRID_STEP = 2e-3

# the bound of the solves behind reference values: the Legendre curves and
# the s-form curvature integral (at 1e-10 the ch_sphere curve's Legendre
# functional reads about 1e-9, at 1e-11 about 1e-10)
FINE_ODE_TOL = 1e-11


def solve_profile(family: ProfileFamily, s_max: float,
                  tol: float = DEFAULT_ODE_TOL) -> ProfileSolution:
    """Solve the profile equation on [-s_max, s_max].

    ch_horo is evaluated from its closed form; the other families are
    integrated by ``solve_ivp``'s adaptive explicit Runge-Kutta (DOP853) in
    the (r, u) variables with local error <= tol, once, over [0, s_max].
    The grid's s >= 0 half is read from that solve's dense output and its
    s < 0 half at -s with u negated.  That mirror is exactly what a second,
    backward solve from (rho, 0) returns: the system is autonomous with
    r' = tanh u odd in u and u' = slope(r) free of u, so
    (r(-s), -u(-s)) is a solution too, and DOP853 on the mirrored state
    negates every stage sum, step and interpolant value exactly (IEEE
    rounding is symmetric in sign and ``math.tanh`` is odd).  Evenness is
    therefore exact, not a numerical property the grid could test.
    """
    if not ODE_TOL_RANGE[0] <= tol <= ODE_TOL_RANGE[1]:
        raise InvalidArgument("tol must lie in [1e-13, 1e-6]")
    if not 0 < s_max < math.inf:
        raise InvalidArgument(f"s_max must be positive and finite, got {s_max!r}")
    half = max(8, int(math.ceil(s_max / _GRID_STEP)))
    s = np.linspace(-s_max, s_max, 2 * half + 1)

    if family.tag == "ch_horo":
        r, rp = _closed_form_horo(family, s)
        return ProfileSolution(family, s, r, rp, None, family.energy_constant, tol)

    sol = solve_ivp(family.ode_rhs, (0.0, s_max), (family.rho, 0.0),
                    rtol=max(tol, 2.3e-14), atol=tol * 1e-3)
    if not sol.success:
        raise IntegrationFailure(sol.message, last_s=float(sol.t[-1]))

    r = np.empty_like(s)
    u = np.empty_like(s)
    neg = s < 0
    # two half evaluations: one on |s| would hold a second full-size temporary
    yb = sol.sol(-s[neg])
    yf = sol.sol(s[~neg])
    r[neg], u[neg] = yb[0], -yb[1]
    r[~neg], u[~neg] = yf[0], yf[1]
    rp = np.tanh(u)

    if family.tag == "cp_sphere" and (np.any(r <= 0) or np.any(r >= math.pi / 2)):
        raise IntegrationFailure("cp_sphere profile left (0, pi/2)", last_s=None)

    return ProfileSolution(family, s, r, rp, u, family.energy_constant, tol)


def energy_residual(sol: ProfileSolution) -> float:
    """Max deviation of the conserved energy over the grid.

    Normalized by the energy constant for the ODE families; for ch_horo the
    first-integral residual |(r')^2 + rho^{2(n+1)}/r^{2n} - r^2| is absolute.
    The ODE families are evaluated in log space: with r' = tanh u the
    conserved quantity is cosh^2 r sinh^2n r / cosh^2 u (and its analogues),
    so the residual is |expm1(L(s) - L(0))| with L a sum of log terms.

    Solutions rebuilt from serialized (s, r, r') grids carry u recovered by
    artanh, which saturates once 1 - r'^2 drops below double-precision
    resolution of r'; such solutions are certified only where
    1 - r'^2 >= 1e-6 (elsewhere the stored data cannot distinguish drift
    from rounding of r').
    """
    fam = sol.family
    if fam.tag == "ch_horo":
        res = sol.rp**2 + fam.energy_constant / sol.r ** (2 * fam.n) - sol.r**2
        return float(np.max(np.abs(res)))
    keep = np.ones(len(sol.s), dtype=bool)
    if sol.u_reconstructed:
        keep = (1.0 - sol.rp**2) >= 1e-6
        if not np.any(keep):
            keep[:] = True
    r, u = sol.r[keep], sol.u[keep]
    row = fam.row
    log_s, log_c = row.trig.logs(r)
    L = 2.0 * row.alpha * log_s + 2.0 * row.beta * log_c - 2.0 * _logcosh(u)
    log_s, log_c = row.trig.logs(fam.rho)
    Lref = 2.0 * row.alpha * log_s + 2.0 * row.beta * log_c
    return float(np.max(np.abs(np.expm1(L - Lref))))


# ---------------------------------------------------------------------------
# phase integrals


@dataclass
class PhaseIntegrals:
    """Cumulative phase integrals of a profile, a(0) = b(0) = 0.

    ``a_of_s`` and ``b_of_s`` are the signed exponents of the first and
    second components of the corresponding immersion (cp_sphere carries the
    minus sign on a_of_s).  ``phase_speed`` is f(s) = a / denom(r)^{n+1}.
    ``rates(r, r')`` returns the exponents' first and second s-derivatives
    (a', a'', b', b'') in closed form from the profile state.
    """

    family: ProfileFamily
    a_of_s: object
    b_of_s: object
    phase_speed: object
    rates: object


def _hermite_integral(x, y, dydx):
    """t -> integral from 0 to t of the cubic Hermite interpolant of
    (y, dydx) on the knots x, continued by the end pieces outside them.

    Each piece's exact integral h (y_i + y_{i+1}) / 2 + h^2 (y'_i - y'_{i+1})
    / 12 comes from one vectorized pass, and the knot values from one cumsum
    running outward on each side of the piece that holds 0, so no knot
    carries the rounding of the other side's sum.  The part of a piece
    below t is integrated at t only.
    """
    h = np.diff(x)
    pieces = h * (y[:-1] + y[1:]) / 2 + h * h * (dydx[:-1] - dydx[1:]) / 12
    interior = x[1:-1]
    # K[i]: the integral from the start of piece i0 to the start of piece i
    i0 = interior.searchsorted(0.0, "right")
    K = np.zeros(len(x) - 1)
    np.cumsum(pieces[i0:-1], out=K[i0 + 1:])
    K[:i0] = -np.cumsum(pieces[:i0][::-1])[::-1]

    def at(t):
        i = interior.searchsorted(t, "right")
        w, j = h.take(i), i + 1
        u = (t - x.take(i)) / w
        y0, dy = y.take(i), y.take(j) - y.take(i)
        e0, e1 = w * dydx.take(i), w * dydx.take(j)
        # the piece's integral from its knot, in powers of u = (t - x_i) / h
        inner = dy - (2 * e0 + e1) / 3 + u * ((e0 + e1) / 4 - dy / 2)
        return K.take(i) + w * u * (y0 + u * (e0 / 2 + u * inner))

    at0 = at(0.0)
    return lambda t: at(t) - at0


def cumulative_integral(s, vals, derivs):
    """Cumulative integral vanishing at 0, by composite cubic-Hermite
    quadrature on the knots s with one Richardson step (h^4 -> h^6) against
    every other knot; any strictly increasing s will do."""
    fine = _hermite_integral(s, vals, derivs)
    coarse = _hermite_integral(s[::2], vals[::2], derivs[::2])

    def integral(x):
        x = np.asarray(x, dtype=float)
        f = fine(x)
        return f + (f - coarse(x)) / 15.0

    return integral


def phase_integrals(sol: ProfileSolution) -> PhaseIntegrals:
    """Cumulative phase integrals on the solution grid, their integrands
    sign a S^p C^q read from the family's row.

    Composite cubic-Hermite quadrature with one Richardson refinement.
    """
    fam = sol.family
    a, row = fam.phase_constant, fam.row
    (sa, pa, qa), (sb, pb, qb) = row.phase_a, row.phase_b

    def rates(r, rp):
        ga, dga, gb, dgb = fam.integrands(r, (sa * a, pa, qa), (sb * a, pb, qb))
        return ga, dga * rp, gb, dgb * rp

    ga, dga, gb, dgb = rates(sol.r, sol.rp)
    speed = lambda x: fam.integrands(sol.r_of(x), (a, *row.speed))[0]
    return PhaseIntegrals(fam, cumulative_integral(sol.s, ga, dga),
                          cumulative_integral(sol.s, gb, dgb), speed, rates)


# the largest analytic tail bound the embedding phase accepts
_EMBEDDING_TAIL_TOL = 1e-8


def embedding_phase_sup(sol: ProfileSolution) -> float:
    """sup of the embedding phase 2 a int_0^s dt / (cosh^2 r sinh^{n+1} r).

    Estimated as the truncated integral plus an analytic exponential tail
    bound (the integrand is <= C e^{-(n+3) r(s)} and r grows with unit
    asymptotic speed).  The limit stays below pi, which is what forces the
    ch_sphere family to be embedded.
    """
    fam = sol.family
    if fam.tag != "ch_sphere":
        raise InvalidArgument("the embedding phase bound applies to ch_sphere")
    n, a_c = fam.n, fam.phase_constant
    pos = sol.s >= 0
    s, r, rp = sol.s[pos], sol.r[pos], sol.rp[pos]
    g, dg = fam.integrands(r, (2.0 * a_c, -(n + 1), -2))
    value = cumulative_integral(s, g, dg * rp)(s[-1])
    r_m, v = float(r[-1]), float(rp[-1])
    # r(s) >= r_m + v (s - s_max) by convexity; sech^2 <= 4 e^{-2r}
    K = 8.0 * a_c * (2.0 / (1.0 - math.exp(-2.0 * r_m))) ** (n + 1)
    tail = K * math.exp(-(n + 3) * r_m) / ((n + 3) * v)
    if tail > _EMBEDDING_TAIL_TOL:
        raise NeedsLargerDomain(
            f"tail bound {tail:.3e} exceeds {_EMBEDDING_TAIL_TOL:.1e}; solve to larger s_max"
        )
    total = float(value) + tail
    if total >= math.pi:
        raise GeometryError("embedding phase reached pi; family data inconsistent")
    return total


# ---------------------------------------------------------------------------
# the |sigma|^n integral of the ch_sphere family


def sphere_volume(m: int) -> float:
    """Volume c_m of the unit sphere S^m: 2 pi^{(m+1)/2} / Gamma((m+1)/2)."""
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


# the s-form's window [0, s_max]; the relative tolerance of either tail bound
_SIGMA_S_MAX = 10.0
SIGMA_TAIL_TOL = 1e-9


@dataclass(frozen=True)
class SigmaIntegralSpec:
    """Parameters of the total curvature integral of the ch_sphere family.

    The full value is prefactor * energy_factor * I where
    prefactor = 2 ((n+2)(n-1))^{n/2} c_{n-1},
    energy_factor = a^n with a = cosh rho sinh^n rho, and
    I = int_0^inf ds / sinh^{n^2+1} r(s)
      = int_{sinh rho}^inf dt / (t^{n^2-n+1} sqrt(t^{2n+2} + t^{2n} - a^2)).
    """

    n: int
    rho: float
    method: str = "t"

    def __post_init__(self):
        if self.n < 2 or not self.rho > 0:
            raise InvalidArgument("need n >= 2 and rho > 0")
        if self.method not in ("s", "t"):
            raise InvalidArgument("method must be 's' or 't'")

    @property
    def family(self) -> ProfileFamily:
        return ProfileFamily("ch_sphere", self.n, self.rho)

    @property
    def sphere_volume(self) -> float:
        return sphere_volume(self.n - 1)

    @property
    def prefactor(self) -> float:
        n = self.n
        return 2.0 * ((n + 2) * (n - 1)) ** (n / 2.0) * self.sphere_volume

    @property
    def energy_factor(self) -> float:
        """a^n; the curvature closed forms carry the first-integral constant."""
        return self.family.phase_constant ** self.n


def _power_sum(t, t0, m):
    """(t^m - t0^m)/(t - t0) = sum_k t^k t0^{m-1-k}, evaluated stably."""
    acc = np.zeros_like(np.asarray(t, dtype=float))
    for k in range(m):
        acc += t**k * t0 ** (m - 1 - k)
    return acc


def sigma_integral_thm1(spec: SigmaIntegralSpec) -> float:
    """Total curvature integral of the ch_sphere family, either quadrature form.

    s-form: quadrature of sinh^{-(n^2+1)} r(s) along a solved profile with an
    exponential tail bound.  t-form: the hyperelliptic integral from
    t = sinh rho, with the inverse-square-root endpoint removed by the
    substitution t = sinh rho + u^2 and a power-law tail bound.  Both
    quadratures hold a relative tolerance only: the s-form integral is about
    sinh^{-(n^2+1)} rho (1e-21 at n = 6, rho = 2), below any fixed absolute
    one.
    """
    n, rho = spec.n, spec.rho
    m = n * n + 1
    if spec.method == "s":
        sol = solve_profile(spec.family, _SIGMA_S_MAX, tol=FINE_ODE_TOL)
        integrand = lambda s: np.sinh(sol.r_of(s)) ** (-m)
        val, _ = quad(integrand, 0.0, _SIGMA_S_MAX, epsabs=0.0, epsrel=1e-11, limit=200)
        r_m, v = float(sol.r_of(_SIGMA_S_MAX)), float(sol.rp_of(_SIGMA_S_MAX))
        K = (2.0 / (1.0 - math.exp(-2.0 * r_m))) ** m
        tail = K * math.exp(-m * r_m) / (m * v)
        if tail > SIGMA_TAIL_TOL * max(val, 1e-300):
            raise NeedsLargerDomain("increase s_max for the s-form tail")
        total = val + tail
    else:
        t0 = math.sinh(rho)
        E = spec.family.energy_constant

        def integrand(u):
            t = t0 + u * u
            S = _power_sum(t, t0, 2 * n + 2) + _power_sum(t, t0, 2 * n)
            return 2.0 / (t ** (n * n - n + 1) * np.sqrt(S))

        # grow the truncation point until the analytic tail bound is small
        # relative to the accumulated value
        T = max(3.0, 2.0 * t0)
        val = 0.0
        U_prev = 0.0
        for _ in range(12):
            U = math.sqrt(T - t0)
            piece, _ = quad(integrand, U_prev, U, epsabs=0.0, epsrel=1e-11, limit=200)
            val += piece
            tail = T ** (-m) / (m * math.sqrt(max(1.0 - E / T ** (2 * n + 2), 0.5)))
            if tail <= SIGMA_TAIL_TOL * max(val, 1e-300):
                break
            U_prev, T = U, 4.0 * T
        else:
            raise NeedsLargerDomain("t-form tail bound did not reach tolerance")
        total = val + tail
    return spec.prefactor * spec.energy_factor * total


def sigma_integral_numeric(
    s_values: np.ndarray,
    sigma_norms: np.ndarray,
    sqrt_det_g: np.ndarray,
    chart_weights: np.ndarray,
    n: int,
) -> float:
    """Riemann-sum estimate of int |sigma|^n dv on a sampled grid.

    ``sigma_norms`` and ``sqrt_det_g`` have shape (S, M); ``chart_weights``
    is the (M,) product of transverse coordinate steps.  Composite Simpson
    weights are used along s (trapezoid on the last interval if the count is
    even).
    """
    s_values = np.asarray(s_values, dtype=float)
    if len(s_values) < 3:
        raise InvalidArgument(f"the s quadrature needs at least 3 s values, got {len(s_values)}")
    w = _simpson_weights(s_values)
    dens = (sigma_norms**n) * sqrt_det_g
    transverse = dens @ np.asarray(chart_weights, dtype=float)
    return float(w @ transverse)


def _simpson_weights(s: np.ndarray) -> np.ndarray:
    h = s[1] - s[0]
    S = len(s)
    w = np.zeros(S)
    end = S if S % 2 == 1 else S - 1
    w[0:end:2] += 2.0
    w[1:end:2] += 4.0
    w[0] = 1.0
    w[end - 1] = 1.0
    w *= h / 3.0
    if S % 2 == 0:
        w[-2] += h / 2.0
        w[-1] += h / 2.0
    return w


# ---------------------------------------------------------------------------
# periodic orbits of the cp_sphere equation


# orbit size below which a cp_sphere profile reads as equilibrium-proximate:
# the amplitude of a detected period, the spread ptp(r) of a solved profile
EQUILIBRIUM_PROXIMATE = 1e-3


@dataclass(frozen=True)
class PeriodResult:
    period: float
    closure_residual: float
    amplitude: float  # max |r - rho| along the orbit


# how long a period search integrates before it gives up
_PERIOD_SEARCH_TIME = 1000.0


def detect_period(n: int, rho: float) -> PeriodResult | None:
    """First return time T of (r, r') to (rho, 0) for the cp_sphere profile.

    Returns None at the equilibrium radius arctan(sqrt(n)), detected by
    |r''(rho)| < 1e-12.  Otherwise one DOP853 solve from (rho, 0) (rtol
    1e-12, atol 1e-14, dense output) carries an event on u = artanh r'
    that counts only crossings in the direction of r''(rho).  Those are the
    start, where u(0) = 0 exactly, and the return; the half-period crossing
    runs the other way.  The solve stops at the second of them, and T is
    that event's root of the dense interpolant (``dop853.brentq``).  The
    closure residual |r(T) - rho| + |r'(T)| and the amplitude
    max |r - rho| over [0, T] are read from the same interpolant.

    Raises DetectionFailure when the orbit has not returned by
    ``_PERIOD_SEARCH_TIME`` and IntegrationFailure when the solver stops
    early.
    """
    fam = ProfileFamily("cp_sphere", n, rho)
    curvature = fam.second_derivative(rho, 0.0)
    if abs(curvature) < 1e-12:
        return None

    def rp_zero(_, y):
        return y[1]

    rp_zero.direction = math.copysign(1.0, curvature)
    rp_zero.terminal = 2  # the root at s = 0, then the return

    sol = solve_ivp(fam.ode_rhs, (0.0, _PERIOD_SEARCH_TIME), (rho, 0.0),
                    rtol=1e-12, atol=1e-14, event=rp_zero)
    if not sol.success:
        raise IntegrationFailure(sol.message, last_s=float(sol.t[-1]))
    roots = sol.t_events
    if len(roots) < 2:
        raise DetectionFailure(f"no periodic return within {_PERIOD_SEARCH_TIME} time units")
    T = float(roots[1])
    rT, uT = sol.sol(T)
    residual = abs(rT - rho) + abs(math.tanh(uT))
    orbit = sol.sol(np.linspace(0.0, T, 400))[0]
    return PeriodResult(T, float(residual), float(np.max(np.abs(orbit - rho))))
