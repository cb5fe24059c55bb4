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

Interpolants and cumulative integrals use ``Spline``, a numpy piecewise
polynomial bit-identical to scipy's ``CubicHermiteSpline``.  scipy itself
is imported only when an ODE is solved (``solve_ivp``) or an integral is
computed by quadrature (``quad``), so reading a stored profile, building
its interpolant and phase integrals does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model_spaces import GeometryError, InvalidArgument

__all__ = [
    "FAMILY_TAGS",
    "Spline",
    "ProfileFamily",
    "ProfileSolution",
    "PhaseIntegrals",
    "SigmaIntegralSpec",
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

FAMILY_TAGS = ("ch_sphere", "ch_tube", "ch_horo", "cp_sphere")


class IntegrationFailure(GeometryError):
    def __init__(self, message, last_s=None):
        super().__init__(message)
        self.last_s = last_s


class NeedsLargerDomain(GeometryError):
    """An analytic tail bound cannot reach the requested tolerance."""


class DetectionFailure(GeometryError):
    """No periodic return found within the search window."""


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first solve.

    Importing scipy.integrate costs about half a second; commands that only
    read stored profiles never pay it.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on the first quadrature."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


class Spline:
    """Piecewise polynomial on strictly increasing knots, extrapolated by
    the end pieces.

    ``rows[j, k]`` is the coefficient of (x - knots[j])^k on the piece
    [knots[j], knots[j+1]); a piece's coefficients sit side by side, so an
    evaluation gathers them in one ``take``.  ``Spline.hermite`` builds the
    cubic Hermite interpolant.  Construction, evaluation, ``derivative``
    and ``antiderivative`` follow scipy's ``CubicHermiteSpline`` operation
    for operation, so results are bit-identical to it: the piece is
    ``searchsorted(knots, x, "right") - 1`` clipped to [0, N-2], terms are
    summed lowest power first with powers built by repeated multiplication,
    and the antiderivative's integration constants are one sequential sum.
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
        x, y, dydx = (np.asarray(a, dtype=float) for a in (x, y, dydx))
        dx = np.diff(x)
        slope = np.diff(y) / dx
        t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
        rows = np.empty((len(dx), 4))
        rows[:, 0] = y[:-1]
        rows[:, 1] = dydx[:-1]
        rows[:, 2] = (slope - dydx[:-1]) / dx - t
        rows[:, 3] = t / dx
        return cls(x, rows)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        i = self._interior.searchsorted(x, "right")
        if x.ndim == 0:
            # one point: Python floats round exactly like the array path
            return _sum_powers(self.rows[i].tolist(), float(x) - float(self.knots[i]))
        return _sum_powers(self.rows.take(i, axis=0).T, x - self.knots.take(i))

    # columnwise loops below: numpy broadcasts over a length-4 last axis slowly

    def derivative(self) -> "Spline":
        pieces, k = self.rows.shape
        rows = np.empty((pieces, k - 1))
        for j in range(1, k):
            rows[:, j - 1] = self.rows[:, j] * float(j)
        return Spline(self.knots, rows)

    def antiderivative(self) -> "Spline":
        """The antiderivative vanishing at the first knot."""
        pieces, k = self.rows.shape
        rows = np.empty((pieces, k + 1))
        for j in range(k):
            rows[:, j + 1] = self.rows[:, j] / float(j + 1)
        # each piece starts at the value the previous one reaches at its
        # end; those terms c h, c h^2, ..., lowest power first, are summed
        # across all pieces in one sequential cumsum
        h = np.diff(self.knots)[:-1]
        terms = np.empty((pieces - 1, k))
        power = h
        for j in range(k):
            terms[:, j] = rows[:-1, j + 1] * power
            power = power * h
        rows[0, 0] = 0.0
        rows[1:, 0] = np.cumsum(terms)[k - 1::k]
        return Spline(self.knots, rows)


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
class ProfileFamily:
    """Family tag plus parameters (n, rho) of the initial radius."""

    tag: str
    n: int
    rho: float

    def __post_init__(self):
        if self.tag not in FAMILY_TAGS:
            raise InvalidArgument(f"unknown profile family {self.tag!r}")
        if self.n < 2:
            raise InvalidArgument("profile families need n >= 2")
        if not self.rho > 0:
            raise InvalidArgument("rho must be positive")
        if self.tag == "cp_sphere" and not self.rho < math.pi / 2:
            raise InvalidArgument("cp_sphere requires rho < pi/2")

    @property
    def energy_constant(self) -> float:
        n, rho = self.n, self.rho
        if self.tag == "ch_sphere":
            return math.cosh(rho) ** 2 * math.sinh(rho) ** (2 * n)
        if self.tag == "ch_tube":
            return math.sinh(rho) ** 2 * math.cosh(rho) ** (2 * n)
        if self.tag == "ch_horo":
            return rho ** (2 * (n + 1))
        return math.sin(rho) ** (2 * n) * math.cos(rho) ** 2

    @property
    def phase_constant(self) -> float:
        """First-integral constant a = sqrt(energy); the phase speed is
        f(s) = a / denom(r)^{n+1}."""
        return math.sqrt(self.energy_constant)

    def slope(self, r):
        """u' as a function of r for the (r, u) system (r' = tanh u)."""
        n = self.n
        if self.tag == "ch_sphere":
            return np.tanh(r) + n / np.tanh(r)
        if self.tag == "ch_tube":
            return 1.0 / np.tanh(r) + n * np.tanh(r)
        if self.tag == "cp_sphere":
            return n / np.tan(r) - np.tan(r)
        raise InvalidArgument("ch_horo has no ODE form; use the closed form")

    def ode_rhs(self, _s, y):
        """Right-hand side (r', u') = (tanh u, slope(r)) of the (r, u) system,
        in ``solve_ivp``'s calling convention."""
        return (math.tanh(y[1]), self.slope(y[0]))

    def second_derivative(self, r, rp):
        """r'' from the profile equation at state (r, r') (ch_horo: from its
        first integral, independent of r')."""
        n = self.n
        if self.tag == "ch_sphere":
            return (1.0 - rp**2) * (np.sinh(r) ** 2 + n * np.cosh(r) ** 2) / (np.sinh(r) * np.cosh(r))
        if self.tag == "ch_tube":
            return (1.0 - rp**2) * (np.cosh(r) ** 2 + n * np.sinh(r) ** 2) / (np.sinh(r) * np.cosh(r))
        if self.tag == "cp_sphere":
            return (1.0 - rp**2) * (n * np.cos(r) ** 2 - np.sin(r) ** 2) / (np.sin(r) * np.cos(r))
        # ch_horo: differentiating the first integral r'^2 + a^2 / r^{2n} = r^2
        return r + n * self.energy_constant / r ** (2 * n + 1)


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
        return self.interpolant.derivative()(s)

    def rp_interpolant(self) -> Spline:
        """r' as a cubic Hermite spline with the profile equation's r'' as
        knot slopes: O(step^4) between knots, where ``rp_of`` is O(step^3)."""
        return Spline.hermite(self.s, self.rp, self.family.second_derivative(self.r, self.rp))

    def evenness_residual(self) -> float:
        return float(np.max(np.abs(self.r - self.r[::-1])))


def _closed_form_horo(fam: ProfileFamily, s: np.ndarray):
    m = fam.n + 1
    lc = _logcosh(m * s)
    r = fam.rho * np.exp(lc / m)
    rp = r * np.tanh(m * s)
    return r, rp


def solve_profile(
    family: ProfileFamily,
    s_max: float,
    tol: float = 1e-10,
    grid_step: float = 2e-3,
) -> ProfileSolution:
    """Solve the profile equation on [-s_max, s_max].

    ch_horo is evaluated from its closed form; the other families are
    integrated by adaptive explicit Runge-Kutta (DOP853) in the (r, u)
    variables with local error <= tol, forward and backward half-lines
    independently so that evenness stays a genuine numerical property.
    """
    if not (1e-13 <= tol <= 1e-6):
        raise InvalidArgument("tol must lie in [1e-13, 1e-6]")
    if not s_max > 0:
        raise InvalidArgument("s_max must be positive")
    half = max(8, int(math.ceil(s_max / grid_step)))
    s = np.linspace(-s_max, s_max, 2 * half + 1)

    if family.tag == "ch_horo":
        r, rp = _closed_form_horo(family, s)
        return ProfileSolution(family, s, r, rp, None, family.energy_constant, tol)

    halves = []
    for direction in (1.0, -1.0):
        sol = solve_ivp(
            family.ode_rhs,
            (0.0, direction * s_max),
            (family.rho, 0.0),
            method="DOP853",
            rtol=max(tol, 2.3e-14),
            atol=tol * 1e-3,
            dense_output=True,
        )
        if not sol.success:
            raise IntegrationFailure(sol.message, last_s=float(sol.t[-1]))
        halves.append(sol.sol)
    fwd, bwd = halves

    r = np.empty_like(s)
    u = np.empty_like(s)
    neg = s < 0
    yb = bwd(s[neg])
    yf = fwd(s[~neg])
    r[neg], u[neg] = yb[0], yb[1]
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
    n = fam.n
    if fam.tag == "ch_horo":
        a2 = fam.rho ** (2 * (n + 1))
        res = sol.rp**2 + a2 / sol.r ** (2 * n) - sol.r**2
        return float(np.max(np.abs(res)))
    keep = np.ones(len(sol.s), dtype=bool)
    if sol.u_reconstructed:
        keep = (1.0 - sol.rp**2) >= 1e-6
        if not np.any(keep):
            keep[:] = True
    r, u = sol.r[keep], sol.u[keep]
    if fam.tag == "ch_sphere":
        L = 2.0 * _logcosh(r) + 2.0 * n * _logsinh(r) - 2.0 * _logcosh(u)
        Lref = 2.0 * _logcosh(fam.rho) + 2.0 * n * _logsinh(fam.rho)
    elif fam.tag == "ch_tube":
        L = 2.0 * _logsinh(r) + 2.0 * n * _logcosh(r) - 2.0 * _logcosh(u)
        Lref = 2.0 * _logsinh(fam.rho) + 2.0 * n * _logcosh(fam.rho)
    else:
        L = 2.0 * n * np.log(np.sin(r)) + 2.0 * np.log(np.cos(r)) - 2.0 * _logcosh(u)
        Lref = 2.0 * n * math.log(math.sin(fam.rho)) + 2.0 * math.log(math.cos(fam.rho))
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
    (a', a'', b', b'') in closed form from the profile state.  For ch_horo
    the raw integrals A_{n+1}(s) and A_{n+3}(s) (without the rho^{n+1}
    factor) are exposed as well.
    """

    family: ProfileFamily
    a_of_s: object
    b_of_s: object
    phase_speed: object
    rates: object
    a_n_plus_1: object | None = None
    a_n_plus_3: object | None = None


def _antiderivative(s, vals, derivs):
    anti = Spline.hermite(s, vals, derivs).antiderivative()
    c0 = anti(0.0)
    return lambda x: anti(x) - c0


def cumulative_integral(s, vals, derivs):
    """Cumulative integral vanishing at 0, by composite cubic-Hermite
    quadrature on the grid with one Richardson step (h^4 -> h^6)."""
    fine = _antiderivative(s, vals, derivs)
    coarse = _antiderivative(s[::2], vals[::2], derivs[::2])

    def integral(x):
        f = fine(x)
        return f + (f - coarse(x)) / 15.0

    return integral


def _integrand_table(fam: ProfileFamily):
    """Per-family phase integrands g(r) and dg/dr for (a, b)."""
    n, a_c = fam.n, fam.phase_constant
    if fam.tag == "ch_sphere":
        ga = lambda r: a_c / np.sinh(r) ** (n + 1)
        dga = lambda r: -(n + 1) * a_c * np.cosh(r) / np.sinh(r) ** (n + 2)
        gb = lambda r: a_c * np.tanh(r) ** 2 / np.sinh(r) ** (n + 1)
        dgb = lambda r: a_c * (
            2 * np.tanh(r) / (np.cosh(r) ** 2 * np.sinh(r) ** (n + 1))
            - (n + 1) * np.tanh(r) ** 2 * np.cosh(r) / np.sinh(r) ** (n + 2)
        )
        return (ga, dga, 1.0), (gb, dgb, 1.0)
    if fam.tag == "ch_tube":
        # first exponent carries coth^2, second is the bare speed
        ga = lambda r: a_c / np.tanh(r) ** 2 / np.cosh(r) ** (n + 1)
        dga = lambda r: a_c * (
            -2.0 / (np.tanh(r) ** 3 * np.cosh(r) ** (n + 3))
            - (n + 1) * np.sinh(r) / (np.tanh(r) ** 2 * np.cosh(r) ** (n + 2))
        )
        gb = lambda r: a_c / np.cosh(r) ** (n + 1)
        dgb = lambda r: -(n + 1) * a_c * np.sinh(r) / np.cosh(r) ** (n + 2)
        return (ga, dga, 1.0), (gb, dgb, 1.0)
    if fam.tag == "ch_horo":
        ga = lambda r: a_c / r ** (n + 1)
        dga = lambda r: -(n + 1) * a_c / r ** (n + 2)
        gb = lambda r: a_c / r ** (n + 3)
        dgb = lambda r: -(n + 3) * a_c / r ** (n + 4)
        return (ga, dga, 1.0), (gb, dgb, 1.0)
    # cp_sphere: first exponent is negative
    ga = lambda r: a_c / np.sin(r) ** (n + 1)
    dga = lambda r: -(n + 1) * a_c * np.cos(r) / np.sin(r) ** (n + 2)
    gb = lambda r: a_c * np.tan(r) ** 2 / np.sin(r) ** (n + 1)
    dgb = lambda r: a_c * (
        2 * np.tan(r) / (np.cos(r) ** 2 * np.sin(r) ** (n + 1))
        - (n + 1) * np.tan(r) ** 2 * np.cos(r) / np.sin(r) ** (n + 2)
    )
    return (ga, dga, -1.0), (gb, dgb, 1.0)


def phase_integrals(sol: ProfileSolution, coarsen: int = 1) -> PhaseIntegrals:
    """Cumulative phase integrals on the solution grid.

    Composite cubic-Hermite quadrature with one Richardson refinement;
    ``coarsen`` thins the grid (used by the self-consistency oracle).
    """
    fam = sol.family
    s, r, rp = sol.s[::coarsen], sol.r[::coarsen], sol.rp[::coarsen]
    (ga, dga, sign_a), (gb, dgb, sign_b) = _integrand_table(fam)
    A = cumulative_integral(s, ga(r), dga(r) * rp)
    B = cumulative_integral(s, gb(r), dgb(r) * rp)
    a_of_s = lambda x: sign_a * A(x)
    b_of_s = lambda x: sign_b * B(x)
    speed = lambda x: ga(sol.r_of(x)) if fam.tag != "ch_tube" else (
        fam.phase_constant / np.cosh(sol.r_of(x)) ** (fam.n + 1)
    )
    rates = lambda r, rp: (sign_a * ga(r), sign_a * dga(r) * rp,
                           sign_b * gb(r), sign_b * dgb(r) * rp)
    out = PhaseIntegrals(fam, a_of_s, b_of_s, speed, rates)
    if fam.tag == "ch_horo":
        a_c = fam.phase_constant
        out.a_n_plus_1 = lambda x: A(x) / a_c
        out.a_n_plus_3 = lambda x: B(x) / a_c
    return out


def embedding_phase_sup(sol: ProfileSolution, tol: float = 1e-8) -> float:
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
    g = lambda r: 2.0 * a_c / (np.cosh(r) ** 2 * np.sinh(r) ** (n + 1))
    dg = lambda r: 2.0 * a_c * (
        -2.0 * np.sinh(r) / (np.cosh(r) ** 3 * np.sinh(r) ** (n + 1))
        - (n + 1) * np.cosh(r) / (np.cosh(r) ** 2 * np.sinh(r) ** (n + 2))
    )
    pos = sol.s >= 0
    s, r, rp = sol.s[pos], sol.r[pos], sol.rp[pos]
    value = cumulative_integral(s, g(r), dg(r) * rp)(s[-1])
    r_m, v = float(r[-1]), float(rp[-1])
    # r(s) >= r_m + v (s - s_max) by convexity; sech^2 <= 4 e^{-2r}
    K = 8.0 * a_c * (2.0 / (1.0 - math.exp(-2.0 * r_m))) ** (n + 1)
    tail = K * math.exp(-(n + 3) * r_m) / ((n + 3) * v)
    if tail > tol:
        raise NeedsLargerDomain(
            f"tail bound {tail:.3e} exceeds {tol:.1e}; solve to larger s_max"
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
    s_max: float = 10.0
    tol: float = 1e-9

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


def sigma_integral_thm1(spec: SigmaIntegralSpec, profile: ProfileSolution | None = None) -> float:
    """Total curvature integral of the ch_sphere family, either quadrature form.

    s-form: quadrature of sinh^{-(n^2+1)} r(s) along a solved profile with an
    exponential tail bound.  t-form: the hyperelliptic integral from
    t = sinh rho, with the inverse-square-root endpoint removed by the
    substitution t = sinh rho + u^2 and a power-law tail bound.
    """
    n, rho = spec.n, spec.rho
    m = n * n + 1
    if spec.method == "s":
        sol = profile
        if sol is None or sol.family != spec.family or sol.s_max < spec.s_max:
            sol = solve_profile(spec.family, spec.s_max, tol=1e-11)
        integrand = lambda s: np.sinh(sol.r_of(s)) ** (-m)
        val, _ = quad(integrand, 0.0, spec.s_max, epsabs=1e-14, epsrel=1e-11, limit=200)
        r_m, v = float(sol.r_of(spec.s_max)), float(sol.rp_of(spec.s_max))
        K = (2.0 / (1.0 - math.exp(-2.0 * r_m))) ** m
        tail = K * math.exp(-m * r_m) / (m * v)
        if tail > spec.tol * max(val, 1e-300):
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
            piece, _ = quad(integrand, U_prev, U, epsabs=1e-16, epsrel=1e-11, limit=200)
            val += piece
            tail = T ** (-m) / (m * math.sqrt(max(1.0 - E / T ** (2 * n + 2), 0.5)))
            if tail <= spec.tol * max(val, 1e-300):
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
    S = len(s_values)
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


@dataclass(frozen=True)
class PeriodResult:
    period: float
    closure_residual: float
    amplitude: float  # max |r - rho| along the orbit


def detect_period(
    n: int,
    rho: float,
    search_time: float = 1000.0,
) -> PeriodResult | None:
    """First return time T of (r, r') to (rho, 0) for the cp_sphere profile.

    Returns None at the equilibrium radius arctan(sqrt(n)), detected by
    |r''(rho)| < 1e-12.  Otherwise one DOP853 solve from (rho, 0) (rtol
    1e-12, atol 1e-14, dense output) carries an event on u = artanh r'
    that counts only crossings in the direction of r''(rho).  Those are the
    start, where u(0) = 0 exactly, and the return; the half-period crossing
    runs the other way.  The solve stops at the second of them, and T is
    that event's root of the dense interpolant (scipy's brentq).  The
    closure residual |r(T) - rho| + |r'(T)| and the amplitude
    max |r - rho| over [0, T] are read from the same interpolant.

    Raises DetectionFailure when the orbit has not returned by
    ``search_time`` (which must be positive) and IntegrationFailure when
    the solver stops early.
    """
    if not search_time > 0:
        raise InvalidArgument("search_time must be positive")
    fam = ProfileFamily("cp_sphere", n, rho)
    curvature = fam.second_derivative(rho, 0.0)
    if abs(curvature) < 1e-12:
        return None

    def rp_zero(_, y):
        return y[1]

    rp_zero.direction = math.copysign(1.0, curvature)
    rp_zero.terminal = 2  # the root at s = 0, then the return

    sol = solve_ivp(
        fam.ode_rhs, (0.0, search_time), (rho, 0.0),
        method="DOP853", rtol=1e-12, atol=1e-14, dense_output=True, events=rp_zero,
    )
    if not sol.success:
        raise IntegrationFailure(sol.message, last_s=float(sol.t[-1]))
    roots = sol.t_events[0]
    if len(roots) < 2:
        raise DetectionFailure(f"no periodic return within {search_time} time units")
    T = float(roots[1])
    rT, uT = sol.sol(T)
    residual = abs(rT - rho) + abs(math.tanh(uT))
    orbit = sol.sol(np.linspace(0.0, T, 400))[0]
    return PeriodResult(T, float(residual), float(np.max(np.abs(orbit - rho))))
