"""Radial profiles of the cohomogeneity-one families and their integrals.

Four profile equations, written autonomously with r(0) = rho, r'(0) = 0:

  ch_sphere:  r'' sinh r cosh r = (1 - r'^2)(sinh^2 r + n cosh^2 r)
  ch_tube:    r'' sinh r cosh r = (1 - r'^2)(cosh^2 r + n sinh^2 r)
  ch_horo:    closed form r(s) = rho cosh^{1/(n+1)}((n+1) s)
  cp_sphere:  r'' sin r cos r  = (1 - r'^2)(n cos^2 r - sin^2 r)

Each family is one row of a table (``_row``): a pair (S, C) = (sinh, cosh),
(sin, cos) or, for ch_horo, (r, 1) with S' = C, C' = sigma S and T = S / C;
the exponents (alpha, beta) of the first integral (1 - r'^2) F(r) = E with
F = S^{2 alpha} C^{2 beta} and E = F(rho); and the phase integrands
sign a S^p C^q as (sign, p, q), with a = sqrt(E).  r'' = (1 - r'^2)
(alpha / T + sigma beta T) and every phase integrand with its derivative
dg/dr = g (p / T + sigma q T) are read from the row (the phases' rates:
``ProfileFamily.phase_rates``); ch_horo keeps its closed form and first
integral r'^2 + a^2 / r^{2n} = r^2.  ``PAIRS`` gives a tag's pair without
a rho; its ``jets`` are what every lift's curve factor multiplies, the
real geodesic (the a = 0 member) included.

No ODE is solved.  By the first integral r'^2 = 1 - E / F(r) = -expm1(-D)
with D = log F(r) - log E, so along each stretch where r is monotone the
arc length s and the phases A and B are quadratures in r.  ``_Panels``
tabulates them once per profile, as cumulative Gauss-Legendre panels, in a
variable that is regular where it is used (``_pieces``):

  r = rho + v^2 (rho - v^2 where r falls) from the start, where r' = 0;
  e = e_b cosh tau from cp_sphere's far turn e_b, e the distance pi/2 - r
      or r to the end of (0, pi/2) that the turn lies towards, on either
      side of the equilibrium arctan(sqrt n);
  r itself on the ch rows once D > 1, where s - r converges.

Near a turn D comes from the sinh/sin difference formulas, so r' keeps its
relative precision there.  ``ProfileSolution.state`` reads r, r', r'', A
and B at any s from one evaluation: a barycentric guess and one Newton step
invert the s column, and r' = sqrt(-expm1(-D)) is read at the point found.
s < 0 is the mirror (r, -r', -A, -B), and cp_sphere's orbit repeats with
period T = 2 s(e_b), its phases gaining (A(T), B(T)) per period.  ch_horo
keeps its closed form, its phases a table in s.  The s- and t-forms of the
total curvature integral use ``quad``, an adaptive 21-point Gauss-Kronrod
rule over numpy arrays at fixed settings, the s-form starting on the
tables' panels.
Nothing here imports scipy: ``solve_ivp`` is scipy's DOP853, imported on
use, for the tests' ODE oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .domain import (
    PROFILE_FAMILIES as FAMILY_TAGS,
    GeometryError,
    IntegrationFailure,
    InvalidArgument,
    NeedsLargerDomain,
)

__all__ = [
    "FAMILY_TAGS",
    "PAIRS",
    "ProfileFamily",
    "ProfileSolution",
    "PhaseIntegrals",
    "SigmaIntegralSpec",
    "SIGMA_TAIL_TOL",
    "EQUILIBRIUM_PROXIMATE",
    "PeriodResult",
    "IntegrationFailure",
    "NeedsLargerDomain",
    "cumulative",
    "solve_profile",
    "energy_residual",
    "phase_integrals",
    "embedding_phase_sup",
    "sphere_volume",
    "sigma_integral_thm1",
    "sigma_integral_numeric",
    "detect_period",
]


def solve_ivp(fun, t_span, y0, **options):
    """scipy's ``solve_ivp`` with DOP853 and dense output, imported on the
    first call.  The tests solve the profile ODEs with it as an oracle; no
    lagmin command calls it."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(fun, t_span, y0, method="DOP853", dense_output=True, **options)


# The 21-point Gauss-Kronrod rule of QUADPACK's qk21: nodes on [-1, 1], the
# 10-point Gauss weights at the odd nodes and the 21-point Kronrod weights.
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


# quad's settings: a relative tolerance only, since the integrals it takes
# span many orders of magnitude, and a panel limit
_QUAD_RTOL = 1e-11
_QUAD_LIMIT = 200


def quad(f, a, b, points=None):
    """(integral of f over [a, b], error estimate) by adaptive 21-point
    Gauss-Kronrod quadrature.

    ``f`` takes an array of points and returns the values there.  The first
    round's panels are [a, b] cut at those of the breakpoints ``points``
    that lie strictly inside it (one panel without them).  Each round
    evaluates every new panel in one call of ``f`` and bisects each panel
    whose error estimate exceeds its width's share of the tolerance
    ``_QUAD_RTOL`` |I|, until the summed estimate is within it.  Raises
    ``IntegrationFailure`` when that would take more than ``_QUAD_LIMIT``
    panels.
    """
    a, b = float(a), float(b)
    inner = np.sort(np.ravel(np.asarray([] if points is None else points, dtype=float)))
    inner = inner[(inner > min(a, b)) & (inner < max(a, b))]
    edges = np.concatenate([[a], inner if a < b else inner[::-1], [b]])
    edges = edges[np.append(True, edges[1:] != edges[:-1])]
    lo, hi = edges[:-1], edges[1:]
    if len(lo) > _QUAD_LIMIT:
        raise IntegrationFailure(f"{len(lo)} breakpoint panels above the limit {_QUAD_LIMIT}")
    val, err = _gk21_panels(f, lo, hi)
    while True:
        total, abserr = float(val.sum()), float(err.sum())
        tol = _QUAD_RTOL * abs(total)
        if abserr <= tol:
            return total, abserr
        # NaN estimates split too, and the worst panel always does
        split = ~(err <= tol * (hi - lo) / (b - a)) | (err == err.max())
        if len(lo) + np.count_nonzero(split) > _QUAD_LIMIT:
            raise IntegrationFailure(
                f"quadrature error {abserr:.2e} above {tol:.2e} with {len(lo)} panels"
                f" (limit {_QUAD_LIMIT})"
            )
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_val, new_err = _gk21_panels(f, new_lo, new_hi)
        keep = ~split
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        val, err = np.concatenate([val[keep], new_val]), np.concatenate([err[keep], new_err])


# ---------------------------------------------------------------------------
# cumulative Gauss-Legendre panels


def _legendre(t, degree: int) -> list:
    """[P_0(t), ..., P_degree(t)] by the three-term recurrence."""
    P = [np.ones_like(t), t]
    for k in range(1, degree):
        P.append(((2 * k + 1) / (k + 1)) * t * P[k] - (k / (k + 1)) * P[k - 1])
    return P


def _gauss_legendre(m: int):
    """Ascending nodes and weights of the m-point Gauss-Legendre rule on
    [-1, 1], by Newton's method on P_m."""
    x = -np.cos(np.pi * (np.arange(m) + 0.75) / (m + 0.5))
    for _ in range(8):
        p_prev, p = _legendre(x, m)[-2:]
        dp = m * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


_GL_M = 16
_GL_X, _GL_W = _gauss_legendre(_GL_M)
_GL_V = np.array(_legendre(_GL_X, _GL_M))  # P_k at the nodes, (M + 1, M)
# node values -> Legendre coefficients of their interpolant, and of its
# integral from -1: int P_0 = P_1 + P_0, int P_k = (P_{k+1} - P_{k-1}) / (2k + 1)
_GL_COEF = (np.arange(_GL_M) + 0.5)[:, None] * _GL_V[:_GL_M] * _GL_W
_GL_ANTI = np.zeros((_GL_M + 1, _GL_M))
_GL_ANTI[0, 0] = _GL_ANTI[1, 0] = 1.0
for _k in range(1, _GL_M):
    _GL_ANTI[_k + 1, _k], _GL_ANTI[_k - 1, _k] = 1.0 / (2 * _k + 1), -1.0 / (2 * _k + 1)
_GL_ANTI = _GL_ANTI @ _GL_COEF
# the inverse of the first column's integral on a panel: barycentric
# interpolation through the panel's ends and nodes
_GL_T = np.concatenate([[-1.0], _GL_X, [1.0]])

# a panel is split until the last two Legendre coefficients of every column
# fall below this share of the column's largest node value
_PANEL_RTOL = 1e-14


class _Panels:
    """Cumulative integrals of the columns of ``f`` over Gauss-Legendre
    panels, from edges[0].

    ``f`` maps points (K,) to values (K, cols).  The ``edges`` are a first
    layout; each panel whose Legendre coefficients have not decayed to
    ``_PANEL_RTOL`` is halved until all have, or until halving stops
    helping (the integrand's own roundoff), and past ``limit`` panels
    raises ``IntegrationFailure``.  ``sums`` holds the integrals at the
    panel edges; calling the table reads them between edges through the
    exact integral of each panel's Legendre interpolant, and ``invert``
    solves for where the first column's integral, which must be
    increasing, takes given values.
    """

    limit = 4000

    def __init__(self, f, edges):
        lo, hi = np.asarray(edges[:-1], dtype=float), np.asarray(edges[1:], dtype=float)
        done, scale, last = [], 0.0, np.full(len(lo), np.inf)
        while len(lo):
            half = 0.5 * (hi - lo)
            x = (lo + half)[:, None] + half[:, None] * _GL_X
            fx = np.asarray(f(x.ravel()), dtype=float).reshape(len(lo), _GL_M, -1)
            scale = np.maximum(scale, np.max(np.abs(fx), axis=(0, 1)))
            tail = np.max(np.abs(np.einsum("km,pmc->pkc", _GL_COEF[-2:], fx)).sum(axis=1)
                          / np.maximum(scale, np.finfo(float).tiny), axis=1)
            # converged, or at the integrand's own roundoff: small, and no
            # longer shrinking eightfold as the panel halves (NaN splits)
            split = ~((tail <= _PANEL_RTOL) | ((tail < 1e-6) & (tail > last / 8)))
            done.append((lo[~split], hi[~split], fx[~split]))
            if sum(len(d[0]) for d in done) + 2 * np.count_nonzero(split) > self.limit:
                raise IntegrationFailure(f"quadrature table needs more than {self.limit} panels")
            mid = (lo[split] + hi[split]) / 2
            lo, hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
            last = np.tile(tail[split], 2)
        lo, hi, fx = (np.concatenate(a) for a in zip(*done))
        order = np.argsort(lo)
        lo, hi, fx = lo[order], hi[order], fx[order]
        self.edges = np.append(lo, hi[-1])
        self.mid, self.half = (lo + hi) / 2, (hi - lo) / 2
        # per panel, the Legendre coefficients of the integrals from the
        # panel's start and of their t-derivatives, side by side
        self.cols = fx.shape[2]
        anti = np.einsum("km,pmc->pkc", _GL_ANTI, fx) * self.half[:, None, None]
        rate = np.einsum("km,pmc->pkc", _GL_COEF, fx) * self.half[:, None, None]
        self.coef = np.concatenate([anti, np.pad(rate, ((0, 0), (0, 1), (0, 0)))],
                                   axis=2).transpose(1, 0, 2).copy()  # (M + 1, panels, 2 cols)
        sums = np.zeros((len(lo) + 1, self.cols))
        np.cumsum(np.einsum("m,pmc->pc", _GL_W, fx) * self.half[:, None], axis=0, out=sums[1:])
        self.sums = sums

    def _values(self, p, t):
        """The integrals (N, cols) at local points t of panels p, and their
        t-derivatives (N, cols).  Every point is summed on its own, so a
        point's values do not depend on the others."""
        coef = self.coef.take(p, axis=1)
        out = np.zeros((len(p), 2 * self.cols))
        out[:, :self.cols] = self.sums[p]
        for Pk, ck in zip(_legendre(t, _GL_M), coef):
            out += Pk[:, None] * ck
        return out[:, :self.cols], out[:, self.cols:]

    def __call__(self, x) -> np.ndarray:
        """The integrals (N, cols) at the points x, held constant outside
        the table."""
        p = self.edges[1:-1].searchsorted(x, "right")
        return self._values(p, np.clip((x - self.mid[p]) / self.half[p], -1.0, 1.0))[0]

    @cached_property
    def _inverse(self):
        """The first column's integral from each panel's start at its ends
        and nodes, scaled to [-1, 1], and their barycentric weights."""
        total = self.sums[1:, :1] - self.sums[:-1, :1]
        local = np.concatenate([np.zeros_like(total), self.coef[:, :, 0].T @ _GL_V, total], axis=1)
        eta = 2 * local / total - 1
        diff = eta[:, :, None] - eta[:, None, :]
        diff[:, np.arange(_GL_M + 2), np.arange(_GL_M + 2)] = 1.0
        return eta, 1.0 / np.prod(diff, axis=2)

    def invert(self, y):
        """(panel, t, integrals) where the first column's integral is y,
        clipped to the table: a barycentric guess through the panel's node
        values, then Newton steps, the last of which moves every column to
        first order.  A panel's start is found exactly."""
        K = self.sums[:, 0]
        p = K[1:-1].searchsorted(y, "right")
        eta, bary = (a[p] for a in self._inverse)
        d = np.clip(2 * (y - K[p]) / (K[p + 1] - K[p]) - 1, -1.0, 1.0)[:, None] - eta
        # a node hit exactly outweighs the others past rounding
        w = bary / np.where(d == 0, 1e-200, d)
        t = np.sum(w * _GL_T, axis=1) / np.sum(w, axis=1)
        for _ in range(4):
            values, rates = self._values(p, t)
            step = (y - values[:, 0]) / rates[:, 0]
            if not np.max(np.abs(step), initial=0.0) > 1e-9:  # its square is below roundoff
                break
            t = np.clip(t + step, -1.0, 1.0)
        start = y == K[p]
        values = np.where(start[:, None], self.sums[p], values + step[:, None] * rates)
        return p, np.where(start, -1.0, np.clip(t + step, -1.0, 1.0)), values


def cumulative(f, lo: float, hi: float):
    """x -> integral of f from 0 to x, for x in [lo, hi] (lo <= 0 <= hi):
    Gauss-Legendre panels on [lo, hi], at most 0.5 wide and refined until
    converged (``_Panels``); f maps points to values."""
    count = max(1, int(math.ceil(2.0 * (hi - lo))))
    table = _Panels(lambda x: np.asarray(f(x))[:, None], np.linspace(lo, hi, count + 1))
    zero = table(np.zeros(1))[0, 0]
    return lambda x: table(np.ravel(x))[:, 0].reshape(np.shape(x)) - zero


# ---------------------------------------------------------------------------
# the family table


def _logcosh(x):
    x = np.abs(np.asarray(x, dtype=float))
    return x + np.log1p(np.exp(-2.0 * x)) - math.log(2.0)


def _logsinh(x):
    # valid for x > 0; below 1 directly, where 1 - e^{-2x} would cancel, and
    # the other branch taken at x >= 1 only: log1p(-1) divides by zero
    x = np.asarray(x, dtype=float)
    big = np.maximum(x, 1.0)
    return np.where(x < 1.0, np.log(np.sinh(np.minimum(x, 1.0))),
                    big + np.log1p(-np.exp(-2.0 * big)) - math.log(2.0))


# pi/2 in two parts: _co(x) = pi/2 - x keeps its relative precision near pi/2
_PIO2_HI, _PIO2_LO = 1.5707963267948966, 6.123233995736766e-17


def _co(x):
    return (_PIO2_HI - x) + _PIO2_LO


@dataclass(frozen=True)
class _Trig:
    """(S, C) with S' = C, C' = sigma S and T = S / C, over arrays; ``S0``
    and ``C0`` are the forms the scalar rho has always used.  ``pair(x, c)``
    is (S(x), C(x)) given c = pi/2 - x too, so that on the circle C = sin c
    keeps its relative precision near pi/2."""

    sigma: float
    S: object
    C: object
    T: object
    S0: object
    C0: object
    pair: object = None

    def jets(self, t):
        """Jets of (S(t), C(t)) from the jet t = (t, t', t'')."""
        t0, t1, t2 = t
        S, C, sigma = self.S(t0), self.C(t0), self.sigma
        return (np.stack([S, C * t1, sigma * S * t1**2 + C * t2]),
                np.stack([C, sigma * S * t1, sigma * (C * t1**2 + S * t2)]))


_HYPERBOLIC = _Trig(1.0, np.sinh, np.cosh, np.tanh, math.sinh, math.cosh,
                    lambda x, c: (np.sinh(x), np.cosh(x)))
_CIRCULAR = _Trig(-1.0, np.sin, np.cos, np.tan, math.sin, math.cos,
                  lambda x, c: (np.sin(x), np.sin(c)))
# ch_horo: S = r, C = 1; its first integral is not of the (1 - r'^2) form
_FLAT = _Trig(0.0, lambda r: r, np.ones_like, lambda r: r, lambda r: r, lambda r: 1.0)


@dataclass(frozen=True)
class _Row:
    """One profile family."""

    trig: _Trig
    alpha: int
    beta: int
    phase_a: tuple
    phase_b: tuple


# each family's pair (S, C), which its tag alone decides
PAIRS = {"ch_sphere": _HYPERBOLIC, "ch_tube": _HYPERBOLIC, "ch_horo": _FLAT,
         "cp_sphere": _CIRCULAR}


def _row(tag: str, n: int) -> _Row:
    m = n + 1
    return _Row(PAIRS[tag], *{
        "ch_sphere": (n, 1, (1.0, -m, 0), (1.0, 1 - n, -2)),
        "ch_tube": (1, n, (1.0, -2, 1 - n), (1.0, 0, -m)),
        "ch_horo": (m, 0, (1.0, -m, 0), (1.0, -m - 2, 0)),
        "cp_sphere": (n, 1, (-1.0, -m, 0), (1.0, 1 - n, -2)),
    }[tag])


@dataclass(frozen=True)
class ProfileFamily:
    """Family tag plus parameters (n, rho) of the initial radius."""

    tag: str
    n: int
    rho: float
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

    def second_derivative(self, r, rp):
        """r'' = (1 - r'^2)(alpha / T + sigma beta T) from the profile
        equation at state (r, r') (ch_horo: from its first integral,
        independent of r')."""
        if self.tag == "ch_horo":
            # differentiating the first integral r'^2 + a^2 / r^{2n} = r^2
            return r + self.n * self.energy_constant / r ** (2 * self.n + 1)
        row = self.row
        t = row.trig.T(r)
        return (1.0 - rp**2) * (row.alpha / t + row.trig.sigma * row.beta * t)

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

    def phase_rates(self, r, rp):
        """(a', a'', b', b''): the phases' first and second s-derivatives,
        sign a S^p C^q from the row and its derivative along the profile,
        in closed form from the state (r, r')."""
        a, row = self.phase_constant, self.row
        (sa, pa, qa), (sb, pb, qb) = row.phase_a, row.phase_b
        ga, dga, gb, dgb = self.integrands(r, (sa * a, pa, qa), (sb * a, pb, qb))
        return ga, dga * rp, gb, dgb * rp


# ---------------------------------------------------------------------------
# profiles as quadratures in r


class _Piece:
    """A stretch of the half orbit s >= 0 on which r is monotone: the table
    of (s, A, B) over the variable x of ``point`` (x -> (r, S, C, D,
    |dr/dx|)) on the panel ``edges``.  s, A and B take the values ``start``
    at the table's first edge and run forward (sign 1) or back (sign -1)
    from there; a piece that runs back starts where its table ends."""

    def __init__(self, fam: ProfileFamily, point, edges, start=(0.0, 0.0, 0.0), sign=1.0):
        a, row = fam.phase_constant, fam.row

        def rates(x):  # ds/dx, dA/dx, dB/dx
            _, S, C, D, drdx = point(x)
            ds = drdx / np.sqrt(-np.expm1(-D))
            return np.stack([ds] + [c * a * S**p * C**q * ds for c, p, q in
                                    (row.phase_a, row.phase_b)], axis=-1)

        self.table, self.point, self.sign = _Panels(rates, edges), point, sign
        self.start = np.array(start, dtype=float)
        if sign < 0:
            self.start = self.start + self.table.sums[-1]

    @property
    def end(self) -> np.ndarray:
        return self.start + self.sign * self.table.sums[-1]


def _from_turn(fam: ProfileFamily, x0: float, c0: float, shift):
    """x -> (r, S, C, D, |dr/dx|) along r = x0 + d, with (d, |dr/dx|) =
    shift(x) and c0 = pi/2 - x0; D is log F(r) - log F(x0), taken from
    the difference formulas S(x0 + d) - S(x0) = 2 C(x0 + d/2) S(d/2) and
    C(x0 + d) - C(x0) = 2 sigma S(x0 + d/2) S(d/2)."""
    row = fam.row
    trig = row.trig
    S0, C0 = trig.pair(x0, c0)

    def point(x):
        d, drdx = shift(x)
        Sm, Cm = trig.pair(x0 + d / 2, c0 - d / 2)
        H = trig.S(d / 2)
        D = (2 * row.alpha * np.log1p(2 * Cm * H / S0)
             + 2 * row.beta * np.log1p(2 * trig.sigma * Sm * H / C0))
        return (x0 + d, *trig.pair(x0 + d, c0 - d), D, drdx)

    return point


def _far_turn(fam: ProfileFamily, upper: bool, log_e: float, e_max: float) -> float:
    """The distance e of cp_sphere's far turn from pi/2 (``upper``) or from 0,
    where log F = log_e: Newton's method in log e, kept inside the bracket
    (0, e_max) on which F rises, until its steps reach roundoff."""
    alpha, beta = fam.row.alpha, fam.row.beta

    def g(y):  # log F - log_e at e = exp(y), and its derivative in y
        e = math.exp(y)
        S, C = (math.cos(e), math.sin(e)) if upper else (math.sin(e), math.cos(e))
        t = math.tan(e)
        dlog = (2 * beta / t - 2 * alpha * t) if upper else (2 * alpha / t - 2 * beta * t)
        return 2 * alpha * math.log(S) + 2 * beta * math.log(C) - log_e, e * dlog

    lo, hi = -math.inf, math.log(e_max)
    y, last = min(log_e / (2 * (beta if upper else alpha)), hi - 1e-3), math.inf
    for _ in range(100):
        value, slope = g(y)
        if value == 0:
            break
        lo, hi = (y, hi) if value < 0 else (lo, y)
        y_new = y - value / slope
        if not lo < y_new < hi:
            y_new = (lo + hi) / 2 if lo > -math.inf else hi - 1.0
        step, y = abs(y_new - y), y_new
        if step <= 1e-15 or (step < 1e-12 and step > last / 2):
            break
        last = step
    return math.exp(y)


def _pieces(fam: ProfileFamily, s_max: float) -> tuple:
    """The pieces of the half orbit s >= 0, in the order of s, covering
    [0, s_max] on the ch rows and one half period on cp_sphere."""
    row, rho = fam.row, fam.rho
    slope = float(fam.second_derivative(rho, 0.0))  # r''(0) = alpha / T + sigma beta T
    sign = math.copysign(1.0, slope)
    if fam.tag == "cp_sphere":
        r_eq = math.atan(math.sqrt(fam.n))
        v_m = math.sqrt(abs(r_eq - rho))
    else:
        v_m = math.sqrt(1.0 / slope)  # D is about 2 there
    first = _Piece(fam, _from_turn(fam, rho, _co(rho), lambda v: (sign * v * v, 2 * v)),
                   [0.0, v_m / 2, v_m])
    r_m = rho + sign * v_m * v_m
    if fam.tag == "cp_sphere":
        upper = sign > 0
        e_m = _co(r_eq) if upper else r_eq
        log_e = 2 * row.alpha * math.log(math.sin(rho)) + 2 * row.beta * math.log(
            math.sin(_co(rho)))
        e_b = _far_turn(fam, upper, log_e, e_m)
        x0, c0 = (_co(e_b), e_b) if upper else (e_b, _co(e_b))
        shift = lambda tau: (-sign * 2 * e_b * np.sinh(tau / 2) ** 2, e_b * np.sinh(tau))
        tau_m = math.acosh(max(e_m / e_b, 1.0))
        # the far table runs back from the turn to the junction
        return first, _Piece(fam, _from_turn(fam, x0, c0, shift),
                             np.linspace(0.0, tau_m, int(math.ceil(tau_m)) + 2), first.end, -1.0)

    log_s0, log_c0 = float(_logsinh(rho)), float(_logcosh(rho))

    def point(r):
        D = 2 * row.alpha * (_logsinh(r) - log_s0) + 2 * row.beta * (_logcosh(r) - log_c0)
        return r, np.sinh(r), np.cosh(r), D, np.ones_like(r)

    # out to D = 80, past which e^{-D/2} leaves A and B unchanged in doubles,
    # or to r(s_max) <= rho + s_max, the first that comes
    r_top, r_end = rho + s_max + 1.0, r_m
    for _ in range(100):
        D_end = float(point(np.array(r_end))[3])
        if D_end >= 80.0 or r_end >= r_top:
            break
        t = math.tanh(r_end)
        r_end += (80.0 - D_end) / (2 * (row.alpha / t + row.beta * t))
    r_end = min(r_end, r_top)
    edges, width = [r_m], v_m * v_m
    while edges[-1] < r_end:
        edges.append(min(edges[-1] + width, r_end))
        width = min(2 * width, 1.0)
    if r_top > r_end:
        edges.append(r_top)
    return first, _Piece(fam, point, edges, first.end)


def _closed_form_horo(fam: ProfileFamily, s):
    m = fam.n + 1
    r = fam.rho * np.exp(_logcosh(m * s) / m)
    return r, r * np.tanh(m * s)


# spacing of the sampled profile rows [s, r, r']
_ROW_STEP = 2e-3


@dataclass(eq=False)
class ProfileSolution:
    """A profile on [-s_max, s_max], read at any s by ``state``.

    The ODE families carry their quadrature tables (``_pieces``); ch_horo
    its closed form and a table of its phases in s.  ``s``, ``r`` and
    ``rp`` sample the profile on a symmetric grid of step about
    ``_ROW_STEP``, taken on first use; they are the rows a file stores.
    The tables are built to full precision.  ``stored_deviation`` is how
    far the rows of the file this profile was read from lie from it (0 for
    a profile built here).
    """

    family: ProfileFamily
    s_max: float
    stored_deviation: float = 0.0

    def __post_init__(self):
        fam = self.family
        if fam.energy_constant < np.finfo(float).tiny:
            raise IntegrationFailure(f"the energy constant of rho={fam.rho!r} underflows")
        self._last = None
        curvature = fam.second_derivative(fam.rho, 0.0)
        # r rises from rho on the ch rows, and on cp_sphere below arctan(sqrt n)
        self._sign = math.copysign(1.0, curvature)
        self._equilibrium = fam.tag == "cp_sphere" and abs(curvature) < 1e-12
        if fam.tag == "ch_horo":
            a, row = fam.phase_constant, fam.row

            def rates(s):
                r = _closed_form_horo(fam, s)[0]
                return np.stack([c * a * r**p for c, p, _ in (row.phase_a, row.phase_b)], axis=-1)

            top = self.s_max + 1.0
            count = min(32, int(math.ceil((fam.n + 1) * top)))
            self._horo = _Panels(rates, np.linspace(0.0, top, count + 1))
        elif not self._equilibrium:
            self._pieces = _pieces(fam, self.s_max)

    @property
    def energy_constant(self) -> float:
        return self.family.energy_constant

    @property
    def period(self) -> float:
        """cp_sphere: the period 2 s(e_b) of the orbit."""
        return 2.0 * float(self._pieces[-1].start[0])

    def _half_orbit(self, s):
        """(r, |r'|, A, B) at s in [0, the pieces' end], flat."""
        r, D, A, B = (np.empty_like(s) for _ in range(4))
        bounds = [piece.start[0] if piece.sign > 0 else piece.end[0] for piece in self._pieces]
        which = np.searchsorted(bounds[1:], s, "right")
        for k, piece in enumerate(self._pieces):
            at = which == k
            if not at.any():
                continue
            table = piece.table
            p, t, values = table.invert(piece.sign * (s[at] - piece.start[0]))
            r[at], _, _, D[at], _ = piece.point(table.mid[p] + table.half[p] * t)
            A[at], B[at] = (piece.start[1:] + piece.sign * values[:, 1:]).T
        return r, np.sqrt(-np.expm1(-np.maximum(D, 0.0))), A, B

    def _evaluate(self, s):
        """(r, r', A, B) at the points s (flat)."""
        fam = self.family
        s = np.asarray(s, dtype=float)
        mirror = np.signbit(s)
        s = np.abs(s)
        if fam.tag == "ch_horo":
            r, rp = _closed_form_horo(fam, s)
            A, B = self._horo(s).T
        elif self._equilibrium:
            r, rp = np.full_like(s, fam.rho), np.zeros_like(s)
            ga, _, gb, _ = fam.phase_rates(r, rp)
            A, B = ga * s, gb * s
        elif fam.tag == "cp_sphere":
            # one period on: the turns taken, and the way back from the far turn
            T = self.period
            A_T, B_T = 2.0 * self._pieces[-1].start[1:]
            turns = np.floor(s / T)
            s = s - turns * T
            back = s > T / 2
            r, rp, A, B = self._half_orbit(np.where(back, T - s, s))
            rp = np.where(back, -rp, rp)
            A = np.where(back, A_T - A, A) + turns * A_T
            B = np.where(back, B_T - B, B) + turns * B_T
        else:
            r, rp, A, B = self._half_orbit(s)
        rp = self._sign * rp
        return r, np.where(mirror, -rp, rp), np.where(mirror, -A, A), np.where(mirror, -B, B)

    def state(self, s):
        """(r, r', r'', A, B) at s, in the shape of s, read-only: one
        evaluation of the profile and its phases, which every reader takes
        them from.  The last one is kept, keyed on the s values alone: a
        build and its checks read the same s values several times, flat or
        as a column, and a reshaped batch is the same flat batch, so it
        reads the same bits."""
        s = np.asarray(s, dtype=float)
        key = s.tobytes()
        if self._last is None or self._last[0] != key:
            r, rp, A, B = self._evaluate(s.ravel())
            values = (r, rp, self.family.second_derivative(r, rp), A, B)
            for v in values:
                v.setflags(write=False)
            self._last = key, values
        return tuple(v.reshape(s.shape)[()] for v in self._last[1])

    def r_of(self, s):
        return self.state(s)[0]

    @cached_property
    def _rows(self):
        half = max(8, int(math.ceil(self.s_max / _ROW_STEP)))
        s = np.linspace(-self.s_max, self.s_max, 2 * half + 1)
        if self.family.tag == "ch_horo":
            r, rp = _closed_form_horo(self.family, s)
        else:
            r, rp = self._evaluate(s)[:2]
        for a in (s, r, rp):
            a.setflags(write=False)
        return s, r, rp

    s = property(lambda self: self._rows[0])
    r = property(lambda self: self._rows[1])
    rp = property(lambda self: self._rows[2])


def solve_profile(family: ProfileFamily, s_max: float) -> ProfileSolution:
    """The profile of ``family`` on [-s_max, s_max], its quadrature tables
    built to full precision."""
    if not 0 < s_max < math.inf:
        raise InvalidArgument(f"s_max must be positive and finite, got {s_max!r}")
    return ProfileSolution(family, float(s_max))


def energy_residual(sol: ProfileSolution) -> float:
    """Largest relative deviation |(1 - r'^2) F(r) / E - 1| of the first
    integral at the nodes of the profile's tables.

    Each node's r' comes from D, the first integral itself, so this reads
    roundoff by construction: that of the difference formulas behind D, and
    of the far turn of cp_sphere.  For ch_horo it is the relative residual
    |(r'/r)^2 + (rho/r)^{2n+2} - 1| of its closed form's first integral
    r'^2 + rho^{2n+2}/r^{2n} = r^2 over the sampled rows, divided through
    by r^2 so that it neither scales with r^2 nor overflows.
    """
    fam = sol.family
    if fam.tag == "ch_horo":
        res = (sol.rp / sol.r) ** 2 + (fam.rho / sol.r) ** (2 * fam.n + 2) - 1.0
        return float(np.max(np.abs(res)))
    if sol._equilibrium:  # r = rho and r' = 0 throughout
        return 0.0
    row = fam.row
    S0, C0 = row.trig.pair(fam.rho, _co(fam.rho))
    worst = 0.0
    for piece in sol._pieces:
        table = piece.table
        _, S, C, D, _ = piece.point((table.mid[:, None] + table.half[:, None] * _GL_X).ravel())
        L = 2 * row.alpha * np.log(S / S0) + 2 * row.beta * np.log(C / C0) - D
        worst = max(worst, float(np.max(np.abs(np.expm1(L)))))
    return worst


# ---------------------------------------------------------------------------
# phase integrals


@dataclass
class PhaseIntegrals:
    """Phase integrals of a profile, a(0) = b(0) = 0.

    ``a_of_s`` and ``b_of_s`` are the signed exponents of the first and
    second components of the corresponding immersion (cp_sphere carries the
    minus sign on a_of_s), read from the profile's tables by
    ``ProfileSolution.state``; their rates are ``ProfileFamily.phase_rates``.
    """

    family: ProfileFamily
    a_of_s: object
    b_of_s: object


def phase_integrals(sol: ProfileSolution) -> PhaseIntegrals:
    """The phases of a profile, read from its tables by ``sol.state``."""
    return PhaseIntegrals(sol.family, lambda x: sol.state(x)[3], lambda x: sol.state(x)[4])


# the largest analytic tail bound the embedding phase accepts
_EMBEDDING_TAIL_TOL = 1e-8


def embedding_phase_sup(sol: ProfileSolution) -> float:
    """sup of the embedding phase 2 a int_0^s dt / (cosh^2 r sinh^{n+1} r).

    Its integrand is A' - B', so up to s_max it is 2 (A - B), a quadrature in
    r read from the profile's tables; beyond it an analytic exponential tail
    bound (the integrand is <= C e^{-(n+3) r(s)} and r grows with unit
    asymptotic speed).  The limit stays below pi, which is what forces the
    ch_sphere family to be embedded.
    """
    fam = sol.family
    if fam.tag != "ch_sphere":
        raise InvalidArgument("the embedding phase bound applies to ch_sphere")
    n, a_c = fam.n, fam.phase_constant
    r_m, v, _, A, B = (float(x) for x in sol.state(sol.s_max))
    # r(s) >= r_m + v (s - s_max) by convexity; sech^2 <= 4 e^{-2r}
    K = 8.0 * a_c * (2.0 / (1.0 - math.exp(-2.0 * r_m))) ** (n + 1)
    tail = K * math.exp(-(n + 3) * r_m) / ((n + 3) * v)
    if tail > _EMBEDDING_TAIL_TOL:
        raise NeedsLargerDomain(
            f"tail bound {tail:.3e} exceeds {_EMBEDDING_TAIL_TOL:.1e}; solve to larger s_max"
        )
    total = 2.0 * (A - B) + tail
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

    The full value is prefactor * a^n * I where
    prefactor = 2 ((n+2)(n-1))^{n/2} c_{n-1},
    a = cosh rho sinh^n rho is the first-integral constant, and
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


def _power_sum(t, m):
    """(t^m - 1)/(t - 1) = sum_{k < m} t^k, evaluated stably."""
    return sum(t**k for k in range(m))


def sigma_integral_thm1(spec: SigmaIntegralSpec) -> float:
    """Total curvature integral of the ch_sphere family, either quadrature form.

    Each form folds the scale a^n into its integrand analytically, so that
    neither over- nor underflows at large (n, rho).  s-form: a^n sinh^{-m} rho
    = cosh^n rho / sinh rho (m = n^2 + 1) times the quadrature in s of
    (sinh rho / sinh r(s))^m along the profile, with an exponential tail
    bound.  Its first round starts on the s values of the profile tables'
    panel edges, on which r(s) is already resolved, so the profile is read
    once: there, and at s_max for the tail bound in the same batch.  t-form:
    with t = sinh rho tau, a^n I = cosh^n rho J for the hyperelliptic
    integral J from tau = 1, its inverse-square-root endpoint removed by the
    substitution tau = 1 + w^2, and a power-law tail bound taken in logs.
    ``quad`` holds a relative tolerance only: J falls as 1 / sinh rho (8e-23
    at n = 3, rho = 50), below any fixed absolute one.
    """
    n, rho = spec.n, spec.rho
    fam = spec.family  # rejects a rho whose energy constant overflows
    m = n * n + 1
    t0 = math.sinh(rho)
    if spec.method == "s":
        sol = solve_profile(fam, _SIGMA_S_MAX)
        at_s_max = [0.0, 0.0]  # (r, r') at s_max, read in each round's batch

        def integrand(s):
            r, rp = sol.state(np.append(s, _SIGMA_S_MAX))[:2]
            at_s_max[:] = float(r[-1]), float(rp[-1])
            return (t0 / np.sinh(r[:-1])) ** m

        edges = [piece.start[0] + piece.sign * piece.table.sums[:, 0] for piece in sol._pieces]
        val, _ = quad(integrand, 0.0, _SIGMA_S_MAX, points=np.concatenate(edges))
        # past s_max, r' >= v and sinh^{-m} r <= e^{-m (r - r_m)} sinh^{-m} r_m
        r_m, v = at_s_max
        tail = (t0 / math.sinh(r_m)) ** m / (m * v)
        if tail > SIGMA_TAIL_TOL * max(val, 1e-300):
            raise NeedsLargerDomain("increase s_max for the s-form tail")
        scale = math.cosh(rho) ** n / t0
    else:
        k, log_t0 = n * n - n + 1, math.log(t0)

        def integrand(w):
            # the radicand t^{2n+2} + t^{2n} - a^2 over t0^{2n} (tau - 1)
            tau = 1.0 + w * w
            S = t0 * t0 * _power_sum(tau, 2 * n + 2) + _power_sum(tau, 2 * n)
            return 2.0 * tau ** -k / np.sqrt(S)  # tau^-k underflows quietly

        # grow the truncation point until the analytic tail bound is small
        # relative to the accumulated value
        theta = max(3.0 / t0, 2.0)
        val = 0.0
        W_prev = 0.0
        for _ in range(12):
            W = math.sqrt(theta - 1.0)
            piece, _ = quad(integrand, W_prev, W)
            val += piece
            # a^2 / t^{2n+2} = (1 + t0^{-2}) / theta^{2n+2} at t = t0 theta
            log_theta = math.log(theta)
            ratio = math.exp(math.log1p(t0 * t0) - 2.0 * log_t0 - (2 * n + 2) * log_theta)
            tail = math.exp(-m * log_theta) / (m * t0 * math.sqrt(max(1.0 - ratio, 0.5)))
            if tail <= SIGMA_TAIL_TOL * max(val, 1e-300):
                break
            W_prev, theta = W, 4.0 * theta
        else:
            raise NeedsLargerDomain("t-form tail bound did not reach tolerance")
        scale = math.cosh(rho) ** n
    return spec.prefactor * scale * (val + tail)


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
# the amplitude of a detected period, the spread ptp(r) of a sampled profile
EQUILIBRIUM_PROXIMATE = 1e-3


@dataclass(frozen=True)
class PeriodResult:
    period: float
    closure_residual: float  # |r(T) - rho| + |r'(T)|: roundoff by construction
    amplitude: float  # max |r - rho| along the orbit


def detect_period(n: int, rho: float) -> PeriodResult | None:
    """Period T of the cp_sphere profile through (rho, 0).

    Returns None at the equilibrium radius arctan(sqrt(n)), which the
    profile reads as |r''(rho)| < 1e-12.  Otherwise T = 2 s(e_b), twice
    the arc length from rho to the far turn, read from the profile's
    quadrature tables (either side of the equilibrium).  The amplitude is
    |r - rho| at the far turn; the closure residual |r(T) - rho| + |r'(T)|
    is read from the profile at T, which continues the orbit by its period,
    so it is roundoff by construction.
    """
    sol = ProfileSolution(ProfileFamily("cp_sphere", n, rho), 1.0)
    if sol._equilibrium:
        return None
    T = sol.period
    (r_T, turn), (rp_T, _) = sol.state(np.array([T, T / 2]))[:2]
    return PeriodResult(T, float(abs(r_T - rho) + abs(rp_T)), float(abs(turn - rho)))
