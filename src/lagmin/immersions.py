"""Horizontal lifts of every immersion family.

Each family's lift (s, x_chart) -> C^{n+1} (C^n for the flat products)
lives on the appropriate quadric.  The hyperbolic-model families compose a
Legendre curve in H^3_1 with a block that is either a totally geodesic
model factor or the horizontal lift of a lower-dimensional minimal
Lagrangian seed:

  ch_sphere curve:  ( sinh r e^{i a(s)} B , cosh r e^{i b(s)} )
  ch_tube curve:    ( sinh r e^{i a(s)} , cosh r e^{i b(s)} B )
  ch_horo curve:    e^{i F(s)} ( r B , (1 + r^2 (f - 1 - 2 i G))/2r ,
                                       (1 + r^2 (f + 1 - 2 i G))/2r )
  cp_sphere curve:  ( sin r e^{i a(s)} B , cos r e^{i b(s)} )   [a(s) < 0]

with the phase integrals carrying the first-integral constant
a = sqrt(energy), which is what makes the maps unit-speed in s and minimal.
The totally geodesic versions replace the curve by the real geodesic
(sinh s, cosh s) (or (sin s, cos s) upstairs), and the complex-Euclidean
product is gamma(s) * B with gamma(s)^n = (s, c).

Every lift is therefore alpha(s) * beta(x) + delta(s) componentwise, and
that one factorization is the only lift code: ``_curve_factors`` gives the
curve factors alpha, delta as exact jets in s and ``_block_factor`` the
O(1) block beta.  The evaluator, the model-coordinate evaluator, the cached
samples and the product-rule jet all compose them (the jet
finite-differences the block in x alone), and the Legendre curves are the
first and last columns of alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fd
from .model_spaces import (
    GeometryError,
    HermitianSpace,
    InvalidArgument,
    IsometryElement,
    ProjectivePoint,
    herm_form,
    quadric_defect,
)
from .profiles import (
    PhaseIntegrals,
    ProfileFamily,
    ProfileSolution,
    cumulative_integral,
    phase_integrals,
    solve_profile,
)

__all__ = [
    "FAMILY_TAGS",
    "SEED_KINDS",
    "Chart",
    "Ambient",
    "SeedLagrangian",
    "ImmersionFamilySpec",
    "SampledImmersion",
    "LegendreCurve",
    "SliceRecord",
    "make_seed",
    "seed_residuals",
    "build_immersion",
    "assemble_immersion",
    "default_grid_spec",
    "slice_at",
    "normal_position_angles",
    "ch_sphere_curve",
    "cp_sphere_curve",
    "real_geodesic_curve",
    "wavy_control_curve",
    "power_curve",
]

FAMILY_TAGS = (
    "thm1", "thm2", "thm3", "thm5",
    "tg_sphere", "tg_tube", "tg_horo",
    "prop3a", "prop3b", "prop3c",
    "prop4a", "prop4b", "prop4c",
    "prop6a", "prop6b",
    "cn_product",
)

SEED_KINDS = ("tg_sphere_cp", "tg_rh_ch", "tg_plane_c", "clifford_cp", "custom")

# profile family backing each ODE-based immersion family
_PROFILE_OF = {
    "thm1": "ch_sphere", "prop3a": "ch_sphere",
    "thm2": "ch_tube", "prop3b": "ch_tube",
    "thm3": "ch_horo", "prop3c": "ch_horo",
    "thm5": "cp_sphere", "prop6a": "cp_sphere",
}

# claimed symmetry group of the closed-formula families
_GROUP_OF = {
    "thm1": "so_n", "tg_sphere": "so_n", "thm5": "so_n",
    "thm2": "so1_n", "tg_tube": "so1_n",
    "thm3": "euclid_n", "tg_horo": "euclid_n",
}

_SEEDED = ("prop3a", "prop3b", "prop3c", "prop4a", "prop4b", "prop4c",
           "prop6a", "prop6b", "cn_product")

_SEED_TARGET = {
    "prop3a": "cp", "prop4a": "cp", "prop6a": "cp", "prop6b": "cp", "cn_product": "cp",
    "prop3b": "ch", "prop4b": "ch",
    "prop3c": "c", "prop4c": "c",
}


# ---------------------------------------------------------------------------
# charts


@dataclass(frozen=True)
class Chart:
    """Coordinate chart of the transverse model factor.

    ``to_model`` maps chart points (M, dim) to model coordinates; the grid
    window (lo, hi) keeps clear of chart degeneracies (sphere poles, the
    hyperbolic polar origin), which is safe because all verification
    residuals are chart-invariant maxima.
    """

    names: tuple
    lo: np.ndarray
    hi: np.ndarray
    periodic: tuple
    to_model: object
    model_kind: str | None

    @property
    def dim(self) -> int:
        return len(self.names)


def _sphere_coords(angles: np.ndarray) -> np.ndarray:
    """Angles (M, d) -> points of S^d in R^{d+1} (last angle periodic)."""
    angles = np.atleast_2d(np.asarray(angles, dtype=float))
    M, d = angles.shape
    out = np.empty((M, d + 1))
    sin_running = np.ones(M)
    for k in range(d):
        out[:, k] = sin_running * np.cos(angles[:, k])
        sin_running = sin_running * np.sin(angles[:, k])
    out[:, d] = sin_running
    return out


def sphere_chart(d: int) -> Chart:
    names = tuple(f"a{k+1}" for k in range(d))
    lo = np.r_[np.full(d - 1, 0.25), 0.0] if d > 1 else np.zeros(1)
    hi = np.r_[np.full(d - 1, math.pi - 0.25), 2 * math.pi] if d > 1 else np.array([2 * math.pi])
    periodic = tuple([False] * (d - 1) + [True])
    return Chart(names, lo, hi, periodic, _sphere_coords, "sphere")


def rh_chart(d: int) -> Chart:
    """Geodesic polar chart of RH^d (a plain rapidity line for d = 1)."""
    if d == 1:
        to_model = lambda X: np.stack(
            [np.sinh(np.asarray(X)[:, 0]), np.cosh(np.asarray(X)[:, 0])], axis=-1
        )
        return Chart(("u",), np.array([-1.4]), np.array([1.4]), (False,), to_model, "hyperbolic")

    def to_model(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        u = X[:, 0]
        y = _sphere_coords(X[:, 1:])
        return np.concatenate([np.sinh(u)[:, None] * y, np.cosh(u)[:, None]], axis=-1)

    names = ("u",) + tuple(f"a{k+1}" for k in range(d - 1))
    lo = np.r_[0.15, np.full(max(d - 2, 0), 0.25), 0.0]
    hi = np.r_[1.6, np.full(max(d - 2, 0), math.pi - 0.25), 2 * math.pi]
    periodic = tuple([False] * (d - 1) + [True])
    return Chart(names, lo, hi, periodic, to_model, "hyperbolic")


def box_chart(d: int, half_width: float = 1.2) -> Chart:
    names = tuple(f"x{k+1}" for k in range(d))
    return Chart(
        names,
        np.full(d, -half_width),
        np.full(d, half_width),
        tuple([False] * d),
        lambda X: np.atleast_2d(np.asarray(X, dtype=float)),
        "euclidean",
    )


def clifford_chart(d: int) -> Chart:
    sub = sphere_chart(d - 1)
    names = ("t",) + sub.names
    lo = np.r_[0.0, sub.lo]
    hi = np.r_[2 * math.pi, sub.hi]
    periodic = (True,) + sub.periodic
    return Chart(names, lo, hi, periodic, None, None)


# ---------------------------------------------------------------------------
# seeds


@dataclass
class SeedLagrangian:
    """An (n-1)-dimensional minimal Lagrangian seed supplying lifts.

    ``lift`` maps chart points to S^{2 dim + 1} subset C^{dim+1} (target cp),
    H^{2 dim + 1}_1 subset C^{dim+1} (target ch) or C^{dim} (target c); the
    flat target additionally carries the potential with Re f = |eta|^2 and
    v(Im f) = 2 <eta_* v, J eta>.
    """

    kind: str
    dim: int
    target: str
    chart: Chart
    lift: object
    potential: object | None = None

    def __post_init__(self):
        if self.target not in ("cp", "ch", "c"):
            raise InvalidArgument(f"unknown seed target {self.target!r}")
        if self.target == "c" and self.potential is None:
            raise InvalidArgument("flat-target seeds must carry the potential f")


def make_seed(kind: str, dim: int) -> SeedLagrangian:
    """Built-in seeds: the totally geodesic models and the Clifford family."""
    if dim < 1:
        raise InvalidArgument("seed dimension must be >= 1")
    if kind == "tg_sphere_cp":
        chart = sphere_chart(dim)
        return SeedLagrangian(kind, dim, "cp", chart,
                              lambda X: chart.to_model(X).astype(complex))
    if kind == "tg_rh_ch":
        chart = rh_chart(dim)
        return SeedLagrangian(kind, dim, "ch", chart,
                              lambda X: chart.to_model(X).astype(complex))
    if kind == "tg_plane_c":
        chart = box_chart(dim)

        def potential(X):
            X = np.atleast_2d(np.asarray(X, dtype=float))
            return np.sum(X * X, axis=-1).astype(complex)

        return SeedLagrangian(kind, dim, "c", chart,
                              lambda X: np.atleast_2d(np.asarray(X)).astype(complex),
                              potential)
    if kind == "clifford_cp":
        if dim < 2:
            raise InvalidArgument("clifford_cp needs dim >= 2")
        d = dim
        chart = clifford_chart(d)

        def lift(X):
            X = np.atleast_2d(np.asarray(X, dtype=float))
            t = X[:, 0]
            y = _sphere_coords(X[:, 1:])
            first = math.sqrt(d) * np.exp(-1j * t / (d + 1))[:, None] * y
            last = np.exp(1j * d * t / (d + 1))[:, None]
            return np.concatenate([first, last], axis=-1) / math.sqrt(d + 1)

        return SeedLagrangian(kind, d, "cp", chart, lift)
    raise InvalidArgument(f"make_seed cannot build kind {kind!r}")


def seed_residuals(seed: SeedLagrangian, X: np.ndarray, h: float = 1e-4) -> dict:
    """Norm and (for flat targets) potential-compatibility residuals."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    lift = seed.lift(X)
    out = {}
    if seed.target == "cp":
        out["norm"] = float(np.max(np.abs(np.sum(np.abs(lift) ** 2, axis=-1) - 1.0)))
    elif seed.target == "ch":
        space = HermitianSpace(seed.dim, "hyperbolic")
        out["norm"] = float(np.max(np.abs(herm_form(space, lift, lift).real + 1.0)))
    else:
        eta = lift
        f = seed.potential(X)
        out["re_f"] = float(np.max(np.abs(f.real - np.sum(np.abs(eta) ** 2, axis=-1))))
        d_eta = fd.first_partials(seed.lift, X, h)
        d_f = fd.first_partials(lambda Y: seed.potential(Y)[:, None], X, h)[..., 0]
        # v(Im f) = 2 <eta_* v, J eta> with J = i and the flat real metric
        rhs = 2.0 * np.einsum("mdc,mc->md", d_eta, np.conj(1j * eta)).real
        out["potential"] = float(np.max(np.abs(d_f.imag - rhs)))
    return out


# ---------------------------------------------------------------------------
# family specs and sampled immersions


@dataclass(frozen=True)
class Ambient:
    """Ambient model: CH^n / CP^n quadrics or flat C^n."""

    kind: str  # "ch" | "cp" | "c"
    n: int

    @property
    def space(self) -> HermitianSpace | None:
        if self.kind == "ch":
            return HermitianSpace(self.n, "hyperbolic")
        if self.kind == "cp":
            return HermitianSpace(self.n, "spherical")
        return None

    @property
    def coords(self) -> int:
        return self.n + 1 if self.kind != "c" else self.n


@dataclass(frozen=True)
class ImmersionFamilySpec:
    family: str
    n: int
    rho: float | None = None
    seed_kind: str | None = None
    c: int = 1          # cn_product: Im gamma^n
    detuned: bool = False  # thm1 negative control: phase speed frozen at f(0)

    def __post_init__(self):
        if self.family not in FAMILY_TAGS:
            raise InvalidArgument(f"unknown immersion family {self.family!r}")
        if self.n < 2:
            raise InvalidArgument("immersion families need n >= 2")
        if self.family in _PROFILE_OF and self.rho is None:
            raise InvalidArgument(f"{self.family} requires rho")
        if self.family == "cn_product" and self.c not in (0, 1):
            raise InvalidArgument("cn_product takes c in {0, 1}")
        if self.detuned and self.family != "thm1":
            raise InvalidArgument("only thm1 has the detuned control variant")

    @property
    def ambient(self) -> Ambient:
        if self.family in ("thm5", "prop6a", "prop6b"):
            return Ambient("cp", self.n)
        if self.family == "cn_product":
            return Ambient("c", self.n)
        return Ambient("ch", self.n)


@dataclass
class SampledImmersion:
    """A family's lift together with its cached sample grid.

    For built and loaded immersions one factorization, alpha(s) * beta(x)
    + delta(s), feeds every field that evaluates the lift.
    ``evaluate(s, X)`` is pure and vectorized; ``samples`` has shape
    (S, M, coords) and is immutable after construction, so instances can be
    shared across workers.  ``model_evaluate`` (closed-formula families
    only) accepts raw model coordinates and is what the group-invariance
    check composes with isometry actions.  ``product_jet(Xi, h, order)``
    returns the lift's value and chart partials at stacked (s, x) points by
    the product rule; hand-built immersions without one fall back to
    whole-lift finite differences of ``evaluate``.
    """

    spec: ImmersionFamilySpec
    ambient: Ambient
    chart: Chart
    s_values: np.ndarray
    x_grid: np.ndarray
    samples: np.ndarray
    evaluate: object
    model_evaluate: object | None = None
    product_jet: object | None = None
    profile: ProfileSolution | None = None
    phases: PhaseIntegrals | None = None
    seed: SeedLagrangian | None = None
    group: str | None = None
    header: dict = field(default_factory=dict)

    def __post_init__(self):
        for a in (self.s_values, self.x_grid, self.samples):
            a.setflags(write=False)

    @property
    def transverse_shape(self) -> tuple:
        """Points per chart axis of the product mesh ``x_grid``, read off the
        grid itself (files record only the total)."""
        return tuple(len(np.unique(col)) for col in self.x_grid.T)

    def evaluate_xi(self, Xi: np.ndarray) -> np.ndarray:
        """Chart evaluator on stacked coordinates (s, x): (M, 1+d) -> (M, C)."""
        Xi = np.atleast_2d(np.asarray(Xi, dtype=float))
        return self.evaluate(Xi[:, 0], Xi[:, 1:])

    def grid_xi(self) -> np.ndarray:
        """All cached sample coordinates, flattened to (S*M, 1+d)."""
        S, M = len(self.s_values), len(self.x_grid)
        si = np.repeat(self.s_values, M)
        xi = np.tile(self.x_grid, (S, 1))
        return np.column_stack([si, xi])


def default_grid_spec(spec: ImmersionFamilySpec) -> tuple[float, float]:
    """Default s-window; small enough that finite-difference roundoff on the
    verification residuals stays well below the tolerance ladder."""
    fam = spec.family
    if fam in ("tg_sphere", "prop4a"):
        return (0.1, 2.6)
    if fam == "prop6b":
        return (0.05, math.pi / 2 - 0.05)
    if fam == "cn_product" and spec.c == 0:
        return (0.2, 2.7)
    return (-2.5, 2.5)


def _split_transverse(M: int, chart: Chart) -> np.ndarray:
    """Mesh the chart box with per^d points, per = round(M^(1/d)) >= 2 on
    each of the d axes."""
    d = chart.dim
    per = max(2, int(round(M ** (1.0 / d))))
    axes = []
    for k in range(d):
        if chart.periodic[k]:
            axes.append(np.linspace(chart.lo[k], chart.hi[k], per, endpoint=False))
        else:
            axes.append(np.linspace(chart.lo[k], chart.hi[k], per))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def _block_provider(spec: ImmersionFamilySpec, seed: SeedLagrangian | None):
    """Transverse block B(x) (and potential f for horospherical curves)."""
    n = spec.n
    fam = spec.family
    if seed is not None:
        want = _SEED_TARGET[fam]
        if seed.target != want:
            raise InvalidArgument(f"{fam} needs a seed with target {want!r}")
        if seed.dim != n - 1:
            raise InvalidArgument(f"{fam} at n={n} needs a seed of dimension {n-1}")
        if want == "c":
            return seed.chart, seed.lift, seed.potential
        return seed.chart, seed.lift, None
    if fam in ("thm1", "tg_sphere", "thm5"):
        chart = sphere_chart(n - 1)
    elif fam in ("thm2", "tg_tube"):
        chart = rh_chart(n - 1)
    elif fam in ("thm3", "tg_horo"):
        chart = box_chart(n - 1)
    else:
        raise InvalidArgument(f"{fam} requires a seed")
    lift = lambda X: chart.to_model(X).astype(complex)
    if fam in ("thm3", "tg_horo"):
        potential = lambda X: np.sum(np.atleast_2d(np.asarray(X)) ** 2, axis=-1).astype(complex)
        return chart, lift, potential
    return chart, lift, None


def power_curve(s: np.ndarray, c: int, n: int) -> np.ndarray:
    """gamma(s) = (s + i c)^{1/n} on a continuous branch, so gamma^n = (s, c)."""
    z = np.asarray(s, dtype=float) + 1j * float(c)
    ang = np.unwrap(np.angle(z)) if np.ndim(z) else np.angle(z)
    return np.abs(z) ** (1.0 / n) * np.exp(1j * ang / n)


# ---------------------------------------------------------------------------
# product-rule jets: Z(s, x) = alpha(s) * beta(x) + delta(s), componentwise


def _detuned_phases(profile: ProfileSolution, phases: PhaseIntegrals) -> PhaseIntegrals:
    """Phases of the thm1 negative control: the speed frozen at f(0)."""
    f0 = float(phases.phase_speed(0.0))
    gb = lambda r: f0 * np.tanh(r) ** 2
    dgb = lambda r: 2.0 * f0 * np.tanh(r) / np.cosh(r) ** 2
    b_of = cumulative_integral(profile.s, gb(profile.r), dgb(profile.r) * profile.rp)
    a_of = lambda x: f0 * np.asarray(x, dtype=float)
    speed = lambda x: np.full_like(np.asarray(x, dtype=float), f0)
    rates = lambda r, rp: (np.full_like(r, f0), np.zeros_like(r), gb(r), dgb(r) * rp)
    return PhaseIntegrals(phases.family, a_of, b_of, speed, rates)


def _mul_jet(u, v):
    """Jet (value, d/ds, d^2/ds^2), stacked on axis 0, of the product u v."""
    return np.stack([u[0] * v[0], u[1] * v[0] + u[0] * v[1],
                     u[2] * v[0] + 2.0 * u[1] * v[1] + u[0] * v[2]])


def _phase_jet(phase, speed, accel):
    """Jet of e^{i phase(s)} from the phase and its first two derivatives."""
    e = np.exp(1j * phase)
    return np.stack([e, 1j * speed * e, (1j * accel - speed**2) * e])


def _trig_jets(t, hyperbolic: bool):
    """Jets of (sinh t, cosh t), or (sin t, cos t), from the jet t = (t, t', t'')."""
    t0, t1, t2 = t
    if hyperbolic:
        sh, ch, sgn = np.sinh(t0), np.cosh(t0), 1.0
    else:
        sh, ch, sgn = np.sin(t0), np.cos(t0), -1.0
    # sh' = ch and ch' = sgn sh
    return (np.stack([sh, ch * t1, sgn * sh * t1**2 + ch * t2]),
            np.stack([ch, sgn * sh * t1, sgn * (ch * t1**2 + sh * t2)]))


def _curve_factors(spec, profile, phases):
    """s -> (alpha, delta), the curve factors as jets of shape (3, S, C).

    Profile families take r and r' from the interpolant, r'' from the
    profile equation and the phase derivatives from ``phases.rates``; the
    geodesic and power curves are closed forms.  ``delta`` is None where
    the lift has no additive curve term.
    """
    fam, n = spec.family, spec.n

    if fam in _PROFILE_OF:
        R, dR = profile.interpolant, profile.rp_interpolant()
        rpp_of = profile.family.second_derivative
        a_of, b_of, rates = phases.a_of_s, phases.b_of_s, phases.rates

        def curve(s):
            r, rp = R(s), dR(s)
            rpp = rpp_of(r, rp)
            rj = np.stack([r, rp, rpp])
            sa, sa1, sb, sb1 = rates(r, rp)
            if fam in ("thm3", "prop3c"):
                # e^{iF} (r eta, P + r f/2, P + r + r f/2), P = 1/2r - r/2 - i r G
                E = _phase_jet(a_of(s), sa, sa1)
                G = b_of(s)
                P = np.stack([
                    0.5 / r - 0.5 * r - 1j * r * G,
                    -0.5 * rp / r**2 - 0.5 * rp - 1j * (rp * G + r * sb),
                    -0.5 * rpp / r**2 + rp**2 / r**3 - 0.5 * rpp
                    - 1j * (rpp * G + 2.0 * rp * sb + r * sb1),
                ])
                Er = _mul_jet(E, rj)
                zero = np.zeros_like(Er)
                return (np.stack([Er] * (n + 1), axis=-1),
                        np.stack([zero] * (n - 1) + [_mul_jet(E, P), _mul_jet(E, P + rj)],
                                 axis=-1))
            t0, t1 = _trig_jets(rj, fam not in ("thm5", "prop6a"))
            c1 = _mul_jet(t0, _phase_jet(a_of(s), sa, sa1))
            c2 = _mul_jet(t1, _phase_jet(b_of(s), sb, sb1))
            cols = [c1] + [c2] * n if fam in ("thm2", "prop3b") else [c1] * n + [c2]
            return np.stack(cols, axis=-1), None

        return curve

    def geodesic(s):
        return np.stack([s, np.ones_like(s), np.zeros_like(s)])

    if fam in ("tg_sphere", "prop4a", "prop6b", "tg_tube", "prop4b"):

        def curve(s):
            t0, t1 = _trig_jets(geodesic(s), fam != "prop6b")
            cols = [t0] + [t1] * n if fam in ("tg_tube", "prop4b") else [t0] * n + [t1]
            return np.stack(cols, axis=-1).astype(complex), None

        return curve

    if fam in ("tg_horo", "prop4c"):

        def curve(s):
            # (e^s eta, e^s f/2 - sinh s, e^s f/2 + cosh s)
            sh, ch = _trig_jets(geodesic(s), True)
            es = np.exp(s)
            zero = np.zeros_like(sh)
            alpha = np.stack([np.stack([es, es, es])] * (n + 1), axis=-1)
            delta = np.stack([zero] * (n - 1) + [-sh, ch], axis=-1)
            return alpha.astype(complex), delta.astype(complex)

        return curve

    if fam == "cn_product":

        def curve(s):
            # gamma' = gamma / (n z) and gamma'' = gamma' (1 - n) / (n z), z = gamma^n
            g = power_curve(s, spec.c, n)
            g1 = g / (n * (s + 1j * spec.c))
            g2 = g1 * (1 - n) / (n * (s + 1j * spec.c))
            return np.stack([np.stack([g, g1, g2])] * n, axis=-1), None

        return curve

    raise InvalidArgument(f"no curve factor for family {fam!r}")


def _block_factor(spec, block, potential):
    """x -> beta(x), the O(1) transverse factor of the lift."""
    fam = spec.family

    def ones(X):
        return np.ones((len(X), 1), dtype=complex)

    if fam in ("thm3", "prop3c", "tg_horo", "prop4c"):

        def beta(X):
            half_f = potential(X)[:, None] / 2.0
            return np.concatenate([block(X), half_f, half_f], axis=-1)

        return beta
    if fam in ("thm2", "prop3b", "tg_tube", "prop4b"):
        return lambda X: np.concatenate([ones(X), block(X)], axis=-1)
    if fam == "cn_product":
        return block
    return lambda X: np.concatenate([block(X), ones(X)], axis=-1)


def _distinct_rows(X: np.ndarray):
    """Distinct rows of X and, for each row of X, its index among them."""
    order = np.lexsort(X.T[::-1])
    Xs = X[order]
    new = np.r_[True, np.any(Xs[1:] != Xs[:-1], axis=1)]
    at = np.empty(len(X), dtype=np.intp)
    at[order] = np.cumsum(new) - 1
    return Xs[new], at


def _make_product_jet(curve, beta):
    """Jet (value, d1, d2) of alpha(s) * beta(x) + delta(s) by the product rule.

    The curve factors are exact; only beta is finite-differenced, in x
    alone, with the ``fd`` stencils.  Both factors are evaluated once per
    distinct s and x of the batch and broadcast.  ``order=1`` stops at d1.
    """

    def product_jet(Xi, h, order: int = 2):
        Xi = np.atleast_2d(np.asarray(Xi, dtype=float))
        s, s_at = _distinct_rows(Xi[:, :1])
        X, x_at = _distinct_rows(Xi[:, 1:])
        alpha, delta = curve(s[:, 0])
        alpha = alpha[:, s_at]
        if order == 1:
            b0, b1 = beta(X), fd.first_partials(beta, X, h)
        else:
            b0, b1, b2 = fd.jet_partials(beta, X, h)
            b2 = b2[x_at]
        b0, b1 = b0[x_at], b1[x_at]

        def in_s(k):  # k-th s-partial at fixed x
            z = alpha[k] * b0
            return z if delta is None else z + delta[k, s_at]

        value = in_s(0)
        d1 = np.concatenate([in_s(1)[:, None], alpha[0][:, None] * b1], axis=1)
        if order == 1:
            return value, d1
        d2 = np.empty(d1.shape[:2] + d1.shape[1:], dtype=complex)
        d2[:, 0, 0] = in_s(2)
        d2[:, 0, 1:] = d2[:, 1:, 0] = alpha[1][:, None] * b1
        d2[:, 1:, 1:] = alpha[0][:, None, None] * b2
        return value, d1, d2

    return product_jet


def _lift(curve, beta):
    """evaluate(s, X) = alpha(s) * beta(X) + delta(s), the curve taken once
    per distinct s.  Where the lift has no delta nothing is added, so
    signed zeros of the product survive into the files."""

    def evaluate(s, X):
        s, s_at = _distinct_rows(np.asarray(s, dtype=float).reshape(-1, 1))
        alpha, delta = curve(s[:, 0])
        z = alpha[0, s_at] * beta(X)
        return z if delta is None else z + delta[0, s_at]

    return evaluate


def _validate_window(spec: ImmersionFamilySpec, s_window) -> tuple[float, float]:
    s_lo, s_hi = s_window
    if not s_hi > s_lo:
        raise InvalidArgument("empty s window")
    if spec.family in ("tg_sphere", "prop4a") and s_lo <= 0:
        raise InvalidArgument("this family lives on s > 0")
    if spec.family == "prop6b" and not (0 < s_lo and s_hi < math.pi / 2):
        raise InvalidArgument("prop6b lives on (0, pi/2)")
    if spec.family == "cn_product" and spec.c == 0 and s_lo <= 0:
        raise InvalidArgument("the c=0 product curve passes through 0; use s > 0")
    return float(s_lo), float(s_hi)


def _resolve_seed(spec: ImmersionFamilySpec, seed: SeedLagrangian | None):
    if spec.family in _SEEDED:
        if seed is None and spec.seed_kind is not None:
            seed = make_seed(spec.seed_kind, spec.n - 1)
        if seed is None:
            raise InvalidArgument(f"{spec.family} requires a seed")
    elif seed is not None:
        raise InvalidArgument(f"{spec.family} does not take a seed")
    return seed


def assemble_immersion(
    spec: ImmersionFamilySpec,
    profile: ProfileSolution | None,
    s_values: np.ndarray,
    x_grid: np.ndarray,
    samples: np.ndarray | None = None,
    seed: SeedLagrangian | None = None,
) -> SampledImmersion:
    """Assemble the lift over an existing profile and sample grid.

    The curve factors and the block factor are built once; ``evaluate``,
    ``model_evaluate``, the cached ``samples`` and ``product_jet`` all
    compose them.  Used both by ``build_immersion`` and when rebuilding
    from serialized data; in the latter case ``samples`` carries the
    stored lifts, which are kept verbatim so that consistency checks can
    compare them against the rebuilt lift.
    """
    seed = _resolve_seed(spec, seed)
    chart, block, potential = _block_provider(spec, seed)
    phases = phase_integrals(profile) if profile is not None else None
    lift_phases = _detuned_phases(profile, phases) if spec.detuned else phases
    curve = _curve_factors(spec, profile, lift_phases)
    beta = _block_factor(spec, block, potential)

    s_values = np.asarray(s_values, dtype=float)
    x_grid = np.atleast_2d(np.asarray(x_grid, dtype=float))
    if samples is None:
        alpha, delta = curve(s_values)
        samples = alpha[0][:, None] * beta(x_grid)[None]
        if delta is not None:
            samples += delta[0][:, None]
    else:
        samples = np.asarray(samples, dtype=complex)

    model_evaluate = None
    if spec.family in _GROUP_OF and seed is None:
        ident = lambda Xm: np.atleast_2d(np.asarray(Xm)).astype(complex)
        pot = lambda Xm: np.sum(np.atleast_2d(np.asarray(Xm)) ** 2, axis=-1).astype(complex)
        model_evaluate = _lift(curve, _block_factor(spec, ident, pot))

    return SampledImmersion(
        spec=spec,
        ambient=spec.ambient,
        chart=chart,
        s_values=s_values,
        x_grid=x_grid,
        samples=samples,
        evaluate=_lift(curve, beta),
        model_evaluate=model_evaluate,
        product_jet=_make_product_jet(curve, beta),
        profile=profile,
        phases=phases,
        seed=seed,
        group=_GROUP_OF.get(spec.family),
    )


def build_immersion(
    spec: ImmersionFamilySpec,
    grid: tuple[int, int] = (64, 64),
    s_window: tuple[float, float] | None = None,
    ode_tol: float = 1e-10,
    seed: SeedLagrangian | None = None,
    fd_step: float = 1e-3,
    check: bool = True,
) -> SampledImmersion:
    """Build a family's lift and cache it on an S x M grid.

    ``grid`` is (s-points, total transverse points); the transverse budget
    is split evenly across the d chart axes and rounded to per^d points
    (64x48 at n = 3 gives 7^2 = 49).  Profiles are solved internally
    on a window 0.5 wider than the sample window.  When ``check`` is on,
    quadric membership and the Legendrian (horizontality) residual of the
    cached samples go into ``header``.
    """
    seed = _resolve_seed(spec, seed)
    if s_window is None:
        s_window = default_grid_spec(spec)
    s_lo, s_hi = _validate_window(spec, s_window)

    profile = None
    if spec.family in _PROFILE_OF:
        pf = ProfileFamily(_PROFILE_OF[spec.family], spec.n, spec.rho)
        span = max(abs(s_lo), abs(s_hi)) + 0.5
        profile = solve_profile(pf, span, tol=ode_tol)

    chart, _, _ = _block_provider(spec, seed)
    S, M = grid
    s_values = np.linspace(s_lo, s_hi, S)
    x_grid = _split_transverse(M, chart)
    if check and seed is not None:
        _validate_seed(seed, x_grid)
    imm = assemble_immersion(spec, profile, s_values, x_grid, seed=seed)
    if check:
        imm.header.update(_sample_invariants(imm, fd_step))
        if imm.header["quadric"] > 1e-8:
            raise GeometryError(
                f"cached lifts leave the quadric: defect {imm.header['quadric']:.2e}"
            )
    return imm


def _validate_seed(seed: SeedLagrangian, x_grid: np.ndarray) -> None:
    sample = x_grid[:: max(1, len(x_grid) // 16)]
    res = seed_residuals(seed, sample)
    if res.get("norm", 0.0) > 1e-8:
        raise InvalidArgument(f"seed lift leaves its model quadric: {res['norm']:.2e}")
    if res.get("re_f", 0.0) > 1e-8:
        raise InvalidArgument(f"seed potential violates Re f = |eta|^2: {res['re_f']:.2e}")
    if res.get("potential", 0.0) > 1e-4:
        raise InvalidArgument(
            f"seed potential violates v(Im f) = 2<eta_* v, J eta>: {res['potential']:.2e}"
        )


def _sample_invariants(imm: SampledImmersion, fd_step: float) -> dict:
    """Quadric-membership and Legendrian residuals of the cached samples."""
    flat = imm.samples.reshape(-1, imm.samples.shape[-1])
    space = imm.ambient.space
    if space is None:
        return {"quadric": 0.0, "horizontal": 0.0}
    scale = np.maximum(np.sum(np.abs(flat) ** 2, axis=-1), 1.0)
    quadric = float(np.max(quadric_defect(space, flat) / scale))
    _, d1 = imm.product_jet(imm.grid_xi(), fd_step, order=1)
    inner = herm_form(space, d1, flat[:, None, :])
    norms = np.sqrt(np.sum(np.abs(d1) ** 2, axis=-1))
    denom = np.maximum(norms * np.sqrt(np.sum(np.abs(flat) ** 2, axis=-1))[:, None], 1.0)
    horizontal = float(np.max(np.abs(inner) / denom))
    return {"quadric": quadric, "horizontal": horizontal}


# ---------------------------------------------------------------------------
# the foliation by real-form slices (ch_sphere family)


@dataclass(frozen=True)
class SliceRecord:
    center: ProjectivePoint
    radius: float
    subspace: IsometryElement
    samples: np.ndarray
    dephase_residual: float


def slice_at(imm: SampledImmersion, s: float) -> SliceRecord:
    """The s-slice of the ch_sphere family: a geodesic sphere of radius r(s)
    centered at [(0,..,0,1)] inside the real form determined by
    A(s) = diag(e^{i a(s)} I_n, e^{i b(s)})."""
    if imm.spec.family != "thm1" or imm.spec.detuned:
        raise InvalidArgument("slices are defined for the thm1 family")
    n = imm.spec.n
    space = imm.ambient.space
    a, b = float(imm.phases.a_of_s(s)), float(imm.phases.b_of_s(s))
    diag = np.r_[np.full(n, np.exp(1j * a)), np.exp(1j * b)]
    A = IsometryElement(space, np.diag(diag))
    lifts = imm.evaluate(np.full(len(imm.x_grid), float(s)), imm.x_grid)
    dephased = lifts * np.conj(diag)[None, :]
    # align the residual global phase on the largest coordinate per sample
    k = np.argmax(np.abs(dephased), axis=-1)
    piv = np.take_along_axis(dephased, k[:, None], axis=-1)[:, 0]
    aligned = dephased * np.conj(piv / np.abs(piv))[:, None]
    residual = float(np.max(np.abs(aligned.imag)) / max(1.0, np.max(np.abs(lifts))))
    center = ProjectivePoint(space, np.r_[np.zeros(n), 1.0].astype(complex))
    return SliceRecord(center, float(imm.profile.r_of(s)), A, lifts, residual)


def normal_position_angles(phases: PhaseIntegrals, s: float, s_prime: float) -> np.ndarray:
    """Characteristic angles between the real forms at s and s'.

    Computed from the relative matrix A(s) A(s')^{-1} with the last
    coordinate's phase factored out; all n angles coincide (normal
    position) and equal (a(s') - a(s)) - (b(s') - b(s)) reduced mod pi
    into (0, pi).
    """
    if phases.family.tag != "ch_sphere":
        raise InvalidArgument("normal position applies to the ch_sphere family")
    if s == s_prime:
        raise InvalidArgument("degenerate pair: s == s'")
    n = phases.family.n
    da = float(phases.a_of_s(s_prime) - phases.a_of_s(s))
    db = float(phases.b_of_s(s_prime) - phases.b_of_s(s))
    rel = np.diag(np.r_[np.full(n, np.exp(1j * (-da))), np.exp(1j * (-db))])
    dephased = np.diag(rel) * np.conj(np.diag(rel)[-1])
    theta = np.angle(np.conj(dephased[:n]))
    return np.mod(theta, math.pi)


# ---------------------------------------------------------------------------
# Legendre curves in H^3_1 / S^3


@dataclass
class LegendreCurve:
    """A sampled horizontal curve gamma = (gamma_1, gamma_2) with derivatives."""

    signature: str  # "hyperbolic" | "spherical"
    s: np.ndarray
    gamma: np.ndarray
    d1: np.ndarray
    d2: np.ndarray

    @property
    def space(self) -> HermitianSpace:
        return HermitianSpace(1, self.signature)

    def invariant_residuals(self) -> dict:
        space = self.space
        norm = herm_form(space, self.gamma, self.gamma).real - space.quadric_target
        horiz = herm_form(space, self.d1, self.gamma)
        return {
            "norm": float(np.max(np.abs(norm))),
            "horizontal": float(np.max(np.abs(horiz))),
        }


def _family_curve(spec: ImmersionFamilySpec, s, ode_tol: float | None = None) -> LegendreCurve:
    """The family's Legendre curve: the first and last columns of its curve
    factor, i.e. the lift at a point where the block is B = e_1."""
    s = np.asarray(s, dtype=float)
    profile = phases = None
    if spec.family in _PROFILE_OF:
        pf = ProfileFamily(_PROFILE_OF[spec.family], spec.n, spec.rho)
        profile = solve_profile(pf, float(np.max(np.abs(s))) + 0.5, tol=ode_tol)
        phases = phase_integrals(profile)
    alpha, _ = _curve_factors(spec, profile, phases)(s)
    return LegendreCurve(spec.ambient.space.signature, s, *alpha[..., [0, -1]])


def ch_sphere_curve(n: int, rho: float, s: np.ndarray, ode_tol: float = 1e-11) -> LegendreCurve:
    """The profile curve of the ch_sphere family on the sample points s."""
    return _family_curve(ImmersionFamilySpec("thm1", n, rho), s, ode_tol)


def cp_sphere_curve(n: int, rho: float, s: np.ndarray, ode_tol: float = 1e-11) -> LegendreCurve:
    """The profile curve of the cp_sphere family, as a Legendre curve in S^3."""
    return _family_curve(ImmersionFamilySpec("thm5", n, rho), s, ode_tol)


def real_geodesic_curve(s: np.ndarray) -> LegendreCurve:
    """The totally geodesic curve (sinh s, cosh s); both phase speeds vanish."""
    return _family_curve(ImmersionFamilySpec("tg_sphere", 2), s)


def wavy_control_curve(s: np.ndarray) -> LegendreCurve:
    """Unit-speed horizontal control curve with r = 1 + 0.3 sin s.

    Legendrian by construction but not a minimality profile; the mean
    curvature functional is visibly nonzero along it.  The phase speeds are
    a' = f = sqrt(1 - r'^2) / tanh r and b' = f tanh^2 r, integrated on the
    samples.
    """
    s = np.asarray(s, dtype=float)
    rj = np.stack([1.0 + 0.3 * np.sin(s), 0.3 * np.cos(s), -0.3 * np.sin(s)])
    r, rp, rpp = rj
    tt, w = np.tanh(r), np.sqrt(1.0 - rp**2)
    f = w / tt
    fp = (-rp * rpp / w) / tt - w * rp / (tt**2 * np.cosh(r) ** 2)
    g = f * tt**2
    gp = fp * tt**2 + 2.0 * f * tt * rp / np.cosh(r) ** 2
    sh, ch = _trig_jets(rj, True)
    c1 = _mul_jet(sh, _phase_jet(cumulative_integral(s, f, fp)(s), f, fp))
    c2 = _mul_jet(ch, _phase_jet(cumulative_integral(s, g, gp)(s), g, gp))
    return LegendreCurve("hyperbolic", s, *np.stack([c1, c2], axis=-1))
