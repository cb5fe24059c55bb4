"""Horizontal lifts of every immersion family.

Every family tag is a Legendre curve in H^3_1 or S^3 (or a plane curve)
composed with a seed: an (n-1)-dimensional minimal Lagrangian of CP^{n-1},
CH^{n-1} or C^{n-1}, given by the jets of its horizontal lift B (and, for
flat seeds, its potential f).  One row per tag, ``ImmersionFamilySpec.kind``, names the
ambient, the curve's profile row and the layout, i.e. where the block sits:

  sphere:  ( sinh r e^{i a(s)} B , cosh r e^{i b(s)} )   (sin, cos in CP^n)
  tube:    ( sinh r e^{i a(s)} , cosh r e^{i b(s)} B )
  horo:    e^{i F(s)} ( r B , (1 + r^2 (f - 1 - 2 i G))/2r ,
                             (1 + r^2 (f + 1 - 2 i G))/2r )
  flat:    gamma(s) B with gamma(s)^n = (s, c)

with the phase integrals carrying the first-integral constant
a = sqrt(energy), which is what makes the maps unit-speed in s and minimal
(a(s) < 0 in CP^n).  The geodesic families are the a = 0 member of their
layout's row: the real geodesic r = s (r = e^s on the horo row) with every
phase zero.  The model families thm1/2/3/5 and tg_sphere/tube/horo are
built over the totally geodesic seed of their layout (tg_sphere_cp,
tg_rh_ch, tg_plane_c), so each is its prop3/prop4/prop6a twin over that
seed; the others take a seed.

Every lift is therefore alpha(s) * beta(x) + delta(s) componentwise, and
that one factorization is the only lift code: ``_curve_factors`` gives the
curve factors alpha, delta as exact jets in s, the pair (S, C) read from
the profile row, and ``_block_factor`` the exact jet of the O(1) block
beta, the seed's jet placed by the layout (the built-in seeds' jets are
closed forms, their values the chart maps).  The evaluator, the
model-coordinate evaluator and the cached samples compose them, the jet
keeps them apart (``ProductJet``, every Hermitian pairing of the jets
taken factor by factor), and the Legendre curves are the first and last
columns of alpha.  No family takes a numerical step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import fd
from .domain import (
    DEFAULT_ODE_TOL,
    IMMERSION_FAMILIES as FAMILY_TAGS,
    SEED_KINDS,
    GeometryError,
    InvalidArgument,
)
from .model_spaces import (
    HermitianSpace,
    IsometryElement,
    ProjectivePoint,
    legendrian_residual,
    normalize_phase,
    product_gram,
    quadric_defect,
    relative_quadric_defect,
    umbilical_embed,
)
from .profiles import (
    FINE_ODE_TOL,
    PAIRS,
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
    "product_xi",
    "grid_order",
    "jet_rows",
    "ProductJet",
    "LegendreCurve",
    "SliceRecord",
    "make_seed",
    "seed_residuals",
    "build_immersion",
    "PROFILE_MARGIN",
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

@dataclass(frozen=True)
class _Kind:
    """A family tag's row: a Legendre curve composed with an (n-1)-dimensional
    block.

    ``ambient`` is "ch", "cp" or "c"; ``profile`` is the curve's row of
    ``profiles`` (None for the power curve), of which a ``geodesic`` curve
    is the a = 0 member; ``layout`` says where the block sits in the lift:
    first ("sphere"), last ("tube"), next to the potential ("horo") or alone
    ("flat").  ``model`` families are built over their layout's totally
    geodesic seed; the others take a seed.
    """

    ambient: str
    profile: str | None
    layout: str
    model: bool = False
    geodesic: bool = False

    @property
    def solved(self) -> bool:
        """The curve is solved from its profile row at a rho."""
        return self.profile is not None and not self.geodesic


# per layout: seed target, totally geodesic model seed, symmetry group
_LAYOUTS = {
    "sphere": ("cp", "tg_sphere_cp", "so_n"),
    "tube": ("ch", "tg_rh_ch", "so1_n"),
    "horo": ("c", "tg_plane_c", "euclid_n"),
    "flat": ("cp", None, None),
}

# one row per tag of FAMILY_TAGS (lagmin.domain, which the command line reads
# without numpy), in its order
_FAMILIES = {
    "thm1": _Kind("ch", "ch_sphere", "sphere", model=True),
    "thm2": _Kind("ch", "ch_tube", "tube", model=True),
    "thm3": _Kind("ch", "ch_horo", "horo", model=True),
    "thm5": _Kind("cp", "cp_sphere", "sphere", model=True),
    "tg_sphere": _Kind("ch", "ch_sphere", "sphere", model=True, geodesic=True),
    "tg_tube": _Kind("ch", "ch_tube", "tube", model=True, geodesic=True),
    "tg_horo": _Kind("ch", "ch_horo", "horo", model=True, geodesic=True),
    "prop3a": _Kind("ch", "ch_sphere", "sphere"),
    "prop3b": _Kind("ch", "ch_tube", "tube"),
    "prop3c": _Kind("ch", "ch_horo", "horo"),
    "prop4a": _Kind("ch", "ch_sphere", "sphere", geodesic=True),
    "prop4b": _Kind("ch", "ch_tube", "tube", geodesic=True),
    "prop4c": _Kind("ch", "ch_horo", "horo", geodesic=True),
    "prop6a": _Kind("cp", "cp_sphere", "sphere"),
    "prop6b": _Kind("cp", "cp_sphere", "sphere", geodesic=True),
    "cn_product": _Kind("c", None, "flat"),
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

    @property
    def dim(self) -> int:
        return len(self.names)


def _cat(*jets):
    """Jets (value, d1, d2) concatenated member by member, coordinates last."""
    return tuple(np.concatenate(m, axis=-1) for m in zip(*jets))


def _one_like(jet):
    """The jet of a constant coordinate 1, shaped like one column of ``jet``."""
    return tuple((np.zeros_like if k else np.ones_like)(m[..., :1]) for k, m in enumerate(jet))


def _fold_jet(factors: list, order) -> tuple:
    """Jet (value, d1, d2) of coordinates that are products of one-axis
    factors, ``factors[i]`` (3, M, C) the jets of the factors along chart
    axis i.  Every member is the product over the axes in ``order``, from a
    1, with the factors of the differentiated axes replaced by derivatives."""
    d, (M, C) = len(factors), factors[0].shape[1:]
    eye, dtype = np.eye(d, dtype=int), np.result_type(*factors)

    def prod(k):
        return reduce(np.multiply, [factors[i][k[i]] for i in order], np.ones((M, C)))

    d1, d2 = np.empty((M, d, C), dtype), np.empty((M, d, d, C), dtype)
    for i in range(d):
        d1[:, i] = prod(eye[i])
        for j in range(d):
            d2[:, i, j] = prod(eye[i] + eye[j])
    return prod(np.zeros(d, dtype=int)), d1, d2


def _sphere_factors(angles: np.ndarray, ones: int) -> list:
    """Per-angle factors (3, M, d + 1 + ones) of the points of S^d in
    R^{d+1} at nested angles (M, d), last angle periodic: coordinate k < d
    is sin a_1 ... sin a_k cos a_{k+1}, the last the product of all sines,
    and ``ones`` constant coordinates 1 follow."""
    angles = np.atleast_2d(np.asarray(angles, dtype=float))
    M, d = angles.shape
    factors = []
    for i in range(d):
        sin, cos = np.sin(angles[:, i]), np.cos(angles[:, i])
        f = np.zeros((3, M, d + 1 + ones))
        f[0] = 1.0
        f[:, :, i] = np.stack([cos, -sin, -cos])
        f[:, :, i + 1:d + 1] = np.stack([sin, cos, -sin])[..., None]
        factors.append(f)
    return factors


def _sphere_jet(angles: np.ndarray) -> tuple:
    """Jet of S^d at nested angles; the fold runs in angle order, which fixes
    the rounding of every stored sample."""
    factors = _sphere_factors(angles, 0)
    return _fold_jet(factors, range(len(factors)))


def _rh_jet(X: np.ndarray) -> tuple:
    """Jet of (sinh u y, cosh u) on RH^d at polar coordinates (u, angles), y
    on S^{d-1}; (sinh u, cosh u) for d = 1.  The angles fold before u, so
    values round as sinh u * y does."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d, u = X.shape[1], X[:, 0]
    sh, ch = np.sinh(u), np.cosh(u)
    head = np.stack([np.stack([sh, ch, sh])] * d + [np.stack([ch, sh, ch])], axis=-1)
    return _fold_jet([head] + _sphere_factors(X[:, 1:], 1), [*range(1, d), 0])


def sphere_chart(d: int) -> Chart:
    names = tuple(f"a{k+1}" for k in range(d))
    lo = np.r_[np.full(d - 1, 0.25), 0.0] if d > 1 else np.zeros(1)
    hi = np.r_[np.full(d - 1, math.pi - 0.25), 2 * math.pi] if d > 1 else np.array([2 * math.pi])
    periodic = tuple([False] * (d - 1) + [True])
    return Chart(names, lo, hi, periodic, lambda X: _sphere_jet(X)[0])


def rh_chart(d: int) -> Chart:
    """Geodesic polar chart of RH^d (a plain rapidity line for d = 1)."""
    to_model = lambda X: _rh_jet(X)[0]
    if d == 1:
        return Chart(("u",), np.array([-1.4]), np.array([1.4]), (False,), to_model)
    names = ("u",) + tuple(f"a{k+1}" for k in range(d - 1))
    lo = np.r_[0.15, np.full(max(d - 2, 0), 0.25), 0.0]
    hi = np.r_[1.6, np.full(max(d - 2, 0), math.pi - 0.25), 2 * math.pi]
    periodic = tuple([False] * (d - 1) + [True])
    return Chart(names, lo, hi, periodic, to_model)


def box_chart(d: int) -> Chart:
    names = tuple(f"x{k+1}" for k in range(d))
    return Chart(
        names,
        np.full(d, -1.2),
        np.full(d, 1.2),
        tuple([False] * d),
        lambda X: np.atleast_2d(np.asarray(X, dtype=float)),
    )


def clifford_chart(d: int) -> Chart:
    sub = sphere_chart(d - 1)
    names = ("t",) + sub.names
    lo = np.r_[0.0, sub.lo]
    hi = np.r_[2 * math.pi, sub.hi]
    periodic = (True,) + sub.periodic
    return Chart(names, lo, hi, periodic, None)


# ---------------------------------------------------------------------------
# seeds


@dataclass
class SeedLagrangian:
    """An (n-1)-dimensional minimal Lagrangian seed, given by its exact jets.

    ``jet`` maps chart points (M, dim) to the jet (value, d1, d2), shapes
    (M, C), (M, dim, C) and (M, dim, dim, C), of the lift to S^{2 dim + 1}
    subset C^{dim+1} (target cp), H^{2 dim + 1}_1 subset C^{dim+1} (target
    ch) or C^{dim} (target c); the flat target also carries
    ``potential_jet``, the jet of the potential f, shapes (M,), (M, dim)
    and (M, dim, dim), with Re f = |eta|^2 and v(Im f) = 2 <eta_* v, J eta>.
    The lift and the potential are the jets' values.  ``build_immersion``
    checks a given seed's jets against differences of their values.
    """

    kind: str
    dim: int
    target: str
    chart: Chart
    jet: object
    potential_jet: object | None = None

    def __post_init__(self):
        if self.target not in ("cp", "ch", "c"):
            raise InvalidArgument(f"unknown seed target {self.target!r}")
        if self.target == "c" and self.potential_jet is None:
            raise InvalidArgument("flat-target seeds must carry the potential f")


def make_seed(kind: str, dim: int) -> SeedLagrangian:
    """Built-in seeds, with their jets in closed form: the totally geodesic
    models and the Clifford family."""
    if dim < 1:
        raise InvalidArgument("seed dimension must be >= 1")
    tg = {"tg_sphere_cp": ("cp", sphere_chart, _sphere_jet), "tg_rh_ch": ("ch", rh_chart, _rh_jet)}
    if kind in tg:  # the jets of the chart maps
        target, chart, jet = tg[kind]
        return SeedLagrangian(kind, dim, target, chart(dim),
                              lambda X: tuple(m.astype(complex) for m in jet(X)))
    if kind == "tg_plane_c":

        def lift(X):
            X = np.atleast_2d(np.asarray(X))
            M, d = X.shape
            eye = np.repeat(np.eye(d, dtype=complex)[None], M, axis=0)
            return X.astype(complex), eye, np.zeros((M, d, d, d), dtype=complex)

        def potential(X):  # f = |x|^2
            X = np.atleast_2d(np.asarray(X, dtype=float))
            M, d = X.shape
            return (np.sum(X * X, axis=-1).astype(complex), (2.0 * X).astype(complex),
                    np.repeat(2.0 * np.eye(d, dtype=complex)[None], M, axis=0))

        return SeedLagrangian(kind, dim, "c", box_chart(dim), lift, potential)
    if kind == "clifford_cp":
        if dim < 2:
            raise InvalidArgument("clifford_cp needs dim >= 2")
        d = dim
        # the first d coordinates turn at rate -1/(d+1) in t, the last at d/(d+1)
        rate = np.r_[np.full(d, -1j / (d + 1)), 1j * d / (d + 1)]

        def jet(X):
            X = np.atleast_2d(np.asarray(X, dtype=float))
            t = X[:, 0]
            first = math.sqrt(d) * np.exp(-1j * t / (d + 1))
            e = np.stack([first] * d + [np.exp(1j * d * t / (d + 1))], axis=-1)
            head = np.stack([e, rate * e, rate * rate * e])
            z = _fold_jet([head] + _sphere_factors(X[:, 1:], 1), [*range(1, d), 0])
            return tuple(m / math.sqrt(d + 1) for m in z)

        return SeedLagrangian(kind, d, "cp", clifford_chart(d), jet)
    raise InvalidArgument(f"make_seed cannot build kind {kind!r}")


def _jet_defect(jet, X: np.ndarray) -> float:
    """Largest deviation of the derivatives of ``jet`` at X from central
    differences of its value, relative to max(|value|, 1)."""
    exact = jet(X)
    approx = fd.jet_partials(lambda Y: jet(Y)[0], X, fd.DEFAULT_FD_STEP)
    scale = max(float(np.max(np.abs(exact[0]))), 1.0)
    return max(float(np.max(np.abs(e - a))) for e, a in zip(exact[1:], approx[1:])) / scale


def seed_residuals(seed: SeedLagrangian, X: np.ndarray) -> dict:
    """Norm and (for flat targets) potential-compatibility residuals, and
    ``jet``, the defect of the seed's jets against central differences of
    their own values."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    eta, d_eta, _ = seed.jet(X)
    out = {"jet": _jet_defect(seed.jet, X)}
    space = Ambient(seed.target, seed.dim).space
    if space is not None:
        out["norm"] = float(np.max(quadric_defect(space, eta)))
    else:
        f, d_f, _ = seed.potential_jet(X)
        out["re_f"] = float(np.max(np.abs(f.real - np.sum(np.abs(eta) ** 2, axis=-1))))
        # v(Im f) = 2 <eta_* v, J eta> with J = i and the flat real metric
        rhs = 2.0 * np.einsum("mdc,mc->md", d_eta, np.conj(1j * eta)).real
        out["potential"] = float(np.max(np.abs(d_f.imag - rhs)))
        f_jet = lambda Y: tuple(m[..., None] for m in seed.potential_jet(Y))
        out["jet"] = max(out["jet"], _jet_defect(f_jet, X))
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
        if self.kind.solved and self.rho is None:
            raise InvalidArgument(f"{self.family} requires rho")
        if not self.kind.solved and self.rho is not None:
            raise InvalidArgument(f"{self.family} has no profile to solve and takes no rho")
        if self.kind.model and self.seed_kind is not None:
            raise InvalidArgument(f"{self.family} is built over its totally geodesic "
                                  "seed and takes no seed")
        if self.family == "cn_product" and self.c not in (0, 1):
            raise InvalidArgument("cn_product takes c in {0, 1}")
        if self.detuned and self.family != "thm1":
            raise InvalidArgument("only thm1 has the detuned control variant")

    @property
    def kind(self) -> _Kind:
        return _FAMILIES[self.family]

    @property
    def ambient(self) -> Ambient:
        return Ambient(self.kind.ambient, self.n)


@dataclass
class SampledImmersion:
    """A family's lift together with its cached sample grid.

    For built and loaded immersions one factorization, alpha(s) * beta(x)
    + delta(s), feeds every field that evaluates the lift.
    ``evaluate(s, X)`` is pure and vectorized over points (s_k, X_k);
    ``samples`` has shape (S, M, coords), the lift on the product
    ``s_values`` x ``x_grid``, and is immutable after construction, so
    instances can be shared across workers.  ``model_evaluate``
    (closed-formula families only) accepts raw model coordinates and is
    what the group-invariance check composes with isometry actions.
    ``jet_factors(s, X)`` returns the lift's exact jet on the product of S
    values s and M transverse points X as a ``ProductJet``, kept in its
    curve and block factors and never materialised as S*M rows;
    hand-built immersions without one fall back to whole-lift finite
    differences of ``evaluate``.
    """

    spec: ImmersionFamilySpec
    ambient: Ambient
    chart: Chart
    s_values: np.ndarray
    x_grid: np.ndarray
    samples: np.ndarray
    evaluate: object
    model_evaluate: object | None = None
    jet_factors: object | None = None
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
        steps = np.diff(np.sort(self.x_grid, axis=0), axis=0)
        return tuple(int(k) + 1 for k in np.count_nonzero(steps, axis=0))

    def evaluate_xi(self, Xi: np.ndarray) -> np.ndarray:
        """Chart evaluator on stacked coordinates (s, x): (M, 1+d) -> (M, C)."""
        Xi = np.atleast_2d(np.asarray(Xi, dtype=float))
        return self.evaluate(Xi[:, 0], Xi[:, 1:])

    def grid_xi(self) -> np.ndarray:
        """All cached sample coordinates, flattened to (S*M, 1+d)."""
        return product_xi(self.s_values, self.x_grid)


def product_xi(s: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The product of S values s and M points X (M, d) as stacked (s, x)
    rows (S*M, 1+d), s slowest."""
    S, M = len(s), len(X)
    return np.column_stack([np.repeat(s, M), np.tile(X, (S, 1))])


def grid_order(a: np.ndarray) -> np.ndarray:
    """An array in grid layout, trailing axes (S, M) for S values and M
    block points, as (S*M, ...) rows in ``grid_xi`` order (s slowest)."""
    return np.moveaxis(a.reshape(a.shape[:-2] + (-1,)), -1, 0)


def default_grid_spec(spec: ImmersionFamilySpec) -> tuple[float, float]:
    """Default s-window; small enough that finite-difference roundoff on the
    verification residuals stays well below the tolerance ladder."""
    kind = spec.kind
    if kind.geodesic and kind.layout == "sphere":  # the sphere shrinks at s = 0
        return (0.1, 2.6) if kind.ambient == "ch" else (0.05, math.pi / 2 - 0.05)
    if kind.layout == "flat" and spec.c == 0:
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


def power_curve(s: np.ndarray, c: int, n: int) -> np.ndarray:
    """gamma(s) = (s + i c)^{1/n} on a continuous branch, so gamma^n = (s, c)."""
    z = np.asarray(s, dtype=float) + 1j * float(c)
    ang = np.unwrap(np.angle(z)) if np.ndim(z) else np.angle(z)
    return np.abs(z) ** (1.0 / n) * np.exp(1j * ang / n)


# ---------------------------------------------------------------------------
# product-rule jets: Z(s, x) = alpha(s) * beta(x) + delta(s), componentwise


def _detuned_phases(profile: ProfileSolution, phases: PhaseIntegrals) -> PhaseIntegrals:
    """Phases of the thm1 negative control: the speed frozen at f(0)."""
    fam, f0 = phases.family, float(phases.phase_speed(0.0))

    def rates(r, rp):
        gb, dgb = fam.integrand(f0, 2, -2, r)  # f0 tanh^2 r
        return np.full_like(r, f0), np.zeros_like(r), gb, dgb * rp

    b_of = cumulative_integral(profile.s, *rates(profile.r, profile.rp)[2:])
    a_of = lambda x: f0 * np.asarray(x, dtype=float)
    speed = lambda x: np.full_like(np.asarray(x, dtype=float), f0)
    return PhaseIntegrals(fam, a_of, b_of, speed, rates)


def _mul_jet(u, v):
    """Jet (value, d/ds, d^2/ds^2), stacked on axis 0, of the product u v."""
    return np.stack([u[0] * v[0], u[1] * v[0] + u[0] * v[1],
                     u[2] * v[0] + 2.0 * u[1] * v[1] + u[0] * v[2]])


def _phase_jet(phase, speed, accel):
    """Jet of e^{i phase(s)} from the phase and its first two derivatives."""
    e = np.exp(1j * phase)
    return np.stack([e, 1j * speed * e, (1j * accel - speed**2) * e])


def _curve_factors(spec, profile, phases):
    """s -> (alpha, delta), the curve factors as jets of shape (3, S, C).

    Non-flat curves read one state: the jet of r and each phase with its
    two rates.  Solved curves take r and r' from the interpolant, r'' from
    the profile equation and the rates from ``phases.rates``; geodesic ones
    are their row's a = 0 member.  (S, C) is the row's pair.  ``delta`` is
    None where the lift has no additive curve term.
    """
    kind, n = spec.kind, spec.n

    if kind.layout == "flat":

        def curve(s):
            # gamma' = gamma / (n z) and gamma'' = gamma' (1 - n) / (n z), z = gamma^n
            g = power_curve(s, spec.c, n)
            g1 = g / (n * (s + 1j * spec.c))
            g2 = g1 * (1 - n) / (n * (s + 1j * spec.c))
            return np.stack([np.stack([g, g1, g2])] * n, axis=-1), None

        return curve

    if kind.geodesic:

        def state(s):
            # a = 0 in the first integrals: r' = 1, or r' = r on the horo row
            zero = np.zeros_like(s)
            if kind.layout == "horo":
                rj = np.stack([np.exp(s)] * 3)
            else:
                rj = np.stack([s, np.ones_like(s), zero])
            return rj, (zero, zero, zero), (zero, zero, zero)

    else:
        R, dR = profile.interpolant, profile.rp_interpolant()
        rpp_of = profile.family.second_derivative
        a_of, b_of, rates = phases.a_of_s, phases.b_of_s, phases.rates

        def state(s):
            r, rp = R(s), dR(s)
            sa, sa1, sb, sb1 = rates(r, rp)
            return np.stack([r, rp, rpp_of(r, rp)]), (a_of(s), sa, sa1), (b_of(s), sb, sb1)

    if kind.layout == "horo":

        def curve(s):
            # e^{iF} (r eta, P + r f/2, P + r + r f/2), P = 1/2r - r/2 - i r G
            rj, pa, (G, sb, sb1) = state(s)
            r, rp, rpp = rj
            E = _phase_jet(*pa)
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

        return curve

    trig = PAIRS[kind.profile]

    def curve(s):
        rj, pa, pb = state(s)
        S, C = trig.jets(rj)
        first, last = _mul_jet(S, _phase_jet(*pa)), _mul_jet(C, _phase_jet(*pb))
        # the block multiplies the n columns that are not the lone one
        cols = [first] + [last] * n if kind.layout == "tube" else [first] * n + [last]
        return np.stack(cols, axis=-1), None

    return curve


def _block_factor(layout, lift, potential):
    """X -> the jet (beta, d1 beta, d2 beta) of the O(1) transverse factor:
    the block's lift jet placed as ``layout`` says, constant columns 1 and,
    on the horo row, f/2 twice (values alone from 1-tuple jets)."""

    def beta(X):
        z = lift(X)
        if layout == "horo":
            half_f = tuple(m[..., None] / 2.0 for m in potential(X))
            return _cat(z, half_f, half_f)
        if layout == "tube":
            return _cat(_one_like(z), z)
        if layout == "flat":
            return z
        return _cat(z, _one_like(z))

    return beta


def jet_rows(D: int, order: int = 2) -> list:
    """The rows of every jet Gram as multi-indices of chart axes (axis 0 is
    s): d_i z as (i,) and, at order 2, d_i d_j z as (i, j) for i <= j; z
    itself is only a column."""
    rows = [(i,) for i in range(D)]
    if order == 2:
        rows += [(i, j) for i in range(D) for j in range(i, D)]
    return rows


@dataclass(frozen=True)
class ProductJet:
    """The jet of Z(s, x) = alpha(s) * beta(x) + delta(s) over the product of
    S values s and M transverse points x, kept as its factors.

    ``alpha`` and ``delta`` are the curve jets (3, S, C), exact, taken once
    on the s values (``delta`` is None where the lift has no additive
    term); ``block`` is the block's exact jet (beta, d1 beta[, d2 beta]) on
    the M points, (M, C), (M, d, C) and (M, d, d, C) (``value`` reads beta
    alone).
    """

    alpha: np.ndarray
    delta: np.ndarray | None
    block: tuple

    def factors(self, idx: tuple) -> tuple:
        """(A, B, Delta) of the partial d_idx Z = A(s) B(x) + Delta(s) by the
        product rule: A is the s-derivative of alpha of order idx.count(0),
        B the x-partial of beta along the other axes, and Delta the
        s-derivative of delta, zero once an x-axis is taken (None for a
        lift without delta)."""
        k = idx.count(0)
        xs = tuple(i - 1 for i in idx if i)
        B = self.block[len(xs)][(slice(None),) + xs]
        Delta = None
        if self.delta is not None:
            Delta = np.zeros_like(self.delta[k]) if xs else self.delta[k]
        return self.alpha[k], B, Delta

    def value(self) -> np.ndarray:
        """Z = alpha beta + delta on the grid as (S*M, C) rows in ``grid_xi``
        order (s slowest); where the lift has no delta nothing is added, so
        signed zeros of the product survive into the files."""
        z = self.alpha[0][:, None] * self.block[0]
        if self.delta is not None:
            z += self.delta[0][:, None]
        return z.reshape(-1, z.shape[-1])

    def gram(self, space: HermitianSpace | None) -> tuple:
        """(G, norms): the Hermitian Gram of the raw jets and the Euclidean
        norms |d_i z| from ``product_gram`` over the factors, in grid
        layout: G (R, V, S, M) and norms (D, S, M).
        Rows are ``jet_rows`` of the block's order; columns are z alone at
        order 1 and [z, d_l z] at order 2.  No (S*M)-row jet is built."""
        D, order = 1 + self.block[1].shape[1], len(self.block) - 1
        # factors of z, then of every row; the columns are the first V
        A, B, deltas = zip(*map(self.factors, [()] + jet_rows(D, order)))
        A, B = np.stack(A), np.stack(B)
        delta = None if self.delta is None else np.stack(deltas)
        R, V = len(A) - 1, 1 if order == 1 else 1 + D
        G = product_gram(space, A, B, delta, np.repeat(np.arange(1, 1 + R), V),
                         np.tile(np.arange(V), R))
        diag = np.arange(1, 1 + D)
        norms = np.sqrt(product_gram(None, A, B, delta, diag, diag).real)
        return G.reshape((R, V) + G.shape[1:]), norms


def _make_jet_factors(curve, beta):
    """(s, X) -> ProductJet: the curve factors taken once on the S values
    ``s``, the block's jet once on the M points ``X``."""

    def jet_factors(s, X):
        alpha, delta = curve(np.asarray(s, dtype=float))
        return ProductJet(alpha, delta, beta(np.atleast_2d(np.asarray(X, dtype=float))))

    return jet_factors


def _distinct_rows(X: np.ndarray) -> tuple:
    """(rows, at): the distinct rows of X (N, k) and, per row of X, where it
    sits among them, by one lexsort."""
    order = np.lexsort(X.T[::-1])
    X = X[order]
    new = np.empty(len(X), dtype=bool)
    new[:1] = True
    np.any(X[1:] != X[:-1], axis=1, out=new[1:])
    at = np.empty(len(X), dtype=np.intp)
    at[order] = np.cumsum(new) - 1
    return X[new], at


def _lift(curve, beta):
    """evaluate(s, X) = alpha(s) * beta(X) + delta(s) at the points (s_k, X_k).
    The curve is taken once per distinct s and the block once per distinct
    row of X, then spread back to the points, so a stacked grid costs one
    curve and one block evaluation, as in ``ProductJet.value``, and the
    values are its values bit for bit.  Where the lift has no delta nothing
    is added, so signed zeros of the product survive into the files."""

    def evaluate(s, X):
        s, s_at = _distinct_rows(np.asarray(s, dtype=float).reshape(-1, 1))
        X, X_at = _distinct_rows(np.atleast_2d(np.asarray(X, dtype=float)))
        alpha, delta = curve(s[:, 0])
        z = alpha[0][s_at] * beta(X)[0][X_at]
        return z if delta is None else z + delta[0][s_at]

    return evaluate


def _validate_window(spec: ImmersionFamilySpec, s_window) -> tuple[float, float]:
    s_lo, s_hi = s_window
    if not (math.isfinite(s_lo) and math.isfinite(s_hi) and s_hi > s_lo):
        raise InvalidArgument(f"s window ({s_lo!r}, {s_hi!r}) is not a finite nonempty interval")
    kind = spec.kind
    if kind.geodesic and kind.layout == "sphere":
        if kind.ambient == "ch" and s_lo <= 0:
            raise InvalidArgument("this family lives on s > 0")
        if kind.ambient == "cp" and not (0 < s_lo and s_hi < math.pi / 2):
            raise InvalidArgument(f"{spec.family} lives on (0, pi/2)")
    if kind.layout == "flat" and spec.c == 0 and s_lo <= 0:
        raise InvalidArgument("the c=0 product curve passes through 0; use s > 0")
    return float(s_lo), float(s_hi)


def _resolve_seed(spec: ImmersionFamilySpec, seed: SeedLagrangian | None):
    """(seed, block): the seed the family was given (None for the model
    families) and the block its lift composes, which for the model families
    is the totally geodesic seed of their layout."""
    kind, n = spec.kind, spec.n
    target, model_seed, _ = _LAYOUTS[kind.layout]
    if kind.model:
        if seed is not None:
            raise InvalidArgument(f"{spec.family} does not take a seed")
        return None, make_seed(model_seed, n - 1)
    if seed is None and spec.seed_kind is not None:
        seed = make_seed(spec.seed_kind, n - 1)
    if seed is None:
        raise InvalidArgument(f"{spec.family} requires a seed")
    # a file records the spec, so the spec must name the seed it is built over
    if seed.kind != spec.seed_kind:
        raise InvalidArgument(
            f"{spec.family}: the seed is {seed.kind!r} but the spec's seed_kind"
            f" is {spec.seed_kind!r}"
        )
    if seed.target != target:
        raise InvalidArgument(f"{spec.family} needs a seed with target {target!r}")
    if seed.dim != n - 1:
        raise InvalidArgument(f"{spec.family} at n={n} needs a seed of dimension {n-1}")
    return seed, seed


def _check_profile(spec: ImmersionFamilySpec, profile: ProfileSolution | None) -> None:
    """A solved family needs the profile of its own row at its (n, rho); the
    others take none (a file can carry any profile block)."""
    kind = spec.kind
    if not kind.solved:
        if profile is not None:
            raise InvalidArgument(f"{spec.family} has no profile to solve but was "
                                  f"given a {profile.family.tag} profile")
        return
    if profile is None:
        raise InvalidArgument(f"{spec.family} needs its {kind.profile} profile")
    fam = profile.family
    if (fam.tag, fam.n, fam.rho) != (kind.profile, spec.n, spec.rho):
        raise InvalidArgument(
            f"{spec.family} at n={spec.n}, rho={spec.rho!r} needs the {kind.profile} "
            f"profile at those values, got {fam.tag} at n={fam.n}, rho={fam.rho!r}"
        )


def assemble_immersion(
    spec: ImmersionFamilySpec,
    profile: ProfileSolution | None,
    s_values: np.ndarray,
    x_grid: np.ndarray,
    samples: np.ndarray | None = None,
    seed: SeedLagrangian | None = None,
) -> SampledImmersion:
    """Assemble the lift over an existing profile and sample grid.

    The curve factors and the block's jet are built once; ``evaluate``,
    ``model_evaluate``, the cached ``samples`` and ``jet_factors`` all
    compose them.  Used both by ``build_immersion`` and when rebuilding
    from serialized data; in the latter case ``samples`` carries the
    stored lifts, which are kept verbatim so that consistency checks can
    compare them against the rebuilt lift.  Otherwise one product jet on
    the grid gives the samples and the ``header`` (``_sample_invariants``).
    """
    seed, block = _resolve_seed(spec, seed)
    kind = spec.kind
    _check_profile(spec, profile)
    phases = phase_integrals(profile) if profile is not None else None
    lift_phases = _detuned_phases(profile, phases) if spec.detuned else phases
    curve = _curve_factors(spec, profile, lift_phases)
    beta = _block_factor(kind.layout, block.jet, block.potential_jet)
    jet_factors = _make_jet_factors(curve, beta)

    s_values = np.asarray(s_values, dtype=float)
    x_grid = np.atleast_2d(np.asarray(x_grid, dtype=float))
    header = {}
    if samples is None:
        pj = jet_factors(s_values, x_grid)
        samples = pj.value().reshape(len(s_values), len(x_grid), -1)
        header = _sample_invariants(spec.ambient.space, samples, pj)
    else:
        samples = np.asarray(samples, dtype=complex)

    model_evaluate = None
    if kind.model:  # the block's value in model coordinates: its identity lift
        ident = lambda Xm: (np.atleast_2d(np.asarray(Xm)).astype(complex),)
        pot = lambda Xm: (np.sum(np.atleast_2d(np.asarray(Xm)) ** 2, axis=-1).astype(complex),)
        model_evaluate = _lift(curve, _block_factor(kind.layout, ident, pot))

    return SampledImmersion(
        spec=spec,
        ambient=spec.ambient,
        chart=block.chart,
        s_values=s_values,
        x_grid=x_grid,
        samples=samples,
        evaluate=_lift(curve, beta),
        model_evaluate=model_evaluate,
        jet_factors=jet_factors,
        profile=profile,
        phases=phases,
        seed=seed,
        group=_LAYOUTS[kind.layout][2] if kind.model else None,
        header=header,
    )


# how far past the sampled |s| a family's profile is solved
PROFILE_MARGIN = 0.5


def build_immersion(
    spec: ImmersionFamilySpec,
    grid: tuple[int, int] = (64, 64),
    s_window: tuple[float, float] | None = None,
    ode_tol: float = DEFAULT_ODE_TOL,
    seed: SeedLagrangian | None = None,
) -> SampledImmersion:
    """Build a family's lift and cache it on an S x M grid.

    ``grid`` is (s-points, total transverse points); the transverse budget
    is split evenly across the d chart axes and rounded to per^d points
    (64x48 at n = 3 gives 7^2 = 49).  Profiles are solved internally
    on a window 0.5 wider than the sample window.  A given seed is
    validated on the grid (its jets too), and quadric membership and the
    Legendrian (horizontality) residual of the cached samples go into
    ``header``.
    """
    seed, block = _resolve_seed(spec, seed)
    if s_window is None:
        s_window = default_grid_spec(spec)
    s_lo, s_hi = _validate_window(spec, s_window)

    profile = None
    if spec.kind.solved:
        pf = ProfileFamily(spec.kind.profile, spec.n, spec.rho)
        span = max(abs(s_lo), abs(s_hi)) + PROFILE_MARGIN
        profile = solve_profile(pf, span, tol=ode_tol)

    S, M = grid
    s_values = np.linspace(s_lo, s_hi, S)
    x_grid = _split_transverse(M, block.chart)
    if seed is not None:
        _validate_seed(seed, x_grid)
    imm = assemble_immersion(spec, profile, s_values, x_grid, seed=seed)
    if imm.header["quadric"] > 1e-8:
        raise GeometryError(
            f"cached lifts leave the quadric: defect {imm.header['quadric']:.2e}"
        )
    return imm


def _validate_seed(seed: SeedLagrangian, x_grid: np.ndarray) -> None:
    sample = x_grid[:: max(1, len(x_grid) // 16)]
    res = seed_residuals(seed, sample)
    for key, tol, fault in (
        ("jet", 1e-4, "seed jet disagrees with central differences of its lift"),
        ("norm", 1e-8, "seed lift leaves its model quadric"),
        ("re_f", 1e-8, "seed potential violates Re f = |eta|^2"),
        ("potential", 1e-4, "seed potential violates v(Im f) = 2<eta_* v, J eta>"),
    ):
        if res.get(key, 0.0) > tol:
            raise InvalidArgument(f"{fault}: {res[key]:.2e}")


def _sample_invariants(space: HermitianSpace | None, samples: np.ndarray,
                       pj: ProductJet) -> dict:
    """Quadric-membership and Legendrian residuals of the samples (S, M, C),
    the value of ``pj``.  (d_i z, z) and |d_i z| come from the factored Gram
    of its order-1 part, the pairings verify reads from its order-2 Gram, so
    the two residuals agree bit for bit."""
    if space is None:
        return {"quadric": 0.0, "horizontal": 0.0}
    quadric = float(np.max(relative_quadric_defect(space, samples)))
    gram, norms = ProductJet(pj.alpha, pj.delta, pj.block[:2]).gram(space)
    c, norms = np.moveaxis(gram[:, 0], 0, -1), np.moveaxis(norms, 0, -1)  # (S, M, D)
    horizontal = float(np.max(legendrian_residual(samples, norms, c)))
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
    A(s) = diag(e^{i a(s)} I_n, e^{i b(s)}).  ``dephase_residual`` is the
    largest distance of the slice's lifts, dephased by A(s)^{-1}, from the
    umbilical embedding of the geodesic sphere of radius r(s), relative to
    the lifts' scale."""
    if imm.spec.family != "thm1" or imm.spec.detuned:
        raise InvalidArgument("slices are defined for the thm1 family")
    n = imm.spec.n
    space = imm.ambient.space
    a, b = float(imm.phases.a_of_s(s)), float(imm.phases.b_of_s(s))
    diag = np.r_[np.full(n, np.exp(1j * a)), np.exp(1j * b)]
    A = IsometryElement(space, np.diag(diag))
    lifts = imm.evaluate(np.full(len(imm.x_grid), float(s)), imm.x_grid)
    radius = float(imm.profile.r_of(s))
    # align the residual global phase on the largest coordinate per sample
    aligned = normalize_phase(lifts * np.conj(diag)[None, :])
    sphere = umbilical_embed("geodesic_sphere", imm.chart.to_model(imm.x_grid), radius)
    residual = float(np.max(np.abs(aligned - sphere)) / max(1.0, np.max(np.abs(lifts))))
    center = ProjectivePoint(space, np.r_[np.zeros(n), 1.0].astype(complex))
    return SliceRecord(center, radius, A, lifts, residual)


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


def _family_curve(spec: ImmersionFamilySpec, s) -> LegendreCurve:
    """The family's Legendre curve: the first and last columns of its curve
    factor, i.e. the lift at a point where the block is B = e_1, over a
    profile solved at ``FINE_ODE_TOL``."""
    s = np.asarray(s, dtype=float)
    profile = phases = None
    if spec.kind.solved:
        pf = ProfileFamily(spec.kind.profile, spec.n, spec.rho)
        profile = solve_profile(pf, float(np.max(np.abs(s))) + PROFILE_MARGIN,
                                tol=FINE_ODE_TOL)
        phases = phase_integrals(profile)
    alpha, _ = _curve_factors(spec, profile, phases)(s)
    return LegendreCurve(spec.ambient.space.signature, s, *alpha[..., [0, -1]])


def ch_sphere_curve(n: int, rho: float, s: np.ndarray) -> LegendreCurve:
    """The profile curve of the ch_sphere family on the sample points s."""
    return _family_curve(ImmersionFamilySpec("thm1", n, rho), s)


def cp_sphere_curve(n: int, rho: float, s: np.ndarray) -> LegendreCurve:
    """The profile curve of the cp_sphere family, as a Legendre curve in S^3."""
    return _family_curve(ImmersionFamilySpec("thm5", n, rho), s)


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
    sh, ch = PAIRS["ch_sphere"].jets(rj)
    c1 = _mul_jet(sh, _phase_jet(cumulative_integral(s, f, fp)(s), f, fp))
    c2 = _mul_jet(ch, _phase_jet(cumulative_integral(s, g, gp)(s), g, gp))
    return LegendreCurve("hyperbolic", s, *np.stack([c1, c2], axis=-1))
