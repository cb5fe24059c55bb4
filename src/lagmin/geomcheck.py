"""Differential geometry of sampled immersions, one pass per batch.

Jets come from the immersion's product-rule jet: every family's lift is
alpha(s) * beta(x) + delta(s) componentwise, with the curve factors alpha
and delta differentiated in closed form from the profile ODE and only the
O(1) transverse block beta finite-differenced in x (``fd`` stencils, step
h).  Hand-built immersions without a product jet fall back to central
differences of the whole lift evaluator.

``frame_batch`` then does the geometry once for all checks: the first
partials are projected to the horizontal space of the quadric (h_i), and
one Hermitian Gram matrix (h_i, h_j) gives both the induced metric
g = Re and the Kahler pullback Omega(h_i, h_j) = Re (i h_i, h_j) = -Im.
Its Cholesky factor L and T = L^{-1} give the Gram-Schmidt
g-orthonormal frame e_a = sum_k T_ak h_k.  ``second_fundamental_form``
pairs the ambient second partials w_ij with the h_l in one batched
matmul, P = (w_ij, h_l); the tangential part is removed with
g^{-1} = T^t T applied to Re P, the components along z and i z never
pair with horizontal vectors, and the remainder of a Lagrangian immersion
lies in J(tangent), so h_{abk} = sum T_ai T_bj T_kl Im (sigma_ij, h_l).
All residuals are dimensionless (normalized by coordinate or metric
scale) so one tolerance table, ``TOLERANCES``, applies across families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fd
from .immersions import LegendreCurve, SampledImmersion
from .model_spaces import (
    GeometryError,
    HermitianSpace,
    InvalidArgument,
    herm_form,
    herm_gram,
    projective_distance,
    quadric_defect,
    random_euclid,
    random_so,
    random_so1,
    embed_isometry,
)
from .profiles import sigma_integral_numeric

__all__ = [
    "OutOfDomain",
    "DegeneracyError",
    "NotLagrangianError",
    "JetBatch",
    "FrameBatch",
    "SFFBatch",
    "CheckReport",
    "jet",
    "frame_batch",
    "induced_metric",
    "lagrangian_residual",
    "horizontality_residual",
    "second_fundamental_form",
    "minimality_residual",
    "invariance_residual",
    "legendre_functional",
    "power_curve_curvature",
    "expected_metric",
    "expected_sff_thm1",
    "metric_residual",
    "sff_residuals",
    "curvature_field",
    "sigma_numeric_report",
    "run_checks",
    "DEFAULT_FD_STEP",
    "TOLERANCES",
]

DEFAULT_FD_STEP = 1e-3

# Lagrangian residual above which the SFF is not extracted at all; a guard,
# not a check verdict, so it is not part of TOLERANCES (which reports record)
_SFF_LAGRANGIAN_TOL = 1e-5

# seeded group elements and sample points of the invariance check
_INVARIANCE_SAMPLES = 12


class OutOfDomain(GeometryError):
    """Jet base point too close to the profile domain boundary."""


class DegeneracyError(GeometryError):
    """Induced metric failed to be positive definite."""


class NotLagrangianError(GeometryError):
    """Second-fundamental-form extraction requires a Lagrangian sample."""


@dataclass
class JetBatch:
    """Lift value with first and second chart partials at a batch of points.

    ``xi`` stacks (s, x) chart coordinates; coordinate 0 is always s.
    """

    xi: np.ndarray
    value: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    h: float


def jet(imm: SampledImmersion, xi: np.ndarray, h: float = DEFAULT_FD_STEP) -> JetBatch:
    """Jet of the lift at chart points ``xi``.

    Uses the immersion's product-rule jet when it has one (only the block
    is finite-differenced, with step ``h``), else central differences of
    the whole lift evaluator.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    if imm.profile is not None:
        margin = 2.0 * h
        if np.max(np.abs(xi[:, 0])) + margin > imm.profile.s_max:
            raise OutOfDomain("jet base point within 2h of the profile boundary")
    if imm.product_jet is not None:
        value, d1, d2 = imm.product_jet(xi, h)
    else:
        value, d1, d2 = fd.jet_partials(imm.evaluate_xi, xi, h)
    return JetBatch(xi, value, d1, d2, h)


@dataclass
class SFFBatch:
    """Second-fundamental-form data in a g-orthonormal frame.

    ``coeffs`` holds h_{ijk} with sigma(e_i, e_j) = sum_k h_{ijk} J e_k;
    ``mean_curvature`` the components H_k = (1/n) sum_i h_{iik};
    ``sigma_sq`` is |sigma|^2 summed over both (i, j) orders.
    """

    coeffs: np.ndarray
    mean_curvature: np.ndarray
    sigma_sq: np.ndarray
    metric: np.ndarray

    @property
    def mean_curvature_norm(self) -> np.ndarray:
        return np.sqrt(np.sum(self.mean_curvature**2, axis=-1))

    @property
    def sigma_norm(self) -> np.ndarray:
        return np.sqrt(self.sigma_sq)

    def symmetry_residual(self) -> float:
        """Total-symmetry defect of h_{ijk}, normalized by the largest entry."""
        h = self.coeffs
        worst = np.zeros(h.shape[0])
        for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            axes = (0,) + tuple(1 + p for p in perm)
            worst = np.maximum(worst, np.max(np.abs(h - h.transpose(axes)), axis=(1, 2, 3)))
        scale = np.maximum(np.max(np.abs(h), axis=(1, 2, 3)), 1.0)
        return float(np.max(worst / scale))


@dataclass
class FrameBatch:
    """The geometry of one jet batch, computed once and read by every check.

    ``partials`` are the horizontal projections h_i of the first partials,
    ``vertical`` the pairings (d_i z, z) that projection removed (None in
    the flat ambient), ``metric`` g_ij = Re (h_i, h_j) and ``omega`` the
    Kahler-form pullback Re (i h_i, h_j).  ``chol`` is the lower Cholesky
    factor L of g and ``chol_inv`` its inverse T, whose rows give the
    Gram-Schmidt frame e_a = sum_k T_ak h_k; both are None when g is not
    positive definite.  ``sff`` is filled in by ``second_fundamental_form``.
    """

    jets: JetBatch
    space: HermitianSpace | None
    partials: np.ndarray
    vertical: np.ndarray | None
    metric: np.ndarray
    omega: np.ndarray
    chol: np.ndarray | None
    chol_inv: np.ndarray | None
    sff: SFFBatch | None = None

    def lagrangian_pointwise(self) -> np.ndarray:
        """|Omega(h_i, h_j)| / sqrt(g_ii g_jj), max over (i, j) per point."""
        diag = np.diagonal(self.metric, axis1=1, axis2=2)
        scale = np.sqrt(np.abs(diag[:, :, None] * diag[:, None, :]))
        return np.max(np.abs(self.omega) / np.maximum(scale, 1e-12), axis=(1, 2))

    def require_frame(self) -> np.ndarray:
        if self.chol_inv is None:
            raise DegeneracyError("induced metric is not positive definite")
        return self.chol_inv


def frame_batch(imm: SampledImmersion, jets: JetBatch) -> FrameBatch:
    """Horizontal partials, metric, Kahler pullback and frame of a jet batch."""
    space = imm.ambient.space
    d1 = jets.d1
    hp, vertical = d1, None
    if space is not None:
        z = jets.value[:, None, :]
        coeff = herm_gram(space, d1, z)  # (d_i z, z), shape (M, D, 1)
        vertical = coeff[..., 0]
        hp = d1 + coeff * z if space.signature == "hyperbolic" else d1 - coeff * z
    gram = herm_gram(space, hp, hp)
    g = gram.real
    try:
        L = np.linalg.cholesky(g)
        T = np.linalg.inv(L)
    except np.linalg.LinAlgError:
        L = T = None
    # Re (i h_i, h_j) = -Im (h_i, h_j)
    return FrameBatch(jets, space, hp, vertical, g, -gram.imag, L, T)


def _frames(imm: SampledImmersion, batch) -> FrameBatch:
    return batch if isinstance(batch, FrameBatch) else frame_batch(imm, batch)


def _jets(batch) -> JetBatch:
    return batch.jets if isinstance(batch, FrameBatch) else batch


def induced_metric(imm: SampledImmersion, batch) -> np.ndarray:
    """Riemannian metric g_ij = Re (h_i, h_j) of horizontal-projected partials."""
    fb = _frames(imm, batch)
    fb.require_frame()
    return fb.metric


def horizontality_residual(imm: SampledImmersion, batch) -> float:
    """Legendrian residual |(d_i z, z)| / (|d_i z| |z|), max over the batch.

    Vacuously zero for the flat ambient (no fibration to be horizontal for).
    """
    if imm.ambient.space is None:
        return 0.0
    fb = _frames(imm, batch)
    jets = fb.jets
    nd = np.sqrt(np.sum(np.abs(jets.d1) ** 2, axis=-1))
    nz = np.sqrt(np.sum(np.abs(jets.value) ** 2, axis=-1))[:, None]
    return float(np.max(np.abs(fb.vertical) / np.maximum(nd * nz, 1.0)))


def lagrangian_residual(imm: SampledImmersion, batch) -> float:
    """Kahler-form pullback residual |Omega(h_i, h_j)| / sqrt(g_ii g_jj)."""
    return float(np.max(_frames(imm, batch).lagrangian_pointwise()))


def second_fundamental_form(imm: SampledImmersion, batch) -> SFFBatch:
    """Extract h_{ijk} and the mean curvature from ambient second partials.

    ``batch`` is a JetBatch or a FrameBatch; a FrameBatch keeps the result
    in its ``sff`` field for the checks that read it later.
    """
    fb = _frames(imm, batch)
    lag = fb.lagrangian_pointwise()
    if np.max(lag) > _SFF_LAGRANGIAN_TOL:
        raise NotLagrangianError(
            f"Lagrangian residual {np.max(lag):.2e} exceeds {_SFF_LAGRANGIAN_TOL:.0e}"
        )
    T = fb.require_frame()
    space, hp = fb.space, fb.partials
    M, D, C = hp.shape
    # the normal part of w_ij = d_i d_j z pairs with J h_l as Im (sigma_ij, h_l),
    # sigma_ij = w_ij - c_ijk h_k with g c = Re (w_ij, h_k) the tangential
    # coefficients; w's components along z and i z drop out because every
    # h_l is horizontal, (z, h_l) = 0
    P = herm_gram(space, fb.jets.d2.reshape(M, D * D, C), hp)  # (w_ij, h_l)
    c = P.real @ (T.swapaxes(1, 2) @ T)  # g^{-1} = T^t T
    normal = P.imag + c @ fb.omega
    # h_abk = sum T_ai T_bj T_kl normal_ijl
    h = normal.reshape(M, D, D, D) @ T.swapaxes(1, 2)[:, None]
    h = T[:, None] @ h
    h_ijk = (T @ h.reshape(M, D, D * D)).reshape(M, D, D, D)
    H = np.mean(np.diagonal(h_ijk, axis1=1, axis2=2), axis=-1)
    sigma_sq = np.sum(h_ijk**2, axis=(1, 2, 3))
    sff = SFFBatch(h_ijk, H, sigma_sq, fb.metric)
    if isinstance(batch, FrameBatch):
        batch.sff = sff
    return sff


def _sff_of(imm: SampledImmersion, batch) -> SFFBatch:
    if isinstance(batch, FrameBatch) and batch.sff is not None:
        return batch.sff
    return second_fundamental_form(imm, batch)


def minimality_residual(imm: SampledImmersion, batch) -> float:
    """max |H| over the batch, in the induced metric."""
    return float(np.max(_sff_of(imm, batch).mean_curvature_norm))


# ---------------------------------------------------------------------------
# closed-form comparators


def expected_metric(imm: SampledImmersion, xi: np.ndarray) -> np.ndarray | None:
    """Chart-coordinate closed form of the induced metric, where known."""
    fam = imm.spec.family
    if imm.spec.detuned or imm.seed is not None:
        return None
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    s, X = xi[:, 0], xi[:, 1:]
    M, d = X.shape
    D = d + 1
    g = np.zeros((M, D, D))
    g[:, 0, 0] = 1.0

    def sphere_block(angles):
        # metric of S^d in nested angle coordinates: g_kk = prod_{i<k} sin^2 a_i
        out = np.ones((M, angles.shape[1]))
        run = np.ones(M)
        for k in range(angles.shape[1]):
            out[:, k] = run
            run = run * np.sin(angles[:, k]) ** 2
        return out

    if fam in ("thm1", "thm5", "tg_sphere"):
        if fam == "thm1":
            warp = np.sinh(imm.profile.r_of(s)) ** 2
        elif fam == "thm5":
            warp = np.sin(imm.profile.r_of(s)) ** 2
        else:
            warp = np.sinh(s) ** 2
        blk = sphere_block(X)
        for k in range(d):
            g[:, 1 + k, 1 + k] = warp * blk[:, k]
        return g
    if fam in ("thm2", "tg_tube"):
        warp = np.cosh(imm.profile.r_of(s)) ** 2 if fam == "thm2" else np.cosh(s) ** 2
        g[:, 1, 1] = warp
        if d > 1:
            blk = sphere_block(X[:, 1:])
            for k in range(d - 1):
                g[:, 2 + k, 2 + k] = warp * np.sinh(X[:, 0]) ** 2 * blk[:, k]
        return g
    if fam in ("thm3", "tg_horo"):
        warp = imm.profile.r_of(s) ** 2 if fam == "thm3" else np.exp(2.0 * s)
        for k in range(d):
            g[:, 1 + k, 1 + k] = warp
        return g
    return None


def metric_residual(imm: SampledImmersion, batch) -> float | None:
    """Entrywise deviation from the closed-form metric, metric-normalized."""
    expected = expected_metric(imm, _jets(batch).xi)
    if expected is None:
        return None
    g = induced_metric(imm, batch)
    diag = np.maximum(np.einsum("mii->mi", expected), 1.0)
    scale = np.sqrt(diag[:, :, None] * diag[:, None, :])
    return float(np.max(np.abs(g - expected) / scale))


def expected_sff_thm1(imm: SampledImmersion, xi: np.ndarray) -> np.ndarray:
    """Closed-form h_{ijk} of the ch_sphere family.

    With F(s) = a / sinh^{n+1} r(s) (a the first-integral constant):
    h_111 = -(n-1) F, h_1jj = h_j1j = h_jj1 = F, all others zero.
    """
    if imm.spec.family != "thm1":
        raise InvalidArgument("closed-form coefficients are for the thm1 family")
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    s = xi[:, 0]
    n = imm.spec.n
    r = imm.profile.r_of(s)
    F = imm.profile.family.phase_constant / np.sinh(r) ** (n + 1)
    M, D = len(s), n
    h = np.zeros((M, D, D, D))
    h[:, 0, 0, 0] = -(n - 1) * F
    for j in range(1, D):
        h[:, 0, j, j] = F
        h[:, j, 0, j] = F
        h[:, j, j, 0] = F
    return h


def sff_residuals(imm: SampledImmersion, batch) -> dict:
    """Relative closed-form match of the thm1 coefficients and |sigma|^2."""
    sff = _sff_of(imm, batch)
    xi = _jets(batch).xi
    expected = expected_sff_thm1(imm, xi)
    scale = np.max(np.abs(expected), axis=(1, 2, 3), keepdims=True)
    nonzero = np.abs(expected) > 1e-12 * scale
    rel = np.abs(sff.coeffs - expected) / np.where(nonzero, np.abs(expected), 1.0)
    worst_nonzero = float(np.max(np.where(nonzero, rel, 0.0)))
    worst_zero = float(np.max(np.where(nonzero, 0.0, np.abs(sff.coeffs) / scale)))
    n = imm.spec.n
    r = imm.profile.r_of(xi[:, 0])
    a = imm.profile.family.phase_constant
    sig_expected = a**2 * (n - 1) * (n + 2) / np.sinh(r) ** (2 * n + 2)
    sig_rel = float(np.max(np.abs(sff.sigma_sq - sig_expected) / sig_expected))
    return {
        "component_rel": worst_nonzero,
        "zero_component": worst_zero,
        "sigma_sq_rel": sig_rel,
    }


# ---------------------------------------------------------------------------
# group invariance


_MODEL_ACTION_DIM = {"so_n": 0, "so1_n": 0, "euclid_n": -1}  # offset from n


def invariance_residual(
    imm: SampledImmersion,
    group: str,
    k: int = 20,
    rng_seed: int = 42,
) -> float:
    """Equivariance defect max over k seeded group elements and sample points.

    Compares g . Phi(s, x) with Phi(s, g . x) projectively; a mismatched
    group simply moves x off the model manifold, producing a large
    residual, which the negative controls rely on.
    """
    if imm.model_evaluate is None:
        raise InvalidArgument(
            f"family {imm.spec.family} has no model-coordinate evaluator"
        )
    n = imm.spec.n
    rng = np.random.default_rng(rng_seed)
    space = imm.ambient.space

    M = len(imm.x_grid)
    idx = rng.integers(0, len(imm.s_values) * M, size=k)
    s_pts = imm.s_values[idx // M]
    x_model = imm.chart.to_model(imm.x_grid[idx % M])
    base = imm.model_evaluate(s_pts, x_model)

    left, moved = [], []
    for _ in range(k):
        if group == "so_n":
            A = random_so(rng, n)
            g_x, mat = x_model @ A, embed_isometry("so_n", A, n).matrix
        elif group == "so1_n":
            A = random_so1(rng, n)
            g_x, mat = x_model @ A, embed_isometry("so1_n", A, n).matrix
        elif group == "euclid_n":
            A, a = random_euclid(rng, n)
            g_x, mat = x_model @ A + a, embed_isometry("euclid_n", (A, a), n).matrix
        else:
            raise InvalidArgument(f"unknown group {group!r}")
        if g_x.shape[1] != x_model.shape[1]:
            raise InvalidArgument("group does not act on this model manifold")
        left.append(base @ mat)
        moved.append(g_x)
    # one evaluation for all k moved copies: the curve is taken once per s
    right = imm.model_evaluate(np.tile(s_pts, k), np.concatenate(moved))
    return float(np.max(projective_distance(space, np.concatenate(left), right)))


# ---------------------------------------------------------------------------
# Legendre-curve functional and plane-curve curvature


def legendre_functional(curve: LegendreCurve, n: int) -> np.ndarray:
    """Mean-curvature functional of the warped product over a Legendre curve.

    a(s) = <g'', J g'>/|g'|^4 + (n-1) <g_1', J g_1>/(|g_1|^2 |g'|^2) with
    J = i and <,> the real part of the curve space's Hermitian form; the
    composed immersion over a minimal seed is minimal iff a vanishes.
    """
    space = curve.space
    g1 = curve.gamma[:, 0]
    if np.min(np.abs(g1)) < 1e-12:
        raise GeometryError("gamma_1 vanishes on the sample range")
    ip_full = herm_form(space, curve.d2, 1j * curve.d1).real
    speed_sq = herm_form(space, curve.d1, curve.d1).real
    ip_first = (curve.d1[:, 0] * np.conj(1j * g1)).real
    return ip_full / speed_sq**2 + (n - 1) * ip_first / (np.abs(g1) ** 2 * speed_sq)


def power_curve_curvature(gamma: np.ndarray, s: np.ndarray, n: int):
    """Signed curvature of s -> gamma(s)^n by central differences.

    Returns (s_interior, kappa) on the grid interior (two points trimmed at
    each end by the 5-point stencils).
    """
    gamma = np.asarray(gamma, dtype=complex)
    s = np.asarray(s, dtype=float)
    if np.min(np.abs(gamma)) < 1e-12:
        raise InvalidArgument("curve passes through 0")
    z = gamma**n
    h = s[1] - s[0]
    z1 = (z[:-4] - 8 * z[1:-3] + 8 * z[3:-1] - z[4:]) / (12.0 * h)
    z2 = (-z[:-4] + 16 * z[1:-3] - 30 * z[2:-2] + 16 * z[3:-1] - z[4:]) / (12.0 * h * h)
    kappa = (np.conj(z1) * z2).imag / np.abs(z1) ** 3
    return s[2:-2], kappa


# ---------------------------------------------------------------------------
# curvature field and the numeric |sigma|^n integral


def _transverse_weights(imm: SampledImmersion) -> np.ndarray:
    """Product quadrature weights matching the transverse grid layout."""
    chart = imm.chart
    shape = imm.transverse_shape
    if math.prod(shape) != len(imm.x_grid):
        raise InvalidArgument(f"transverse grid of {len(imm.x_grid)} points is not a "
                              f"{'x'.join(map(str, shape))} product mesh")
    axis_weights = []
    for k, per in enumerate(shape):
        if chart.periodic[k]:
            step = (chart.hi[k] - chart.lo[k]) / per
            axis_weights.append(np.full(per, step))
        else:
            step = (chart.hi[k] - chart.lo[k]) / (per - 1)
            w = np.full(per, step)
            w[0] = w[-1] = step / 2.0
            axis_weights.append(w)
    mesh = np.meshgrid(*axis_weights, indexing="ij")
    out = np.ones_like(mesh[0])
    for m_ in mesh:
        out = out * m_
    return out.ravel()


def curvature_field(imm: SampledImmersion, h: float = DEFAULT_FD_STEP) -> dict:
    """|sigma| and sqrt(det g) on the cached grid, plus transverse weights."""
    S, M = len(imm.s_values), len(imm.x_grid)
    fb = frame_batch(imm, jet(imm, imm.grid_xi(), h=h))
    sff = second_fundamental_form(imm, fb)
    sqrt_det = np.prod(np.diagonal(fb.chol, axis1=1, axis2=2), axis=-1)  # det L
    return {
        "s_values": imm.s_values,
        "sigma_norms": sff.sigma_norm.reshape(S, M),
        "sqrt_det_g": sqrt_det.reshape(S, M),
        "chart_weights": _transverse_weights(imm),
    }


def sigma_numeric_report(build, spec, base_grid=(257, 48), s_window=(-5.0, 5.0)) -> dict:
    """Riemann-sum estimate of int |sigma|^n dv with a grid-doubling check.

    ``build`` is the immersion builder (kept injectable so callers control
    seeds); the change under doubling is the finiteness evidence, and a
    change above 1e-2 marks the estimate low-confidence.
    """
    n = spec.n
    values = []
    for factor in (1, 2):
        S = (base_grid[0] - 1) * factor + 1
        M = base_grid[1] * factor
        imm = build(spec, grid=(S, M), s_window=s_window)
        f = curvature_field(imm)
        values.append(
            sigma_integral_numeric(
                f["s_values"], f["sigma_norms"], f["sqrt_det_g"], f["chart_weights"], n
            )
        )
    change = abs(values[1] - values[0]) / max(abs(values[1]), 1e-300)
    return {
        "value": values[1],
        "coarse_value": values[0],
        "doubling_change": change,
        "low_confidence": change > 1e-2,
    }


# ---------------------------------------------------------------------------
# verification reports


@dataclass
class CheckReport:
    """Named residuals with tolerances; verdict passes iff all residuals do."""

    family: str
    n: int
    rho: float | None
    grid: tuple
    checks: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    def add(self, name: str, residual: float | None, tol: float) -> None:
        if residual is None:
            return
        self.checks.append(
            {"name": name, "residual": float(residual), "tol": float(tol),
             "pass": bool(residual <= tol)}
        )

    @property
    def verdict(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "rho": self.rho,
            "grid": list(self.grid),
            "checks": self.checks,
            "provenance": self.provenance,
            "pass": self.verdict,
        }


TOLERANCES = {"lagrangian": 1e-6, "horizontal": 1e-6,
              "minimal": 5e-4, "minimal_tg": 1e-5,
              "metric": 1e-6, "sff": 1e-3, "sff_tg": 1e-5,
              "invariance": 1e-8, "symmetry": 1e-4}

ALL_CHECKS = ("lagrangian", "horizontal", "minimal", "metric", "sff", "invariance", "symmetry")

_TG_FAMILIES = ("tg_sphere", "tg_tube", "tg_horo", "prop4a", "prop4b", "prop4c")


def _sample_consistency(imm: SampledImmersion, fresh: np.ndarray) -> float:
    """Stored samples vs ``fresh``, the rebuilt lift on the whole grid in
    ``grid_xi`` order, projectively (catches edits)."""
    space = imm.ambient.space
    flat = imm.samples.reshape(-1, imm.samples.shape[-1])
    row_scale = np.maximum(
        np.maximum(np.max(np.abs(flat), axis=-1), np.max(np.abs(fresh), axis=-1)), 1.0
    )
    if space is None:
        return float(np.max(np.abs(flat - fresh)) / np.min(row_scale))
    k = np.argmax(np.abs(fresh), axis=-1)
    piv_fresh = np.take_along_axis(fresh, k[:, None], axis=-1)[:, 0]
    piv_flat = np.take_along_axis(flat, k[:, None], axis=-1)[:, 0]
    phase = np.where(np.abs(piv_flat) > 0, piv_fresh / np.where(piv_flat == 0, 1, piv_flat), 1.0)
    phase = phase / np.maximum(np.abs(phase), 1e-300)
    dist = np.max(np.abs(flat * phase[:, None] - fresh), axis=-1) / row_scale
    worst = float(np.max(dist))
    qscale = np.maximum(np.sum(np.abs(flat) ** 2, axis=-1), 1.0)
    return max(worst, float(np.max(quadric_defect(space, flat) / qscale)))


def run_checks(
    imm: SampledImmersion,
    checks=ALL_CHECKS,
    h: float = DEFAULT_FD_STEP,
    rng_seed: int = 42,
) -> CheckReport:
    """Run the named verification checks on an immersion's cached grid."""
    unknown = set(checks) - set(ALL_CHECKS)
    if unknown:
        raise InvalidArgument(f"unknown checks: {sorted(unknown)}")
    fam = imm.spec.family
    report = CheckReport(
        family=fam,
        n=imm.spec.n,
        rho=imm.spec.rho,
        grid=(len(imm.s_values), len(imm.x_grid)),
        provenance={"h": h, "seed": rng_seed, "detuned": imm.spec.detuned,
                    "seed_kind": imm.seed.kind if imm.seed else None,
                    "tolerances": dict(TOLERANCES)},
    )
    tol = TOLERANCES
    fb = frame_batch(imm, jet(imm, imm.grid_xi(), h=h))
    is_tg = fam in _TG_FAMILIES and (imm.seed is None or imm.seed.kind.startswith("tg"))
    sff = None
    if {"minimal", "sff", "symmetry"} & set(checks):
        sff = second_fundamental_form(imm, fb)

    if "lagrangian" in checks:
        report.add("lagrangian", lagrangian_residual(imm, fb), tol["lagrangian"])
    if "horizontal" in checks:
        res = max(horizontality_residual(imm, fb), _sample_consistency(imm, fb.jets.value))
        report.add("horizontal", res, tol["horizontal"])
    if "minimal" in checks:
        report.add("minimal", float(np.max(sff.mean_curvature_norm)),
                   tol["minimal_tg" if is_tg else "minimal"])
    if "metric" in checks:
        report.add("metric", metric_residual(imm, fb), tol["metric"])
    if "sff" in checks:
        if fam == "thm1" and not imm.spec.detuned:
            res = sff_residuals(imm, fb)
            report.add("sff", max(res["component_rel"], res["sigma_sq_rel"]), tol["sff"])
        elif is_tg:
            report.add("sff", float(np.max(np.abs(sff.coeffs))), tol["sff_tg"])
    if "invariance" in checks and imm.group is not None and imm.model_evaluate is not None:
        report.add(
            "invariance",
            invariance_residual(imm, imm.group, k=_INVARIANCE_SAMPLES, rng_seed=rng_seed),
            tol["invariance"],
        )
    if "symmetry" in checks:
        report.add("symmetry", sff.symmetry_residual(), tol["symmetry"])
    return report
