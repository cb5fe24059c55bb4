"""Differential geometry of sampled immersions, one pass per batch.

Jets are taken over a product of S values s and M transverse points x.
Every family's lift is alpha(s) * beta(x) + delta(s) componentwise, with
the curve factors alpha and delta differentiated in closed form from the
profile equation on the s values and the O(1) transverse block beta's
exact jet on the M points: no built or loaded immersion takes a numerical
step.

The geometry reads the jets only through their Hermitian pairings with z
and with the first partials, so a ``JetBatch`` holds the lift's value and
one Gram matrix of the raw jets: rows u in [d_i z, d_i d_j z (i <= j)],
columns v in [z, d_l z]; nothing is paired from z itself.  For a
product jet each pairing (u, v)(s, x) is a sum of s-factors times
x-factors, and ``ProductJet.gram`` takes all of them as one stacked matmul
(``model_spaces.product_gram``): no S*M-row partial is materialised, only
the value, which the sample-consistency check compares with the stored
samples.

Every batch, from the jets to the report, keeps its per-point arrays in
grid layout, trailing axes (S, M): a product jet's S values and its M
transverse points, the block points.  A batch carries its s values as an
array that broadcasts against (S, M) and its block points x (M, d), never
stacked (s, x) rows, so the closed-form comparators take each s factor on
the s values, r read from the immersion's curve state, and each block
factor on the block points and broadcast.  A batch of stacked points is
one s row of N blocks, (..., 1, N), and takes the same path.

One data path, jets -> FrameBatch -> SFFBatch, feeds every check, and each
check takes the batch it reads.  On the quadric (z, z) is read as its
target t; with c_i = (d_i z, z), the Legendrian pairings, the horizontal
parts h_i = d_i z - c_i z / t pair with any u as (u, h_l) = (u, d_l z) -
(u, z) conj(c_l) / t (in the flat ambient the c terms drop out), one
identity, ``model_spaces.horizontal_pairings``, read by the frame for the
rows u = d_i z and by the SFF for the rows u = d_i d_j z.  (h_i, h_j) gives
the induced metric g = Re and the Kahler pullback Omega(h_i, h_j) =
Re (i h_i, h_j) = -Im.  Every family is a curve over a foliation by
umbilical hypersurfaces, so its metric separates over the grid, g(s, x) =
Lambda(s)^-1 G(x) Lambda(s)^-1 with Lambda diagonal: ``frame_batch`` reads
Lambda off g along one block point and G on the M block points at one s
value, takes one Cholesky G = L_G L_G^t per block point and frames every
grid point by T = L_G(x)^-1 Lambda(s), e_a = sum_k T_ak h_k.  A batch
that misses the separable form by more than ``_SEPARABILITY_TOL`` plus the
roundoff of its pairings (both defined below with their measured floors)
raises ``DegeneracyError``; a batch with one s value is framed with
Lambda = 1 and G = g.
``second_fundamental_form`` reads P = (w_ij, h_l) for the second
partials w_ij from the same identity; the tangential part is removed with
g^{-1} = T^t T applied to Re P, the components along z and i z never pair
with horizontal vectors, and the remainder of a Lagrangian immersion lies
in J(tangent), so h_{abk} = sum T_ai T_bj T_kl Im (sigma_ij, h_l).  Scaled
by Lambda(s) elementwise, the contraction with L_G^-1 is one GEMM per index
and block point, the S values the long axis.  Each point's h depends on
its own pairings, Lambda(s) and its block point's L_G alone, so the
extraction runs over tiles of whole s rows of at most ``_TILE_POINTS``
grid points and writes them into whole-grid outputs: on a large grid
(the 513x64 curvature field, a 256x64 verify) its temporaries stay
cache-sized instead of growing with S.  The Gram and the frame are not
tiled: a Gram taken one s row at a time rounds most pairings differently.
All residuals are dimensionless so one tolerance table, ``TOLERANCES``,
applies across families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import permutations

import numpy as np

from .domain import ALL_CHECKS, GeometryError, InvalidArgument
from .immersions import (
    LegendreCurve,
    SampledImmersion,
    build_immersion,
    jet_rows,
)
from .model_spaces import (
    herm_form,
    horizontal_pairings,
    legendrian_residual,
    projective_distance,
    random_euclid,
    random_so,
    random_so1,
    embed_isometry,
    relative_quadric_defect,
)
from .profiles import PAIRS, sigma_integral_numeric

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
    "TOLERANCES",
]

# Lagrangian residual above which the SFF is not extracted at all; a guard,
# not a check verdict, so it is not part of TOLERANCES (which reports record)
_SFF_LAGRANGIAN_TOL = 1e-5

# the metric of a product batch passes as separable, g(s, x) = Lambda(s)^-1
# G(x) Lambda(s)^-1, when it misses that form by at most this much relative
# to G's diagonal at every grid point.  Every family path misses it by
# roundoff: at most 2.2e-11 over the domain sweep (thm2 n=5 rho=3, 64x64),
# 3.6e-12 on the 513x64 thm1 field, 2.4e-13 over the test families' specs;
# an s-x sheared chart misses it by O(1)
_SEPARABILITY_TOL = 1e-9
# on top of it each g_ij may miss by its own roundoff, this many ulp of the
# Cauchy-Schwarz scale lambda_i lambda_j |d_i z| |d_j z| its pairings are
# formed at.  Far out in s that scale outgrows G's diagonal (like e^(2|s|)
# in CH^n): a thm1 n=2 batch over s in [-8, 8] misses by 1.9e-9 of G, 2 ulp
# of it.
# Over 165 family cells at 64x64 the largest miss is 23 ulp (thm3 n=5)
_SEPARABILITY_ULPS = 64

# seeded group elements and sample points of the invariance check, and
# their seed (reports record it as provenance.seed)
_INVARIANCE_SAMPLES = 12
_INVARIANCE_SEED = 42

# grid points per tile of ``second_fundamental_form``: max(1, _TILE_POINTS
# // M) whole s rows.  A grid of at most this many points is one tile, which
# is every default 64x64 grid at n <= 4, n = 6 and n = 7
_TILE_POINTS = 4096


class OutOfDomain(GeometryError):
    """Jet base point too close to the profile domain boundary."""


class DegeneracyError(GeometryError):
    """Induced metric not positive definite, or not separable over the
    product grid."""


class NotLagrangianError(GeometryError):
    """Second-fundamental-form extraction requires a Lagrangian sample."""


@dataclass
class JetBatch:
    """Lift value and the Hermitian Gram of its raw jets at a batch of points.

    Every array is in grid layout, trailing axes (S, M): a product jet's
    S values and M transverse points, the block points (stacked points are
    one s row of N blocks, (..., 1, N)).  ``s`` are the s values, shaped to
    broadcast against (S, M): (S, 1) for a product, (1, N) for stacked
    points; ``x`` (M, d) the block points.  ``value`` (S, M, C) is the lift
    there and ``gram`` (R, 1 + D, S, M) holds (u_r, v_c) for the raw
    jets u_r in ``jet_rows(D)`` (d_i z, then d_i d_j z for i <= j; R = D +
    D(D+1)/2) and v_c in [z, d_l z]; nothing is paired from z itself.
    ``d1_norm`` (D, S, M) are the Euclidean norms |d_i z| that scale the
    Legendrian residual.
    """

    s: np.ndarray
    x: np.ndarray
    value: np.ndarray
    gram: np.ndarray
    d1_norm: np.ndarray

    @property
    def dim(self) -> int:
        return self.d1_norm.shape[0]


def jet(imm: SampledImmersion, s, X) -> JetBatch:
    """Jet of the lift on the product of the S values ``s`` and the M chart
    points ``X`` (M, d).

    The immersion's exact product jet (the curve taken on ``s``, the block
    on ``X``), paired factor by factor, the M points the blocks.  A single
    point is a 1 x 1 product.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if imm.profile is not None and np.max(np.abs(s)) >= imm.profile.s_max:
        raise OutOfDomain("jet base point not inside the profile's domain")
    pj = imm.jet_factors(s, X)
    return JetBatch(s[:, None], X, pj.value(), *pj.gram(imm.space))


def _second_rows(D: int) -> np.ndarray:
    """For each (i, j) of D x D, row-major, the position of d_i d_j z =
    d_j d_i z among the second-order rows of ``jet_rows(D)``."""
    pos = {idx: k for k, idx in enumerate(jet_rows(D)[D:])}
    return np.array([pos[min(i, j), max(i, j)] for i in range(D) for j in range(D)])


def _index_orbits(D: int) -> np.ndarray:
    """Flat indices into a D x D x D tensor of the 6 index permutations of
    each sorted triple i <= j <= k, shape (orbits, 6)."""
    return np.array([[(a * D + b) * D + c for a, b, c in permutations((i, j, k))]
                     for i in range(D) for j in range(i, D) for k in range(j, D)])


@dataclass
class SFFBatch:
    """Second-fundamental-form data in a g-orthonormal frame, in the grid
    layout (..., S, M) of the jets it came from.

    ``s`` are the jets' s values, broadcasting against (S, M);
    ``coeffs`` (D, D, D, S, M) are h_{ijk} with sigma(e_i, e_j) = sum_k
    h_{ijk} J e_k; ``mean_curvature`` (D, S, M) is H_k = (1/n) sum_i
    h_{iik}; ``sigma_sq`` (S, M) is |sigma|^2 summed over both (i, j)
    orders.
    """

    s: np.ndarray
    coeffs: np.ndarray
    mean_curvature: np.ndarray
    sigma_sq: np.ndarray

    @property
    def mean_curvature_norm(self) -> np.ndarray:
        return np.sqrt(np.sum(self.mean_curvature**2, axis=0))

    @property
    def sigma_norm(self) -> np.ndarray:
        return np.sqrt(self.sigma_sq)

    def symmetry_residual(self) -> float:
        """Total-symmetry defect of h_{ijk}, normalized by the largest entry.

        The defect at a point is the largest |h_ijk - h_pi(ijk)| over index
        permutations pi, taken as the largest spread max - min of an orbit
        {h_pi(ijk)}: fl(a - b) is monotone, so fl(max - min) is the largest
        rounded pair difference, bit for bit.  One orbit is gathered at a
        time, so no copy of the tensor is made.
        """
        h = self.coeffs
        D = len(h)
        worst = 0.0
        for orbit in _index_orbits(D):
            values = h[np.unravel_index(orbit, (D, D, D))]
            worst = np.maximum(worst, np.max(values, axis=0) - np.min(values, axis=0))
        top = np.maximum(np.max(h, axis=(0, 1, 2)), -np.min(h, axis=(0, 1, 2)))  # max |h|
        return float(np.max(worst / np.maximum(top, 1.0)))


@dataclass
class FrameBatch:
    """The geometry of one jet batch, computed once and read by every check,
    in the grid layout (..., S, M) of its jets.

    ``vertical`` (D, S, M) are the Legendrian pairings c_i = (d_i z, z)
    (None in the flat ambient), ``metric`` (D, D, S, M) g_ij = Re (h_i, h_j)
    and ``omega`` the Kahler-form pullback Re (i h_i, h_j) of the
    horizontal parts h_i of the first partials; ``lagrangian`` (S, M) is the
    per-point residual |Omega(h_i, h_j)| / sqrt(g_ii g_jj), max over i < j.
    The metric is factored as g = Lambda^-1 G Lambda^-1 with ``scale`` (D, S)
    the diagonal of Lambda(s) and G(x) = L_G L_G^t per block point:
    ``block_chol`` (M, D, D) is L_G and ``block_inv`` its inverse, so the
    Gram-Schmidt frame is e_a = sum_k T_ak h_k with T = L_G^-1 Lambda.
    Both are None when some G is not positive definite.
    """

    jets: JetBatch
    vertical: np.ndarray | None
    metric: np.ndarray
    omega: np.ndarray
    lagrangian: np.ndarray
    scale: np.ndarray
    block_chol: np.ndarray | None
    block_inv: np.ndarray | None

    def require_frame(self) -> np.ndarray:
        if self.block_inv is None:
            raise DegeneracyError("induced metric is not positive definite")
        return self.block_inv


def frame_batch(imm: SampledImmersion, jets: JetBatch) -> FrameBatch:
    """Metric, Kahler pullback and frame of a jet batch, read from its Gram:
    Lambda(s) from g along the first block point, G = Lambda g Lambda at the
    middle s value, one Cholesky per block point.  A batch that does not
    separate raises ``DegeneracyError`` (module docstring)."""
    space, D, gram = imm.space, jets.dim, jets.gram
    vertical = None if space is None else gram[:D, 0]
    # (h_i, h_j) = (d_i, d_j) - c_i conj(c_j) / t
    hh = horizontal_pairings(space, gram[:D, 1:], gram[:D, :1], vertical)
    g = np.ascontiguousarray(hh.real)
    omega = np.negative(hh.imag)  # Re (i h_i, h_j) = -Im (h_i, h_j)
    S = g.shape[-2]
    lam = np.ones((D, 1))
    # a metric that is not positive along x_0 leaves nan in the factors,
    # which never separates
    with np.errstate(divide="ignore", invalid="ignore"):
        if S > 1:  # lambda_i(s) = g_ii(s, x_0)^-1/2
            lam = 1.0 / np.sqrt(np.diagonal(g[..., 0], axis1=0, axis2=1).T)
        G = g[:, :, S // 2] * (lam[:, None, S // 2] * lam[:, S // 2])[..., None]  # (D, D, M)
        defect = _separation_defect(g, lam, G, jets.d1_norm) if S > 1 else 0.0
    if not defect <= _SEPARABILITY_TOL:
        raise DegeneracyError(
            f"induced metric does not separate over the product grid: largest "
            f"relative defect {defect:.2e} exceeds {_SEPARABILITY_TOL:.0e}")
    try:
        L = np.linalg.cholesky(np.moveaxis(G, -1, 0))
    except np.linalg.LinAlgError:
        L = T = None
    else:
        T = _lower_inverse(L)
    return FrameBatch(jets, vertical, g, omega, _lagrangian_pointwise(g, omega), lam, L, T)


def _separation_defect(g: np.ndarray, lam: np.ndarray, G: np.ndarray,
                       norms: np.ndarray) -> float:
    """Largest |Lambda g Lambda - G|_ij over the grid relative to f_i f_j,
    f_i^2 = G_ii plus the roundoff allowance of ``_SEPARABILITY_ULPS`` ulp
    of lambda_i^2 |d_i z|^2 scaled to the tolerance; nan where the factors
    are."""
    allowance = _SEPARABILITY_ULPS * np.finfo(float).eps / _SEPARABILITY_TOL
    e = norms * lam[..., None]  # lambda_i(s) |d_i z|, (D, S, M)
    f = np.sqrt(np.abs(np.diagonal(G, axis1=0, axis2=1).T)[:, None] + allowance * e * e)
    defect = g * (lam[:, None] * lam)[..., None]
    np.subtract(defect, G[:, :, None], out=defect)
    np.abs(defect, out=defect)
    defect /= f[:, None]
    defect /= f
    return float(np.max(defect))


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """T = L^{-1} of stacked lower-triangular L, shape (M, D, D), by forward
    substitution: row i of L T = I gives T_ii = 1 / L_ii and
    T_i,:i = -(L_i,:i T_:i,:i) / L_ii, one vectorized step per row."""
    D = L.shape[-1]
    T = np.zeros_like(L)
    inv_diag = 1.0 / np.diagonal(L, axis1=1, axis2=2)
    for i in range(D):
        T[:, i, i] = inv_diag[:, i]
        if i:
            row = L[:, i, None, :i] @ T[:, :i, :i]
            T[:, i, :i] = -row[:, 0] * inv_diag[:, i, None]
    return T


def _lagrangian_pointwise(g: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """|Omega(h_i, h_j)| / sqrt(g_ii g_jj), max over i < j per point, for g
    and Omega of shape (D, D, ...).  Omega is skew, so Omega_ii = -Im (h_i,
    h_i) vanishes for every immersion and its computed value is roundoff;
    the diagonal is not read."""
    i, j = np.triu_indices(len(g), 1)
    diag = np.moveaxis(np.diagonal(g, axis1=0, axis2=1), -1, 0)
    scale = np.sqrt(np.abs(diag[i] * diag[j]))
    return np.max(np.abs(omega[i, j]) / np.maximum(scale, 1e-12), axis=0)


def horizontality_residual(imm: SampledImmersion, fb: FrameBatch) -> float:
    """Legendrian residual |(d_i z, z)| / max(|d_i z| |z|, 1), max over the
    batch; vacuously zero for the flat ambient (no fibration to be horizontal for)."""
    if fb.vertical is None:
        return 0.0
    jets = fb.jets
    return float(np.max(legendrian_residual(jets.value, jets.d1_norm, fb.vertical)))


def lagrangian_residual(imm: SampledImmersion, fb: FrameBatch) -> float:
    """Kahler-form pullback residual |Omega(h_i, h_j)| / sqrt(g_ii g_jj)."""
    return float(np.max(fb.lagrangian))


def second_fundamental_form(imm: SampledImmersion, fb: FrameBatch) -> SFFBatch:
    """Extract h_{ijk} and the mean curvature of a FrameBatch from the
    pairings of the second partials in its Gram, one tile of whole s rows
    at a time: max(1, ``_TILE_POINTS`` // M) rows, each written into the
    whole-grid outputs, so the temporaries stay cache-sized on any grid.  A
    grid of at most ``_TILE_POINTS`` points is one tile."""
    lag = float(np.max(fb.lagrangian))
    if lag > _SFF_LAGRANGIAN_TOL:
        raise NotLagrangianError(
            f"Lagrangian residual {lag:.2e} exceeds {_SFF_LAGRANGIAN_TOL:.0e}"
        )
    T = fb.require_frame()
    space, D = imm.space, fb.jets.dim
    S, M = fb.lagrangian.shape
    # Lambda g^-1 Lambda = G^-1 = L_G^-t L_G^-1, per block point
    G_inv = T.swapaxes(1, 2) @ T
    rows = max(1, _TILE_POINTS // M)
    h = np.empty((D, D, M, D, S))  # (k, b, M, a, S)
    H, sigma_sq = np.empty((D, S, M)), np.empty((S, M))
    for lo in range(0, S, rows):
        at = slice(lo, lo + rows)
        H[:, at], sigma_sq[at] = _sff_tile(space, fb, T, G_inv, at, h[..., at])
    return SFFBatch(fb.jets.s, h.transpose(3, 1, 0, 4, 2), H, sigma_sq)


def _sff_tile(space, fb: FrameBatch, T: np.ndarray, G_inv: np.ndarray, at: slice,
              out: np.ndarray) -> tuple:
    """Write h (k, b, M, a, S') on the s rows ``at`` of a FrameBatch into
    ``out`` and return (H (D, S', M), |sigma|^2 (S', M)), with T = L_G^-1 and
    G_inv = G^-1 per block point."""
    D, lam = fb.jets.dim, fb.scale[:, at]
    # the normal part of w_ij = d_i d_j z pairs with J h_l as Im (sigma_ij, h_l),
    # sigma_ij = w_ij - c_ijk h_k with g c = Re (w_ij, h_k) the tangential
    # coefficients; w's components along z and i z drop out because every
    # h_l is horizontal, (z, h_l) = 0.  The Gram holds one row q per i <= j;
    # the rows are spread to all D^2 pairs (i, j) once l is contracted.
    # From here on the block point comes first and the S values last, so
    # every contraction below runs along contiguous S rows
    w = fb.jets.gram[D:, :, at].transpose(0, 1, 3, 2)  # (w_ij, [z, d_l z]), (Q, 1 + D, M, S)
    vertical = None if fb.vertical is None else fb.vertical[:, at].transpose(0, 2, 1)
    p = horizontal_pairings(space, w[:, 1:], w[:, :1], vertical)  # (w_ij, h_l), (Q, D, M, S)
    # with T = L_G^-1 Lambda every index carries a lambda_i(s): scale P and
    # Omega by them and what is left to contract depends on the block point
    # alone.  Im (sigma_ij, h_l) = Im P + c Omega with c = Re P g^{-1}
    i, j = np.triu_indices(D)
    p *= ((lam[i] * lam[j])[:, None] * lam)[:, :, None]
    omega = np.multiply(fb.omega[:, :, at].transpose(0, 1, 3, 2),
                        (lam[:, None] * lam)[:, :, None], order="C")  # (D, D, M, S)
    K = G_inv @ omega.transpose(1, 2, 0, 3)  # (G^-1 Omega)_ql as [l, m, q, s]
    normal = np.einsum("qrms,lmrs->qlms", p.real, K)
    normal += p.imag
    # h_abk = sum L_ai L_bj L_kl normal_ijl with L = L_G^-1 of the block
    # point: per block point one GEMM per index, the S values the long axis
    h = T @ normal.transpose(0, 2, 1, 3)  # l -> k: (Q, M, k, S)
    h = h[_second_rows(D)].reshape((D, D) + h.shape[1:])  # (i, j, M, k, S)
    h = T @ h.transpose(0, 3, 2, 1, 4)  # j -> b: (i, k, M, b, S)
    h = np.matmul(T, h.transpose(1, 3, 2, 0, 4), out=out)  # i -> a: (k, b, M, a, S)
    H = np.trace(h, axis1=1, axis2=3).transpose(0, 2, 1) / D
    return H, np.einsum("kbmas,kbmas->sm", h, h)


def minimality_residual(imm: SampledImmersion, sff: SFFBatch) -> float:
    """max |H| over the batch, in the induced metric."""
    return float(np.max(sff.mean_curvature_norm))


# ---------------------------------------------------------------------------
# closed-form comparators


def expected_metric(imm: SampledImmersion, s, X) -> np.ndarray:
    """Chart-coordinate closed form of the induced metric of the model
    families, the curve's warp over the totally geodesic block.  The
    metric is diagonal: returns its diagonal (D, S, M) at the s values
    ``s``, which broadcast against (S, M), and the M block points ``X``
    (M, d), warp(s) times block(x) by broadcasting.  The warp is C(r)^2 on
    the tube row and S(r)^2 on the others, with r read from the immersion's
    curve state and (S, C) its row's pair.  g_ss = 1 assumes a unit-speed
    curve, which the detuned control is not; ``run_checks`` decides where
    the closed form applies."""
    kind = imm.spec.kind
    if not kind.model:
        raise InvalidArgument("the closed-form metric is for the model families")
    s = np.asarray(s, dtype=float)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    M, d = X.shape

    def sphere_block(angles):
        # metric of S^d in nested angle coordinates: g_kk = prod_{i<k} sin^2 a_i
        out, run = [], np.ones(M)
        for k in range(angles.shape[1]):
            out.append(run)
            run = run * np.sin(angles[:, k]) ** 2
        return out

    trig = PAIRS[kind.profile]
    warp = (trig.C if kind.layout == "tube" else trig.S)(imm.curve(s)[0][0]) ** 2
    if kind.layout == "sphere":
        rows = [warp * blk for blk in sphere_block(X)]
    elif kind.layout == "tube":
        rows = [warp] + [warp * np.sinh(X[:, 0]) ** 2 * blk for blk in sphere_block(X[:, 1:])]
    else:
        rows = [warp] * d
    g = np.ones((1 + d,) + np.broadcast_shapes(s.shape, (M,)))
    for k, row in enumerate(rows):
        g[1 + k] = row
    return g


def metric_residual(imm: SampledImmersion, fb: FrameBatch) -> float:
    """Entrywise deviation from the closed-form metric, metric-normalized."""
    expected = expected_metric(imm, fb.jets.s, fb.jets.x)
    fb.require_frame()  # a singular metric raises, it scores no residual
    at = np.arange(len(expected))
    full = np.zeros_like(fb.metric)
    full[at, at] = expected
    diag = np.maximum(expected, 1.0)
    scale = np.sqrt(diag[:, None] * diag)
    return float(np.max(np.abs(fb.metric - full) / scale))


def expected_sff_thm1(imm: SampledImmersion, s) -> tuple:
    """Closed-form h_{ijk} of the ch_sphere family at the s values ``s`` as
    (pattern, F), h = pattern * F(s): with F(s) = a / sinh^{n+1} r(s) (a
    the first-integral constant, r read from the immersion's curve state),
    h_111 = -(n-1) F, h_1jj = h_j1j = h_jj1 = F, all others zero.  The
    pattern is (D, D, D), F shaped like ``s``.
    """
    if imm.spec.family != "thm1":
        raise InvalidArgument("closed-form coefficients are for the thm1 family")
    n = imm.spec.n
    a = imm.profile.family.phase_constant
    F = a / np.sinh(imm.curve(np.asarray(s, dtype=float))[0][0]) ** (n + 1)
    pattern = np.zeros((n, n, n))
    pattern[0, 0, 0] = -(n - 1)
    for j in range(1, n):
        pattern[0, j, j] = pattern[j, 0, j] = pattern[j, j, 0] = 1.0
    return pattern, F


def sff_residuals(imm: SampledImmersion, sff: SFFBatch) -> dict:
    """Relative closed-form match of the thm1 coefficients and |sigma|^2:
    the nonzero components relative to themselves, the zero ones relative
    to the largest, and |sigma|^2; the ``sff`` check reads all three.  The
    closed forms are taken on the batch's s values and broadcast over its
    grid layout, the components of the closed form's pattern apart from
    the rest."""
    pattern, F = expected_sff_thm1(imm, sff.s)
    at = np.nonzero(pattern)
    expected = pattern[at][:, None, None] * F
    h = sff.coeffs[at]
    scale = np.max(np.abs(expected), axis=0)
    nonzero = np.abs(expected) > 1e-12 * scale
    rel = np.abs(h - expected) / np.where(nonzero, np.abs(expected), 1.0)
    worst_nonzero = float(np.max(np.where(nonzero, rel, 0.0)))
    # the components the pattern leaves zero, by their largest per point
    # (division by the scale is monotone)
    rest = np.abs(sff.coeffs)
    rest[at] = 0.0
    worst_zero = float(max(np.max(np.max(rest, axis=(0, 1, 2)) / scale),
                           np.max(np.where(nonzero, 0.0, np.abs(h) / scale))))
    n = imm.spec.n
    a = imm.profile.family.phase_constant
    sig_expected = a**2 * (n - 1) * (n + 2) / np.sinh(imm.curve(sff.s)[0][0]) ** (2 * n + 2)
    sig_rel = float(np.max(np.abs(sff.sigma_sq - sig_expected) / sig_expected))
    return {
        "component_rel": worst_nonzero,
        "zero_component": worst_zero,
        "sigma_sq_rel": sig_rel,
    }


# ---------------------------------------------------------------------------
# group invariance


def invariance_residual(imm: SampledImmersion, group: str) -> float:
    """Equivariance defect max over ``_INVARIANCE_SAMPLES`` seeded group
    elements and sample points.

    Compares g . Phi(s, x) with Phi(s, g . x) projectively; a mismatched
    group simply moves x off the model manifold, producing a large
    residual, which the negative controls rely on.
    """
    if imm.model_evaluate is None:
        raise InvalidArgument(
            f"family {imm.spec.family} has no model-coordinate evaluator"
        )
    n, k = imm.spec.n, _INVARIANCE_SAMPLES
    rng = np.random.default_rng(_INVARIANCE_SEED)
    space = imm.space

    M = len(imm.x_grid)
    idx = rng.integers(0, len(imm.s_values) * M, size=k)
    s_pts = imm.s_values[idx // M]
    x_model = imm.chart.to_model(imm.x_grid[idx % M])
    base = imm.model_evaluate(s_pts, x_model)

    left, moved = [], []
    for _ in range(k):
        if group == "so_n":
            A = element = random_so(rng, n)
        elif group == "so1_n":
            A = element = random_so1(rng, n)
        elif group == "euclid_n":
            element = A, a = random_euclid(rng, n)
        else:
            raise InvalidArgument(f"unknown group {group!r}")
        if len(A) != x_model.shape[1]:
            raise InvalidArgument(f"group {group} does not act on this model manifold: "
                                  f"it moves R^{len(A)}, the model lies in R^{x_model.shape[1]}")
        left.append(base @ embed_isometry(group, element, n).matrix)
        moved.append(x_model @ A + a if group == "euclid_n" else x_model @ A)
    # one evaluation for all k moved copies
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
            if per < 2:
                raise InvalidArgument(
                    f"transverse axis {chart.names[k]} is not periodic and has {per} "
                    "point; its trapezoid weights need at least 2")
            step = (chart.hi[k] - chart.lo[k]) / (per - 1)
            w = np.full(per, step)
            w[0] = w[-1] = step / 2.0
            axis_weights.append(w)
    return reduce(np.multiply.outer, axis_weights).ravel()


def curvature_field(imm: SampledImmersion) -> dict:
    """|sigma| and sqrt(det g) on the cached grid, (S, M), plus transverse
    weights."""
    weights = _transverse_weights(imm)
    fb = frame_batch(imm, jet(imm, imm.s_values, imm.x_grid))
    sff = second_fundamental_form(imm, fb)
    # det of the per-point factor Lambda(s)^-1 L_G(x)
    det_block = np.prod(np.diagonal(fb.block_chol, axis1=1, axis2=2), axis=-1)
    sqrt_det = det_block / np.prod(fb.scale, axis=0)[:, None]
    return {
        "s_values": imm.s_values,
        "sigma_norms": sff.sigma_norm,
        "sqrt_det_g": sqrt_det,
        "chart_weights": weights,
    }


def sigma_numeric_report(spec) -> dict:
    """Riemann-sum estimate of int |sigma|^n dv over s in [-5, 5] on a 257x48
    grid and on its doubling; the change under doubling is the finiteness
    evidence, and a change above 1e-2 marks the estimate low-confidence."""
    values = []
    for grid in ((257, 48), (513, 96)):
        f = curvature_field(build_immersion(spec, grid=grid, s_window=(-5.0, 5.0)))
        values.append(sigma_integral_numeric(f["s_values"], f["sigma_norms"],
                                             f["sqrt_det_g"], f["chart_weights"], spec.n))
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
    """Named residuals with tolerances; verdict passes iff all residuals do.
    ``run_checks`` decides which checks apply to an immersion and adds only
    those."""

    family: str
    n: int
    rho: float | None
    grid: tuple
    checks: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    def add(self, name: str, residual: float, tol: float) -> None:
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


def _sample_consistency(imm: SampledImmersion, fresh: np.ndarray) -> float:
    """Stored samples vs ``fresh``, the rebuilt lift on the whole grid,
    (S, M, C), projectively, and stored profile rows vs the profile
    re-derived from the spec (catches edits of either)."""
    space, stored = imm.space, imm.samples
    rows = 0.0 if imm.profile is None else imm.profile.stored_deviation
    if space is None:
        row_scale = np.maximum(
            np.maximum(np.max(np.abs(stored), axis=-1), np.max(np.abs(fresh), axis=-1)), 1.0
        )
        return max(rows, float(np.max(np.abs(stored - fresh)) / np.min(row_scale)))
    worst = float(np.max(projective_distance(space, stored, fresh)))
    return max(worst, rows, float(np.max(relative_quadric_defect(space, stored))))


def run_checks(imm: SampledImmersion, checks=ALL_CHECKS) -> CheckReport:
    """Run the named verification checks on an immersion's cached grid."""
    unknown = set(checks) - set(ALL_CHECKS)
    if unknown:
        raise InvalidArgument(f"unknown checks: {sorted(unknown)}")
    if not checks:
        raise InvalidArgument(f"no checks selected; choose from {', '.join(ALL_CHECKS)}")
    fam = imm.spec.family
    report = CheckReport(
        family=fam,
        n=imm.spec.n,
        rho=imm.spec.rho,
        grid=(len(imm.s_values), len(imm.x_grid)),
        provenance={"seed": _INVARIANCE_SEED, "detuned": imm.spec.detuned,
                    "seed_kind": imm.spec.seed_kind,
                    "tolerances": dict(TOLERANCES)},
    )
    tol = TOLERANCES
    fb = frame_batch(imm, jet(imm, imm.s_values, imm.x_grid))
    # the real geodesic over a totally geodesic seed is totally geodesic
    seed_kind = imm.spec.seed_kind
    is_tg = imm.spec.kind.geodesic and (seed_kind is None or seed_kind.startswith("tg"))
    sff = None
    if {"minimal", "sff", "symmetry"} & set(checks):
        sff = second_fundamental_form(imm, fb)

    if "lagrangian" in checks:
        report.add("lagrangian", lagrangian_residual(imm, fb), tol["lagrangian"])
    if "horizontal" in checks:
        res = max(horizontality_residual(imm, fb), _sample_consistency(imm, fb.jets.value))
        report.add("horizontal", res, tol["horizontal"])
    if "minimal" in checks:
        report.add("minimal", minimality_residual(imm, sff),
                   tol["minimal_tg" if is_tg else "minimal"])
    if "metric" in checks and imm.spec.kind.model and not imm.spec.detuned:
        report.add("metric", metric_residual(imm, fb), tol["metric"])
    if "sff" in checks:
        if fam == "thm1" and not imm.spec.detuned:
            report.add("sff", max(sff_residuals(imm, sff).values()), tol["sff"])
        elif is_tg:
            report.add("sff", float(np.max(np.abs(sff.coeffs))), tol["sff_tg"])
    if "invariance" in checks and imm.group is not None:
        report.add("invariance", invariance_residual(imm, imm.group), tol["invariance"])
    if "symmetry" in checks:
        report.add("symmetry", sff.symmetry_residual(), tol["symmetry"])
    return report
