"""Indefinite Hermitian linear algebra for the model quadrics.

The complex hyperbolic space CH^n is modelled as the quotient of the
anti-de Sitter quadric

    H^{2n+1}_1 = { z in C^{n+1} : (z,z) = -1 },
    (z,w) = sum_{i<=n} z_i conj(w_i) - z_{n+1} conj(w_{n+1}),

by unit-phase scalars; CP^n is the analogous quotient of the unit sphere
S^{2n+1} for the positive-definite form.  Points are row vectors and
isometries act on the right, z -> z A, so the matrix group preserving the
hyperbolic form is { A : conj(A)^T S A = S } with S = diag(1,...,1,-1).

Everything here is vectorized over leading axes: a "vector" argument may be
an array of shape (..., n+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import GeometryError, InvalidArgument

__all__ = [
    "GeometryError",
    "InvalidArgument",
    "HermitianSpace",
    "ProjectivePoint",
    "IsometryElement",
    "herm_form",
    "product_gram",
    "quadric_defect",
    "relative_quadric_defect",
    "normalize_phase",
    "projective_distance",
    "legendrian_residual",
    "horizontal_pairings",
    "embed_isometry",
    "umbilical_embed",
    "validate_model_point",
    "expm",
    "random_so",
    "random_so1",
    "random_euclid",
]

# how far model points, quadric base points and group parameters may miss
# their defining equations
MODEL_TOL = 1e-10


@dataclass(frozen=True)
class HermitianSpace:
    """Ambient C^{n+1} with a signature-(n,1) or (n+1,0) Hermitian form.

    ``n`` is the complex dimension of the projectivized model (CH^n or
    CP^n); ambient vectors have n+1 complex coordinates.
    """

    n: int
    signature: str  # "hyperbolic" | "spherical"

    def __post_init__(self):
        if self.n < 1:
            raise InvalidArgument(f"model dimension must be >= 1, got {self.n}")
        if self.signature not in ("hyperbolic", "spherical"):
            raise InvalidArgument(f"unknown signature {self.signature!r}")

    @property
    def ambient_dim(self) -> int:
        return self.n + 1

    @property
    def signs(self) -> np.ndarray:
        s = np.ones(self.n + 1)
        if self.signature == "hyperbolic":
            s[-1] = -1.0
        return s

    @property
    def quadric_target(self) -> float:
        """Value of (z,z) on the model quadric: -1 hyperbolic, +1 spherical."""
        return -1.0 if self.signature == "hyperbolic" else 1.0

    def signature_matrix(self) -> np.ndarray:
        return np.diag(self.signs)


def _check_dim(space: HermitianSpace, *vecs: np.ndarray) -> None:
    for v in vecs:
        if v.shape[-1] != space.ambient_dim:
            raise InvalidArgument(
                f"expected {space.ambient_dim} ambient coordinates, got {v.shape[-1]}"
            )


def herm_form(space: HermitianSpace | None, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Hermitian form (z,w) = sum_i s_i z_i conj(w_i) with the space's signs;
    a ``space`` of None is the flat positive form on C^m.

    Sesquilinear (conjugate-linear in ``w``) and conjugate-symmetric; the
    leading axes of ``z`` and ``w`` broadcast.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if space is None:
        return np.einsum("...i,...i->...", z, np.conj(w))
    _check_dim(space, z, w)
    return np.einsum("...i,...i,i->...", z, np.conj(w), space.signs)


def product_gram(space: HermitianSpace | None, A: np.ndarray, B: np.ndarray,
                 delta: np.ndarray | None, u, v) -> np.ndarray:
    """Pairings (w_u, w_v) of vectors over a product grid, factor by factor.

    Each vector is w_r(s, x) = A_r(s) B_r(x) + delta_r(s) componentwise:
    ``A`` and ``delta`` have shape (R, S, m) on S values s, ``B`` (R, M, m)
    on M points x, and ``delta`` is None when no vector has the additive
    term.  The index arrays ``u`` and ``v`` (P,) name the pairs.  Returns
    complex (P, S, M), each pair one contiguous (S, M) plane with s
    slowest; a ``space`` of None is the flat form.  (The transposed
    product, (P, M, S), rounds some pairings differently in OpenBLAS, which
    would move the last bits of the build header.)

    Every pairing is a sum of s-factors times x-factors,

        sum_c s_c (A_u B_u + d_u) conj(A_v B_v + d_v)
          = sum_c [s A_u conj(A_v)] [B_u conj(B_v)] + [s A_u conj(d_v)] B_u
                  + [s d_u conj(A_v)] conj(B_v) + [sum_c s d_u conj(d_v)] 1,

    so all pairs are one stacked complex matmul (P, S, K) @ (P, K, M) with
    K = m, or 3m + 1 with the delta terms: O(S + M) factor terms per pair
    instead of O(S M) ambient vectors.
    """
    signs = 1.0 if space is None else space.signs
    Au, Av = A[u] * signs, np.conj(A[v])
    Bu, Bv = B[u], np.conj(B[v])
    left, right = [Au * Av], [Bu * Bv]
    if delta is not None:
        du, dv = delta[u] * signs, np.conj(delta[v])
        left += [Au * dv, du * Av, np.sum(du * dv, axis=-1, keepdims=True)]
        right += [Bu, Bv, np.ones(Bu.shape[:-1] + (1,))]
    return np.concatenate(left, axis=-1) @ np.concatenate(right, axis=-1).swapaxes(-1, -2)


def quadric_defect(space: HermitianSpace, z: np.ndarray) -> np.ndarray:
    """|(z,z) - target|, the deviation from quadric membership."""
    return np.abs(herm_form(space, z, z).real - space.quadric_target)


def relative_quadric_defect(space: HermitianSpace, z: np.ndarray) -> np.ndarray:
    """|(z,z) - target| / max(|z|^2, 1): the quadric defect on the scale of z."""
    return quadric_defect(space, z) / np.maximum(np.sum(np.abs(z) ** 2, axis=-1), 1.0)


def normalize_phase(z: np.ndarray) -> np.ndarray:
    """Rotate by a unit phase so the largest-modulus coordinate is real >= 0.

    Ties broken by lowest index (np.argmax convention), which makes the
    representative deterministic and serialization reproducible.
    """
    z = np.asarray(z, dtype=complex)
    k = np.argmax(np.abs(z), axis=-1)
    pivot = np.take_along_axis(z, np.expand_dims(k, -1), axis=-1)[..., 0]
    phase = np.where(np.abs(pivot) > 0, pivot / np.maximum(np.abs(pivot), 1e-300), 1.0)
    return z * np.conj(phase)[..., None]


def projective_distance(space: HermitianSpace, z: np.ndarray, w: np.ndarray):
    """Distance between [z] and [w]: phase-aligned max-coordinate deviation.

    The optimal phase is read off in closed form from the largest-modulus
    coordinate of ``w``; the result is normalized by the larger coordinate
    scale of the two representatives, so it is dimensionless.  Rows of
    shape (..., m) give distances of shape (...); one pair gives a float.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    _check_dim(space, z, w)
    k = np.argmax(np.abs(w), axis=-1)[..., None]
    zk = np.take_along_axis(z, k, axis=-1)
    phase = np.take_along_axis(w, k, axis=-1) / np.where(zk == 0.0, 1.0, zk)
    # np.hypot rounds like abs() of a complex scalar; np.abs of a complex
    # array can differ in the last bit
    phase = phase / np.hypot(phase.real, phase.imag)
    aligned = np.where(zk == 0.0, z, z * phase)
    scale = np.maximum(np.maximum(np.max(np.abs(z), axis=-1), np.max(np.abs(w), axis=-1)), 1.0)
    dist = np.max(np.abs(aligned - w), axis=-1) / scale
    return float(dist) if dist.ndim == 0 else dist


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of CH^n / CP^n with a deterministic phase-normalized representative.

    Construction renormalizes the representative onto the quadric by real
    scaling when the defect is below 1e-6 and rejects otherwise.
    """

    space: HermitianSpace
    rep: np.ndarray = field(repr=False)

    def __post_init__(self):
        rep = np.asarray(self.rep, dtype=complex)
        _check_dim(self.space, rep)
        val = herm_form(self.space, rep, rep).real
        target = self.space.quadric_target
        if val * target <= 0:
            raise InvalidArgument("representative on the wrong side of the null cone")
        scale = np.sqrt(val / target)
        defect = abs(val - target)
        if defect > 1e-6:
            raise InvalidArgument(f"quadric defect {defect:.3e} exceeds 1e-6")
        rep = normalize_phase(rep / scale)
        rep.setflags(write=False)
        object.__setattr__(self, "rep", rep)

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return (
            self.space == other.space
            and projective_distance(self.space, self.rep, other.rep) <= 1e-12
        )


def legendrian_residual(z: np.ndarray, v_norm: np.ndarray, c: np.ndarray) -> np.ndarray:
    """|(v_a, z)| / max(|v_a| |z|, 1) per vector from c = (v_a, z) and the
    Euclidean norms |v_a|, both (A, ...) for z (..., C)."""
    nz = np.sqrt(np.sum(np.abs(z) ** 2, axis=-1))
    return np.abs(c) / np.maximum(v_norm * nz, 1.0)


def horizontal_pairings(space: HermitianSpace | None, to_d: np.ndarray, to_z: np.ndarray,
                        vertical: np.ndarray | None) -> np.ndarray:
    """(u, h_l) = (u, d_l z) - (u, z) conj(c_l) / t, the pairings of vectors u
    with the horizontal parts h_l = d_l z - c_l z / t of first partials, from
    ``to_d`` = (u, d_l z), ``to_z`` = (u, z) and ``vertical`` c_l = (d_l z, z),
    t the quadric target; axes broadcast into a new C-ordered array.  In the
    flat ambient (``space`` None) h_l = d_l z."""
    if space is None:
        return np.array(to_d, order="C")
    out = np.multiply(to_z, np.conj(vertical) / space.quadric_target, order="C")
    return np.subtract(to_d, out, out=out)


@dataclass(frozen=True)
class IsometryElement:
    """Element of U^1(n+1) (hyperbolic) or U(n+1) (spherical), acting z -> z A."""

    space: HermitianSpace
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = self.space.ambient_dim
        if m.shape != (d, d):
            raise InvalidArgument(f"matrix must be {d}x{d}")
        S = self.space.signature_matrix()
        defect = np.max(np.abs(np.conj(m).T @ S @ m - S))
        if defect > 1e-10:
            raise InvalidArgument(f"form-preservation defect {defect:.3e} exceeds 1e-10")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def _check_special_orthogonal(A: np.ndarray) -> None:
    if np.max(np.abs(A @ A.T - np.eye(A.shape[0]))) > MODEL_TOL:
        raise InvalidArgument("matrix is not orthogonal within tolerance")
    if np.linalg.det(A) < 0:
        raise InvalidArgument("matrix has determinant -1, expected +1")


def embed_isometry(group: str, params, n: int) -> IsometryElement:
    """Embed an element of SO(n), SO^1_0(n) or SO(n-1) x R^{n-1} into the
    holomorphic isometry group of CH^n.

    ``params`` is an n x n special orthogonal matrix (``so_n``), an element
    of the identity component of the indefinite orthogonal group preserving
    diag(1,..,1,-1) (``so1_n``), or a pair (A, a) with A in SO(n-1) and
    a in R^{n-1} (``euclid_n``).
    """
    space = HermitianSpace(n, "hyperbolic")
    d = n + 1
    M = np.zeros((d, d))
    if group == "so_n":
        A = np.asarray(params, dtype=float)
        if A.shape != (n, n):
            raise InvalidArgument(f"so_n expects an {n}x{n} matrix")
        _check_special_orthogonal(A)
        M[:n, :n] = A
        M[n, n] = 1.0
    elif group == "so1_n":
        A = np.asarray(params, dtype=float)
        if A.shape != (n, n):
            raise InvalidArgument(f"so1_n expects an {n}x{n} matrix")
        S0 = np.diag(np.r_[np.ones(n - 1), -1.0])
        if np.max(np.abs(A @ S0 @ A.T - S0)) > MODEL_TOL:
            raise InvalidArgument("matrix does not preserve the (n-1,1) form")
        if np.linalg.det(A) < 0 or A[n - 1, n - 1] < 1.0 - MODEL_TOL:
            raise InvalidArgument("matrix is not in the identity component")
        M[0, 0] = 1.0
        M[1:, 1:] = A
    elif group == "euclid_n":
        A, a = params
        A = np.atleast_2d(np.asarray(A, dtype=float))
        a = np.atleast_1d(np.asarray(a, dtype=float))
        if A.shape != (n - 1, n - 1) or a.shape != (n - 1,):
            raise InvalidArgument("euclid_n expects (A in SO(n-1), a in R^{n-1})")
        _check_special_orthogonal(A)
        h = float(a @ a) / 2.0
        M[: n - 1, : n - 1] = A
        M[: n - 1, n - 1] = A @ a
        M[: n - 1, n] = A @ a
        M[n - 1, : n - 1] = -a
        M[n - 1, n - 1] = 1.0 - h
        M[n - 1, n] = -h
        M[n, : n - 1] = a
        M[n, n - 1] = h
        M[n, n] = 1.0 + h
    else:
        raise InvalidArgument(f"unknown group {group!r}")
    return IsometryElement(space, M)


def validate_model_point(kind: str, x: np.ndarray) -> np.ndarray:
    """Validate coordinates of a point of S^{m} ("sphere") or RH^{m}
    ("hyperbolic").

    Hyperbolic points x in R^{m+1} satisfy sum_{i<last} x_i^2 - x_last^2 = -1
    with x_last >= 1.
    """
    x = np.asarray(x, dtype=float)
    if kind == "sphere":
        if np.any(np.abs(np.sum(x * x, axis=-1) - 1.0) > MODEL_TOL):
            raise InvalidArgument("sphere point with |x|^2 != 1")
    elif kind == "hyperbolic":
        q = np.sum(x[..., :-1] ** 2, axis=-1) - x[..., -1] ** 2
        if np.any(np.abs(q + 1.0) > MODEL_TOL) or np.any(x[..., -1] < 1.0 - MODEL_TOL):
            raise InvalidArgument("point not on the upper hyperboloid sheet")
    else:
        raise InvalidArgument(f"unknown model point kind {kind!r}")
    return x


def umbilical_embed(kind: str, x: np.ndarray, r: float | None = None) -> np.ndarray:
    """Embed an umbilical hypersurface of RH^n into the quadric.

    geodesic_sphere: x in S^{n-1}   -> (sinh r x, cosh r)
    tube:            x in RH^{n-1}  -> (sinh r, cosh r x)
    horosphere:      x in R^{n-1}   -> (x, |x|^2/2, |x|^2/2 + 1)

    Outputs are real vectors on RH^n inside H^{2n+1}_1.
    """
    x = np.asarray(x, dtype=float)
    if kind == "geodesic_sphere":
        if r is None or r <= 0:
            raise InvalidArgument("geodesic_sphere requires radius r > 0")
        validate_model_point("sphere", x)
        return np.concatenate(
            [np.sinh(r) * x, np.broadcast_to(np.cosh(r), x.shape[:-1] + (1,))], axis=-1
        )
    if kind == "tube":
        if r is None or r <= 0:
            raise InvalidArgument("tube requires radius r > 0")
        validate_model_point("hyperbolic", x)
        return np.concatenate(
            [np.broadcast_to(np.sinh(r), x.shape[:-1] + (1,)), np.cosh(r) * x], axis=-1
        )
    if kind == "horosphere":
        if r is not None:
            raise InvalidArgument("horosphere takes no radius")
        h = np.sum(x * x, axis=-1, keepdims=True) / 2.0
        return np.concatenate([x, h, h + 1.0], axis=-1)
    raise InvalidArgument(f"unknown umbilical kind {kind!r}")


# ---------------------------------------------------------------------------
# random group elements (seeded; used by invariance checks and tests)

# [13/13] Pade coefficients and the 1-norm up to which they reach double
# precision without scaling (Higham 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential of a real square matrix by scaling and squaring
    with the [13/13] Pade approximant."""
    A = np.asarray(A, dtype=float)
    norm = float(np.max(np.sum(np.abs(A), axis=0), initial=0.0))
    squarings = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    A = A / 2.0**squarings
    b = _PADE13
    ident = np.eye(len(A))
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    X = np.linalg.solve(V - U, V + U)
    for _ in range(squarings):
        X = X @ X
    return X


def random_so(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random element of SO(n) via the exponential of a random skew matrix."""
    X = rng.normal(size=(n, n)) * 0.7
    return expm(X - X.T)


def random_so1(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random element of SO^1_0(n) preserving diag(1,..,1,-1), x -> xA."""
    X = np.zeros((n, n))
    B = rng.normal(size=(n - 1, n - 1)) * 0.4
    X[: n - 1, : n - 1] = B - B.T
    v = rng.normal(size=n - 1) * 0.4
    X[: n - 1, n - 1] = v
    X[n - 1, : n - 1] = v
    return expm(X)


def random_euclid(rng: np.random.Generator, n: int):
    """Random (A, a) in SO(n-1) x R^{n-1}."""
    return random_so(rng, n - 1), rng.normal(size=n - 1) * 0.5
