"""Reference computations that only the tests read.

Each states an identity the library relies on without calling it itself:
the horizontal projection of the Hopf fibration, the invariants of a
sampled Legendre curve, the evenness of a profile, the whole-lift jet
route and the two-solve profile route.  Two readers serve the tests'
comparisons: ``grid_order``, a grid-layout array as (S*M, ...) rows, and
``csv_to_rows``, the data rows of a CSV export.

Every immersion the library builds or loads carries its exact product jet,
and ``geomcheck.jet`` pairs nothing else.  The whole-lift route is the
independent second route the tests compare it with: 5-point stencils of a
lift evaluator on stacked (s, x) rows (``fd.jet_partials``), the raw jets
stacked in ``jet_rows`` order and paired against [z, d_l z] by one
broadcast ``herm_form``, not ``product_gram``.  The result is a
``JetBatch`` of one s row of N blocks, (..., 1, N), its s values (1, N)
and its block points the N rows' x, which the library's
``frame_batch`` and ``second_fundamental_form`` take like any other
batch: Lambda = 1 and G = g, one Cholesky per point.

The profiles are quadratures of their first integral; the ODE itself is
their oracle.  ``ode_rhs`` writes each profile equation in the variables
(r, u) with r' = tanh u, whose right-hand side (tanh u, alpha / T +
sigma beta T) has no 1 - r'^2 to cancel, and ``two_solve_profile`` solves
it with scipy's DOP853 (``profiles.solve_ivp``) forward and backward from
(rho, 0), each solve read on its own half of a profile's row grid.
"""

import math

import numpy as np

from lagmin import fd
from lagmin.domain import IntegrationFailure, InvalidArgument
from lagmin.geomcheck import JetBatch
from lagmin.immersions import jet_rows
from lagmin.model_spaces import MODEL_TOL, herm_form, quadric_defect
from lagmin.profiles import _ROW_STEP, solve_ivp


def as_blocks(a):
    """Rows (N, ...) as one s row of N blocks, (..., 1, N)."""
    return np.moveaxis(a, 0, -1)[..., None, :]


def grid_order(a):
    """An array in grid layout, trailing axes (S, M) for S values and M
    block points, as (S*M, ...) rows in ``grid_xi`` order (s slowest)."""
    return np.moveaxis(a.reshape(a.shape[:-2] + (-1,)), -1, 0)


def stacked_jets(space, xi, value, d1, d2) -> JetBatch:
    """The ``JetBatch`` of materialised jets (N, C), (N, D, C), (N, D, D, C)
    at the stacked rows ``xi``: the rows in ``jet_rows`` order paired
    against [z, d_l z] by one broadcast ``herm_form``."""
    D, jets = d1.shape[1], (value, d1, d2)
    rows = np.stack([jets[len(idx)][(slice(None),) + idx] for idx in jet_rows(D)], axis=1)
    cols = np.concatenate([value[:, None], d1], axis=1)
    gram = herm_form(space, rows[:, :, None], cols[:, None])
    norms = np.sqrt(np.sum(np.abs(d1) ** 2, axis=-1))
    return JetBatch(xi[None, :, 0], xi[:, 1:], value[None], as_blocks(gram), as_blocks(norms))


def whole_lift_jets(space, evaluate_xi, xi, h=fd.DEFAULT_FD_STEP) -> JetBatch:
    """``stacked_jets`` of central differences of the lift evaluator
    ``evaluate_xi`` at the stacked rows ``xi``, step ``h``."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    return stacked_jets(space, xi, *fd.jet_partials(evaluate_xi, xi, h))


def horizontal_project(space, z, v):
    """Project ``v`` onto the horizontal space of the Hopf fibration at ``z``,
    h = v - (v, z) z / (z, z) with (z, z) read as the quadric target, at a z
    checked to lie on the quadric within ``MODEL_TOL``; leading axes
    broadcast.  (h, z) = 0 is tangency to the quadric and orthogonality to
    the fiber i z together; idempotent, and annihilates the fiber."""
    if np.any(quadric_defect(space, z) > MODEL_TOL):
        raise InvalidArgument("base point is not on the quadric")
    z, v = np.asarray(z, dtype=complex), np.asarray(v, dtype=complex)
    return v - (herm_form(space, v, z) / space.quadric_target)[..., None] * z


def curve_invariant_residuals(curve) -> dict:
    """A Legendre curve's largest quadric defect ("norm") and largest
    |(gamma', gamma)| ("horizontal") over its samples."""
    space = curve.space
    return {"norm": float(np.max(quadric_defect(space, curve.gamma))),
            "horizontal": float(np.max(np.abs(herm_form(space, curve.d1, curve.gamma))))}


def evenness_residual(sol) -> float:
    """Largest |r(s) - r(-s)| of a profile on its symmetric grid."""
    return float(np.max(np.abs(sol.r - sol.r[::-1])))


def ode_rhs(family):
    """The right-hand side (r', u') = (tanh u, alpha / T + sigma beta T) of
    ``family``'s profile equation in the variables (r, u), r' = tanh u."""
    row = family.row

    def rhs(_s, y):
        t = math.tan(y[0]) if row.trig.sigma < 0 else math.tanh(y[0])
        return (math.tanh(y[1]), row.alpha / t + row.trig.sigma * row.beta * t)

    return rhs


def half_line_solve(family, s_end, rtol=1e-13):
    """One DOP853 solve of ``family``'s (r, u) system from (rho, 0) at s = 0
    to ``s_end``, absolute tolerance rtol * 1e-2."""
    return solve_ivp(ode_rhs(family), (0.0, s_end), (family.rho, 0.0),
                     rtol=rtol, atol=rtol * 1e-2)


def two_solve_profile(family, s_max, rtol=1e-13):
    """(s, r, r') of an ODE family on ``solve_profile``'s row grid over
    [-s_max, s_max] from independent forward and backward DOP853 solves,
    each read on its own half line; a failed solve raises
    ``IntegrationFailure`` with the solver's message and the s it reached."""
    half = max(8, int(math.ceil(s_max / _ROW_STEP)))
    s = np.linspace(-s_max, s_max, 2 * half + 1)
    r, u = np.empty_like(s), np.empty_like(s)
    neg = s < 0
    for direction, part in ((1.0, ~neg), (-1.0, neg)):
        sol = half_line_solve(family, direction * s_max, rtol)
        if not sol.success:
            raise IntegrationFailure(f"{sol.message} (last s = {float(sol.t[-1])})")
        r[part], u[part] = sol.sol(s[part])
    return s, r, np.tanh(u)


def csv_to_rows(text: str) -> list:
    """The data rows of a CSV export as lists of fields, header dropped."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    return [ln.split(",") for ln in lines[1:]]
