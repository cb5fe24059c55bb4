"""Reference computations that only the tests read.

Each states an identity the library relies on without calling it itself:
the horizontal projection of the Hopf fibration, the invariants of a
sampled Legendre curve, the evenness of a profile, and the two-solve
profile route.  ``solve_profile`` integrates each profile ODE once, over
[0, s_max], and reads s < 0 as the mirror (r(-s), -u(-s)) of that solve.
The mirror is exact because the (r, u) system is autonomous with
r' = tanh u odd in u and u' = slope(r) free of u, and because DOP853 run
from the mirrored state negates every stage sum exactly (IEEE rounding is
symmetric in sign, ``math.tanh`` is odd).  ``two_solve_profile`` is the
route that does not assume it: a forward and a backward solve, each read
on its own half of the grid.
"""

import math

import numpy as np

from lagmin.domain import IntegrationFailure, PreconditionViolation
from lagmin.dop853 import solve_ivp
from lagmin.model_spaces import MODEL_TOL, herm_form, quadric_defect
from lagmin.profiles import _GRID_STEP


def horizontal_project(space, z, v):
    """Project ``v`` onto the horizontal space of the Hopf fibration at ``z``,
    h = v - (v, z) z / (z, z) with (z, z) read as the quadric target, at a z
    checked to lie on the quadric within ``MODEL_TOL``; leading axes
    broadcast.  (h, z) = 0 is tangency to the quadric and orthogonality to
    the fiber i z together; idempotent, and annihilates the fiber."""
    if np.any(quadric_defect(space, z) > MODEL_TOL):
        raise PreconditionViolation("base point is not on the quadric")
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


def half_line_solve(family, s_end, tol):
    """One DOP853 solve of ``family``'s (r, u) system from (rho, 0) at s = 0
    to ``s_end``, at the tolerances ``solve_profile`` asks for."""
    return solve_ivp(family.ode_rhs, (0.0, s_end), (family.rho, 0.0),
                     rtol=max(tol, 2.3e-14), atol=tol * 1e-3)


def two_solve_profile(family, s_max, tol):
    """(s, r, r', u) of an ODE family on ``solve_profile``'s grid over
    [-s_max, s_max] from independent forward and backward solves, each read
    on its own half line; a failed solve raises ``IntegrationFailure`` with
    the solver's message, the forward one first."""
    half = max(8, int(math.ceil(s_max / _GRID_STEP)))
    s = np.linspace(-s_max, s_max, 2 * half + 1)
    r, u = np.empty_like(s), np.empty_like(s)
    neg = s < 0
    for direction, part in ((1.0, ~neg), (-1.0, neg)):
        sol = half_line_solve(family, direction * s_max, tol)
        if not sol.success:
            raise IntegrationFailure(sol.message, last_s=float(sol.t[-1]))
        r[part], u[part] = sol.sol(s[part])
    return s, r, np.tanh(u), u
