"""Reference computations that only the tests read.

Each states an identity the library relies on without calling it itself:
the horizontal projection of the Hopf fibration, the invariants of a
sampled Legendre curve and the evenness of a profile.
"""

import numpy as np

from lagmin.domain import PreconditionViolation
from lagmin.model_spaces import MODEL_TOL, herm_form, quadric_defect


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
