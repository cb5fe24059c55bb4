"""What the package accepts, and what it raises when an input or a
computation leaves that domain.

The family, seed and check tags, the ODE tolerance range and default, and
every exception class of the package live here, each defined once: the
geometry modules read them from here, and so does the command line, which
parses its flags, reads its config file and maps errors to exit codes
before it loads numpy.  This module imports nothing.
"""

__all__ = [
    "PROFILE_FAMILIES",
    "IMMERSION_FAMILIES",
    "SEED_KINDS",
    "ALL_CHECKS",
    "DEFAULT_ODE_TOL",
    "ODE_TOL_RANGE",
    "GeometryError",
    "InvalidArgument",
    "PreconditionViolation",
    "IntegrationFailure",
    "NeedsLargerDomain",
    "DetectionFailure",
    "SchemaError",
]

# the rows of profiles' family table and of immersions' ``_FAMILIES``
PROFILE_FAMILIES = ("ch_sphere", "ch_tube", "ch_horo", "cp_sphere")
IMMERSION_FAMILIES = (
    "thm1", "thm2", "thm3", "thm5", "tg_sphere", "tg_tube", "tg_horo",
    "prop3a", "prop3b", "prop3c", "prop4a", "prop4b", "prop4c",
    "prop6a", "prop6b", "cn_product",
)
SEED_KINDS = ("tg_sphere_cp", "tg_rh_ch", "tg_plane_c", "clifford_cp")
ALL_CHECKS = ("lagrangian", "horizontal", "minimal", "metric", "sff", "invariance", "symmetry")

# the local error bound of a profile solve unless one is given, and the
# range of bounds a solve accepts
DEFAULT_ODE_TOL = 1e-10
ODE_TOL_RANGE = (1e-13, 1e-6)


class GeometryError(Exception):
    """Base class for errors raised by this package."""


class InvalidArgument(GeometryError, ValueError):
    """Argument outside the documented domain of an operation."""


class PreconditionViolation(GeometryError):
    """A geometric precondition (quadric membership, horizontality) fails."""


class IntegrationFailure(GeometryError):
    def __init__(self, message, last_s=None):
        super().__init__(message)
        self.last_s = last_s


class NeedsLargerDomain(GeometryError):
    """An analytic tail bound cannot reach the requested tolerance."""


class DetectionFailure(GeometryError):
    """No periodic return found within the search window."""


class SchemaError(InvalidArgument):
    """Malformed serialized input; message names the first violation."""
