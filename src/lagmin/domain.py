"""What the package accepts, and what it raises when an input or a
computation leaves that domain.

The family, seed and check tags and every exception class of the package
live here, each defined once: the geometry modules read them from here,
and so does the command line, which parses its flags, reads its config
file and maps errors to exit codes before it loads numpy.  This module
imports nothing.
"""

__all__ = [
    "PROFILE_FAMILIES",
    "IMMERSION_FAMILIES",
    "SEED_KINDS",
    "ALL_CHECKS",
    "GeometryError",
    "InvalidArgument",
    "IntegrationFailure",
    "NeedsLargerDomain",
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


class GeometryError(Exception):
    """Base class for errors raised by this package."""


class InvalidArgument(GeometryError, ValueError):
    """Argument outside the documented domain of an operation."""


class IntegrationFailure(GeometryError):
    """A quadrature fails, or a profile's constant leaves the doubles."""


class NeedsLargerDomain(GeometryError):
    """An analytic tail bound cannot reach the requested tolerance."""


class SchemaError(InvalidArgument):
    """Malformed serialized input; message names the first violation."""
