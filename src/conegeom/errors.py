"""Exception classes shared by all conegeom modules.

Every error that encodes a geometric precondition violation derives from
:class:`ConeGeometryError`, so callers (and the CLI) can distinguish domain
errors from programming errors.
"""

__all__ = [
    "ConeGeometryError",
    "DimensionMismatch",
    "VolumeNotPositive",
    "NotPositiveDefinite",
    "NotPrimitive",
    "SingularMetric",
    "DegeneratePlane",
    "WrongSignature",
    "NoValidPoints",
    "TensorFormatError",
]


class ConeGeometryError(Exception):
    """Base class for geometric domain errors."""


class DimensionMismatch(ConeGeometryError):
    """Vector, matrix or tensor shapes are incompatible."""


class VolumeNotPositive(ConeGeometryError):
    """The volume polynomial is not positive at the requested point."""


class NotPositiveDefinite(ConeGeometryError):
    """A matrix required to be positive-definite is not."""


class NotPrimitive(ConeGeometryError):
    """A tangent vector required to be primitive at the base point is not."""


class SingularMetric(ConeGeometryError):
    """The metric matrix is numerically singular."""


class DegeneratePlane(ConeGeometryError):
    """Two tangent vectors do not span a 2-plane."""


class WrongSignature(ConeGeometryError):
    """A quadratic form does not have the expected signature."""


class NoValidPoints(ConeGeometryError):
    """A sampler produced no points satisfying the preconditions."""


class TensorFormatError(ConeGeometryError):
    """A tensor file is malformed; the message carries position information."""
