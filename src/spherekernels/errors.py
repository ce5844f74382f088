"""Exception types shared across the package."""


class SphereKernelsError(ValueError):
    """Base class for all domain errors raised by this package."""


class DomainError(SphereKernelsError):
    """An argument lies outside the mathematical domain of an operation."""


class UnknownFamilyError(SphereKernelsError):
    """A kernel family name is not in the catalog."""


class ParameterError(SphereKernelsError):
    """A kernel parameter is missing, outside its domain, or otherwise unusable."""


class DimensionMismatchError(SphereKernelsError):
    """A coefficient sequence has the wrong sphere dimension for an operation."""


class FactorizationError(SphereKernelsError):
    """A Gram matrix could not be factorized, even after jitter escalation."""
