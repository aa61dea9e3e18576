"""Exception types shared across the package."""


class GrasspackError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(GrasspackError):
    """Operands have incompatible shapes."""


class ParameterError(GrasspackError):
    """An argument is outside the supported domain."""


class DegenerateRankError(GrasspackError):
    """A projection of rank 0 or full rank has no sphere image."""


class UnsupportedError(GrasspackError):
    """No built-in construction covers this case; import the data instead."""


class HypothesisError(GrasspackError):
    """A construction hypothesis fails, so the result cannot be certified."""


class StructuralError(GrasspackError):
    """Input data violates a structural requirement of the operation."""


class ConsistencyError(GrasspackError):
    """An identity that must hold by construction failed numerically."""
