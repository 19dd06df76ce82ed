"""Exception types raised by the geometry and fitting layers."""


class FContactError(Exception):
    """Base class for library errors."""


class DegenerateMetricError(FContactError):
    """Metric is singular (or numerically so) at a point."""

    def __init__(self, point, message="metric is singular"):
        self.point = point
        super().__init__(f"{message} at point {point!r}")


class SingularJetError(FContactError, ZeroDivisionError):
    """A jet operation divides by a zero value (reciprocal or negative power at 0)."""


class EmptyPointSetError(FContactError, ValueError):
    """An operation that takes points was given none."""


class InsufficientSampleError(FContactError):
    """A least-squares system has no usable rows (e.g. all eta-bar terms vanish)."""


class InvalidSectionError(FContactError):
    """A vector handed to an f-section computation is not a unit vector in L."""


class NotApplicableError(FContactError):
    """Operation precondition not met (wrong s, kappa >= 1, no nullity fit, ...)."""


class UnknownManifoldError(FContactError, KeyError):
    """Catalog lookup with an unknown key."""

    def __str__(self):
        return Exception.__str__(self)
