"""Exception types shared across the package."""


class MgfkError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(MgfkError):
    """Vector or grid shape does not match the operator."""


class GridSizeError(MgfkError):
    """Grid size is not of the form 2**k - 1."""


class EligibilityError(MgfkError):
    """Operator fails the symmetric-positive-definite eligibility test."""


class ConvergenceFailure(MgfkError):
    """A linear solve hit its iteration cap; carries the solve report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
