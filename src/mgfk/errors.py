"""Exception types shared across the package, and the physical-memory guard."""

import os


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


def require_memory(nbytes: int, what: str) -> None:
    """Raise ``MgfkError`` if ``what``, ``nbytes`` bytes, exceeds the
    machine's physical memory.  Where that cannot be read (no
    ``os.sysconf``, which only Unix has, or one that raises ``ValueError``
    or ``OSError`` for its names), nothing is refused."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return
    if nbytes > memory:
        raise MgfkError(f"{what} needs {nbytes} bytes, more than the {memory} bytes of physical memory")
