"""Exception types shared across the package."""


class UnitRedError(Exception):
    """Base class for library errors."""


class ConductorError(UnitRedError, ValueError):
    """Bad conductor: zero, negative, non-canonical (N % 4 == 2), or not a divisor
    where divisibility is required."""


class FieldMismatchError(ConductorError):
    """Operands belong to different fields."""


class NotTotallyPositiveError(UnitRedError, ValueError):
    """The trace form of the element is not positive definite."""


class DegreeError(UnitRedError, ValueError):
    """The degree is out of reach: no exact Hermite constant is stored for
    it, or a witness check's enumeration dimension exceeds VERIFY_DEGREE_CAP
    and force=True was not passed.  The CLI exits 3 on it."""


class BudgetError(UnitRedError, RuntimeError):
    """Enumeration exceeded its node or result budget.

    Carries the counts at the moment of failure so callers can report a partial
    certificate instead of a silent wrong answer.
    """

    def __init__(self, message, *, nodes=None, results=None):
        super().__init__(message)
        self.nodes = nodes
        self.results = results


class VerificationError(UnitRedError, RuntimeError):
    """A certificate check that must hold failed; never silently ignored."""
