"""Exception types shared across the package."""


class DirlapError(RuntimeError):
    """Base class for all errors raised by this package."""


class BudgetExceededError(DirlapError):
    """An enumeration outgrew its vertex budget after finding ``count`` vertices."""

    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count


class InconsistentAdjacencyError(DirlapError):
    """Two vertices report different weights for the edges between them."""

    def __init__(self, message: str, pair: tuple):
        super().__init__(message)
        self.pair = pair


class DegreeCapError(DirlapError):
    """A generator reported more neighbours than the configured cap allows."""


class TruncationError(DirlapError):
    """Truncated simulation did not converge after enlarging the domain."""


class StepSizeError(DirlapError):
    """The adaptive integrator drove the step size below the representable floor."""


class SingularFormError(DirlapError):
    """A quadratic form that should be definite on the test space is singular."""


class BlowUpError(DirlapError):
    """A nonlinear trajectory left the perturbative regime."""
