"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class RemovableSingularityError(DomainError):
    """The closed-form expression is singular here although the curve extends
    continuously; callers should substitute the analytic limit value."""


class NumericalError(RuntimeError):
    """An iterative computation failed to converge or lost a tracked branch."""


class ToleranceError(NumericalError):
    """A solve ends above the residual tolerance it was asked to meet."""
