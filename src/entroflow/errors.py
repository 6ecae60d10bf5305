"""Exception types shared across the package."""


class EntroflowError(Exception):
    """Base class for all package errors."""


class DomainError(EntroflowError):
    """An argument lies outside the mathematical domain of an operation."""


class ModelError(EntroflowError):
    """A coefficient model violates its structural requirements."""


class PrecisionError(EntroflowError):
    """Quadrature failed to reach the requested tolerance.

    Carries the achieved error estimate in ``achieved``.
    """

    def __init__(self, message, achieved):
        super().__init__(message)
        self.achieved = achieved


class RunAbort(EntroflowError):
    """A run stopped before t_end on a numerical abort.

    ``last_time`` is the last time at which the state was still valid, and
    ``trajectory`` holds the snapshots recorded up to it, unmeasured.
    """

    def __init__(self, message, last_time=None, trajectory=None):
        super().__init__(message)
        self.last_time = last_time
        self.trajectory = trajectory


class PositivityLossError(RunAbort):
    """A time-stepped field dropped below the positivity floor."""


class StabilityError(RunAbort):
    """A step exceeded its stability bound, or the density the run's ceiling."""


class UsageError(EntroflowError):
    """An operation was called in a way its contract forbids."""


class HypothesisError(EntroflowError):
    """A stated hypothesis (e.g. a lower bound on a coefficient) fails."""


class ConstructionError(EntroflowError):
    """A field or test-function specification violates its invariants."""


class ConfigError(EntroflowError):
    """An experiment configuration is invalid."""
