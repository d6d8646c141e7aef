"""Exception types shared across the toolkit."""


class RenewalSimError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(RenewalSimError):
    """Invalid parameter values or malformed configuration input."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}" if field else message)


class ContractViolationError(RenewalSimError):
    """A caller broke a documented precondition (e.g. insufficient history)."""


class NumericError(RenewalSimError):
    """A numerical routine failed to reach its requested tolerance.

    ``achieved_tolerance`` carries the best tolerance that was reached,
    when known.
    """

    def __init__(self, message: str, achieved_tolerance: float | None = None):
        self.achieved_tolerance = achieved_tolerance
        super().__init__(message)


class StatisticUndefinedError(RenewalSimError):
    """A statistic was requested in a state where it is not defined."""
