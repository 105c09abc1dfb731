"""Shared exception hierarchy. The CLI maps these onto exit codes."""


class SpaError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SpaError, ValueError):
    """Shapes of operands do not line up."""


class ContractError(SpaError, RuntimeError):
    """A documented precondition was violated by the caller."""


class UndefinedMetricError(ContractError):
    """A metric has no value for its input (an empty gate trace)."""


class DomainError(SpaError, ValueError):
    """A numeric input lies outside the operation's domain."""


class ConfigError(SpaError, ValueError):
    """A config file or config value is malformed."""
