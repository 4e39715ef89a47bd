"""Exception hierarchy shared across the package.

Two families matter for the CLI exit codes: configuration problems
(bad parameters, malformed config files) and numerical guard trips
(domain errors, degenerate couplings, exhausted MLMC level budget).
"""


class SvSchemesError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(SvSchemesError, ValueError):
    """A model or scheme parameter violates its constraints."""


class ConfigError(SvSchemesError, ValueError):
    """A config mapping is malformed (unknown keys, missing keys, bad types)."""


class NumericalError(SvSchemesError, ArithmeticError):
    """A runtime numerical guard tripped (domain error, degeneracy, ...)."""


class BudgetExceededError(NumericalError):
    """MLMC reached its maximum level without meeting the bias criterion."""
