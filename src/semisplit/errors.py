"""Exception types shared across the package, and the one whole-number rule."""

import numbers


class InvalidExponentError(ValueError):
    """A norm exponent outside [1, inf]."""


class ShapeError(ValueError):
    """Dimension mismatch between operators, functions, or spaces."""


class DomainError(ValueError):
    """An argument outside the mathematical domain of an operation."""


class CostGuardError(ValueError):
    """A request exceeding the desk-scale cost guards."""


class IllConditionedSplitError(RuntimeError):
    """The boundary split is degenerate (theta too close to 0 or 1)."""


class ConditioningError(RuntimeError):
    """A basis or restriction is numerically too close to singular."""


class ConvergenceError(RuntimeError):
    """An iterative numerical routine failed to converge; message carries diagnostics."""


def _check_whole(value, what: str, least: int) -> int:
    """``value`` as an int; DomainError unless it is a whole number >= ``least``."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise DomainError(f"need a whole number of {what}, at least {least}; got {value!r}")
    return int(value)
