"""Exception hierarchy shared across the package, and the domain check of a parameter record."""

import math


class PathexecError(Exception):
    """Base class for all package errors."""


class DomainError(PathexecError):
    """An argument lies outside the mathematical domain of an operation."""


# rule -> whether a value keeps it; both bounds imply finite
_RULES = {"finite": math.isfinite, "> 0": lambda v: 0 < v < math.inf,
          ">= 0": lambda v: 0 <= v < math.inf}


def check_domain(record, rules: dict[str, str]) -> None:
    """DomainError naming the first field of ``record`` that breaks its rule in ``_RULES``."""
    for field, rule in rules.items():
        value = getattr(record, field)
        if not _RULES[rule](value):
            broken = rule if math.isfinite(value) else "finite"
            raise DomainError(f"{type(record).__name__}.{field} must be {broken}, got {value}")


class GridMismatchError(PathexecError):
    """Two sampled paths live on different grids; resample before combining."""


class EstimationError(PathexecError):
    """A statistical fit is degenerate or outside its identifiable regime."""


class CsvParseError(PathexecError):
    """A data file failed validation.  Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConfigError(PathexecError):
    """A scenario configuration is missing keys or fails validation."""
