"""Exception hierarchy shared across the package.

Three failure families: bad parameters or configuration (CLI exit code 2),
malformed or inconsistent input data (exit code 3), and inputs that are
structurally fine but too thin to support the requested statistic.  The last,
``InsufficientDataError``, comes from the waiting-time tail fit, which
``invstats`` records in ``summary.json`` as an ``error`` entry instead of
exiting.
"""

from dataclasses import fields


class CondCorrError(Exception):
    """Base class for all package errors."""


class ValidationError(CondCorrError, ValueError):
    """A parameter, configuration value, or call violates a precondition."""

    exit_code = 2


class DataError(CondCorrError, ValueError):
    """Input data is malformed, inconsistent, or out of domain."""

    exit_code = 3


class InsufficientDataError(CondCorrError, RuntimeError):
    """Valid inputs, but not enough usable samples for the statistic."""

    exit_code = 4


_SCALAR_TYPES = {"int": ((int,), "an integer"), "float": ((int, float), "a number")}


def check_scalar_fields(config) -> None:
    """Raise ValidationError naming a field of dataclass ``config`` that does
    not hold its type: an ``int`` field an integer, a ``float`` field an
    integer or a float; a bool is never a number."""
    for f in fields(config):
        if f.type in _SCALAR_TYPES:
            allowed, noun = _SCALAR_TYPES[f.type]
            value = getattr(config, f.name)
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ValidationError(f"{f.name}: expected {noun}, got {value!r}")
