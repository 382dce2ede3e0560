"""Exception hierarchy shared across the package.

Three failure families: bad parameters or configuration (CLI exit code 2),
malformed or inconsistent input data (exit code 3), and inputs that are
structurally fine but too thin to support the requested statistic.  The last,
``InsufficientDataError``, comes from the waiting-time tail fit, which
``invstats`` records in ``summary.json`` as an ``error`` entry instead of
exiting.

Values from outside are type-checked here alone: ``check_fields`` checks a
record's fields by their annotations, and ``check_level`` each analysis level.
"""

import math
from dataclasses import fields
from sys import float_info


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


# each annotation check_fields checks: the types it takes and its message's noun
FIELD_TYPES = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
               "str": ((str,), "a string"), "tuple[float, ...]": ((list, tuple), "a list of numbers")}


def check_level(key: str, level) -> float:
    """``level`` as a float: a finite number, not a bool or a string; anything
    else raises ValidationError naming ``key``."""
    try:
        if isinstance(level, bool):
            raise TypeError
        finite = math.isfinite(level)
    except TypeError:
        raise ValidationError(f"{key}: {level!r} is not a number") from None
    except OverflowError:  # an integer past the largest float
        finite = False
    if not finite:
        raise ValidationError(f"{key}: {level!r} is not finite")
    return float(level)


def check_fields(record) -> None:
    """Raise ValidationError naming a field of dataclass ``record`` that does
    not hold its ``FIELD_TYPES`` type (a bool is never a number, a float is
    finite, each level passes ``check_level``), storing floats as floats."""
    for f in fields(record):
        if f.type not in FIELD_TYPES:
            continue
        allowed, noun = FIELD_TYPES[f.type]
        value = getattr(record, f.name)
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ValidationError(f"{f.name}: expected {noun}, got {value!r}")
        if f.type == "float":
            if not abs(value) <= float_info.max:  # NaN, ±inf or an int past any float
                raise ValidationError(f"{f.name} must be finite, got {value!r}")
            object.__setattr__(record, f.name, float(value))
        elif f.type == "tuple[float, ...]":
            object.__setattr__(record, f.name, tuple(check_level(f.name, v) for v in value))
