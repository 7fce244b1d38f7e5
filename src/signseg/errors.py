"""Exception types shared across the package, the rules of config fields
and their checker, and the checks of plain integer, real and class-label
arguments."""

import math
import numbers
from dataclasses import MISSING, field, fields

import numpy as np


class SignsegError(Exception):
    """Base class for every error this package raises on bad input or state."""


class KeypointParseError(SignsegError):
    """A keypoint file line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class HandCountError(SignsegError):
    """Frames within one recording disagree on the number of hands."""


class DegenerateFrameError(SignsegError):
    """All keypoints of a hand coincide with the wrist; no scale can be derived."""


class ShapeError(SignsegError):
    """An array argument has the wrong shape for the requested operation."""


class ConfigError(SignsegError):
    """A configuration value is missing, unknown, mistyped, or inconsistent."""


class StreamTooShortError(SignsegError):
    """A continuous stream has fewer frames than one sliding window."""


class NonFiniteGradientError(SignsegError):
    """A gradient contained NaN or infinity; names the offending parameter."""

    def __init__(self, param_name: str):
        super().__init__(f"non-finite gradient for parameter {param_name!r}")
        self.param_name = param_name


class WeightsFormatError(SignsegError):
    """The weights blob is structurally invalid."""


class WeightsMagicError(WeightsFormatError):
    """The weights blob does not start with the expected magic string."""


class WeightsVersionError(WeightsFormatError):
    """The weights blob declares an unsupported format version."""


class WeightsTruncationError(WeightsFormatError):
    """The weights blob ends before all declared parameters are present."""


# The ranges a rule() field or a check_reals call may name: the text its messages show, and its test.
RANGES = {">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1, ">= 2": lambda v: v >= 2, "> 0": lambda v: v > 0,
          "in (0, 1)": lambda v: 0 < v < 1, "in (0, 1]": lambda v: 0 < v <= 1, "in [0, 1)": lambda v: 0 <= v < 1}


def rule(default=MISSING, bound: str | None = None):
    """A config dataclass field that check_rules checks: its type is its
    annotation, int or float, and its range RANGES[bound] unless None."""
    return field(default=default, metadata={"bound": bound})


def check_rules(config) -> None:
    """Raises ConfigError naming the first rule() field of config that
    breaks its rule: an int field takes a Python int, not a bool, and a
    float field a finite number (check_reals); both must lie in range."""
    for f in (f for f in fields(config) if "bound" in f.metadata):
        value, integer = getattr(config, f.name), f.type in (int, "int")
        if integer and (not isinstance(value, int) or isinstance(value, bool)):
            raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        check_reals(f.metadata["bound"], not integer, ConfigError, **{f.name: value})


def is_integer(value) -> bool:
    """A Python or numpy integer, not a bool (numpy would read True as 1)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def shown(value, text=str) -> str:
    """text(value) for an error message, except that an int too long for
    Python to print (sys.get_int_max_str_digits) is shown by its size."""
    try:
        return text(value)
    except ValueError:  # past that limit, an int's str and repr raise it
        digits = int(math.log10(abs(value))) + 1
        return f"{'a negative' if value < 0 else 'an'} integer of about {digits} digits"


def check_counts(minimum: int, **values) -> None:
    """Raises ValueError naming the first value that is not is_integer (a
    float would fail inside numpy) or is below minimum."""
    for name, value in values.items():
        if not is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {shown(value)}")


def class_index(label, what: str, classes: int | None = None) -> int:
    """label as a Python int when it is_integer and a class index: in
    [0, classes), or >= 0 without classes (a one-hot row would read -1 as
    the last class); otherwise raises ValueError naming `what`."""
    if not is_integer(label) or label < 0 or classes is not None and label >= classes:
        span = ">= 0" if classes is None else f"in [0, {classes})"
        raise ValueError(f"{what} label {shown(label, repr)} is not a class index {span}")
    return int(label)


def check_reals(bound: str | None, finite: bool = False, error: type = ValueError, **values) -> None:
    """Raises `error` naming the first value that is not a real number,
    numpy's included (a string or None would fail inside a comparison), or
    is a bool, is not finite when `finite` is set, or lies outside
    RANGES[bound] when bound is given (NaN lies outside every range)."""
    for name, value in values.items():
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise error(f"{name} must be a number, got {value!r}")
        try:  # an int past float range overflows isfinite: it is not finite either
            infinite = finite and not math.isfinite(value)
        except OverflowError:
            infinite = True
        if infinite:
            raise error(f"{name} must be finite, got {shown(value)}")
        if bound is not None and not RANGES[bound](value):
            raise error(f"{name} must be {bound}, got {shown(value)}")
