"""Exception types shared across the package, and the integer check of the
config dataclasses."""


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


def check_integers(config, names) -> None:
    """Raises ConfigError unless each named field of config is an int, not a bool."""
    for name in names:
        value = getattr(config, name)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
