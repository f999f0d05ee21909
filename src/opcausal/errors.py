"""Exception hierarchy shared across the pipeline, the integer checks and every setting's rule."""

import math
from numbers import Integral


class OpcausalError(Exception):
    """Base class for all errors raised by this package."""


class SeriesTooShort(OpcausalError):
    pass


class NonFiniteValue(OpcausalError):
    pass


class LagTooLarge(OpcausalError):
    pass


class DegenerateSample(OpcausalError):
    pass


class InvalidLambda(OpcausalError, ValueError):
    pass


class ConditioningTooLarge(OpcausalError):
    pass


class CandidateNotALink(OpcausalError):
    pass


class NonFiniteState(OpcausalError):
    pass


class ParameterUnset(OpcausalError):
    pass


class ChannelMismatch(OpcausalError):
    pass


class TooFewChannels(OpcausalError):
    pass


class WindowTooShort(OpcausalError):
    pass


class TruthOffGrid(OpcausalError):
    pass


def is_integer(value) -> bool:
    """Whether value is an int or a numpy integer, and not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def whole(name: str, value) -> int:
    """value as an int: an integer or a float with no fraction, else ValueError naming it."""
    if is_integer(value) or (isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


# setting -> (rule a good value obeys, message for a bad one); each rule is a
# comparison that holds, so NaN breaks every rule
SETTINGS = {
    "lambda": (lambda v: 0 < v <= 1, "lambda must be in (0, 1], got {}"),
    "delta": (lambda v: v >= 0, "delta must be non-negative, got {}"),
    "T": (lambda v: v >= 1, "need at least 1 sample, got {}"),
    # the samples a simulator steps and discards before the first kept one
    "lead_in": (
        lambda v: is_integer(v) and v >= 0,
        "a lead-in (burn_in, transient_samples) must be an integer >= 0, got {!r}",
    ),
    "NL": (lambda v: v >= 0, "noise level must be non-negative, got {}"),
    "K": (lambda v: 0 <= v <= 100, "connection density K must be in [0, 100] percent, got {}"),
    "c": (lambda v: v >= 0, "coupling strength must be non-negative"),
    "sample_rate": (
        lambda v: 0 < v < math.inf,
        "sample rate must be a positive finite number, got {}",
    ),
    "window_s": (
        lambda v: 0 < v < math.inf,
        "window_s must be a positive finite number of seconds, got {}",
    ),
    "overlap": (lambda v: 0 <= v < 1, "overlap must be in [0, 1)"),
    "n_realizations": (lambda v: v >= 1, "need at least one realization per cell"),
    "max_workers": (lambda v: v >= 1, "max_workers (--threads) must be at least 1, got {}"),
}


def check(name: str, value) -> None:
    """Raise ValueError, InvalidLambda for lambda, unless `value` obeys SETTINGS[name]."""
    holds, message = SETTINGS[name]
    if not holds(value):
        raise (InvalidLambda if name == "lambda" else ValueError)(message.format(value))
