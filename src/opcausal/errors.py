"""Exception hierarchy shared across the pipeline, the integer checks and every setting's rule."""

import math
from numbers import Integral, Real


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


def _count(value) -> bool:
    """The rule of a count (samples, realizations, workers): an integer >= 1."""
    return is_integer(value) and value >= 1


def _lead_in(value) -> bool:
    """The rule of a lead-in, the samples a simulator discards before the first kept one."""
    return is_integer(value) and value >= 0


# setting -> (rule a good value obeys, message for a bad one); each rule is a
# comparison that holds, so NaN breaks every rule
SETTINGS = {
    "lambda": (lambda v: 0 < v <= 1, "lambda must be in (0, 1], got {}"),
    "delta": (lambda v: v >= 0, "delta must be non-negative, got {}"),
    "T": (_count, "need at least 1 sample, and T must be an integer, got {!r}"),
    "lead_in": (
        _lead_in, "a lead-in (burn_in, transient_samples) must be an integer >= 0, got {!r}"
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
    "n_realizations": (_count, "n_realizations must be an integer >= 1, got {!r}"),
    "max_workers": (_count, "max_workers (--threads) must be an integer >= 1, got {!r}"),
}


def number(name: str, value, error=ValueError) -> None:
    """Raise error unless value is a real number: a bool, a string, None or np.True_ is not."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise error(f"{name} must be a number, got {value!r}")


def check(name: str, value) -> None:
    """Raise ValueError (InvalidLambda for lambda) unless value is a number SETTINGS[name] takes."""
    holds, message = SETTINGS[name]
    error = InvalidLambda if name == "lambda" else ValueError
    # an integer row's own rule fails a bool, with a message that asks for an integer
    if holds not in (_count, _lead_in) or not isinstance(value, bool):
        number(name, value, error)
    if not holds(value):
        raise error(message.format(value))
