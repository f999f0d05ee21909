"""Exception hierarchy shared across the pipeline."""


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


class InvalidLambda(OpcausalError):
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
