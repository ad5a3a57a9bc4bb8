"""Exception hierarchy shared across the package."""


class HawkesError(Exception):
    """Base class for all errors raised by hawkesmom."""


class ExplosionRisk(HawkesError):
    """beta <= alpha: the self-excitation feedback is supercritical."""


class NonPositiveBase(HawkesError):
    """The base intensity must be strictly positive."""


class NegativeInput(HawkesError):
    """A parameter that must be nonnegative is negative."""


class CapacityExceeded(HawkesError):
    """A simulated trajectory exceeded the configured event cap."""


class WindowOutOfRange(HawkesError):
    """Requested count windows do not fit inside the observation horizon."""


class InsufficientData(HawkesError):
    """Not enough data to form even a single count window."""


class NoConvergence(HawkesError):
    """No admissible parameters match the first two moments, so the
    moment-system solver has no fit to report (a fit that only misses the
    tolerance is returned with converged = False instead)."""


class ParseError(HawkesError):
    """An event file line could not be parsed."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


class NegativeTimestamp(ParseError):
    """An event file contains a negative timestamp."""


class EmptyFile(ParseError):
    """An event file contains no timestamps."""
