"""Exception hierarchy, and the one warning helper, shared across the package."""

import sys
import warnings


def _warn(message: str) -> None:
    """A UserWarning at the first caller outside the module that calls this:
    a warning reached through a package function names that function's
    caller, as a direct call of the function that warns names its own."""
    frame, level = sys._getframe(1), 2
    module = frame.f_globals.get("__name__")
    while frame.f_globals.get("__name__") == module:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, UserWarning, stacklevel=level)


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
    """Requested count windows do not fit the observation horizon (2^53 for raw times)."""


class InsufficientData(HawkesError):
    """Not enough data to form even a single count window."""


class NoConvergence(HawkesError):
    """No admissible parameters match the first two moments, so the
    moment-system solver has no fit to report (a fit that only misses the
    tolerance is returned with converged = False instead); the CLI's
    estimate raises it after it writes a report that did not converge."""


class ParseError(HawkesError):
    """An event file line could not be parsed."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


class NegativeTimestamp(ParseError):
    """An event file contains a negative timestamp."""


class EmptyFile(ParseError):
    """An event file contains no timestamps."""
