"""Exception types shared across the package."""


class AnalysisError(Exception):
    """Base class for measurement and numerical failures."""


class PeakNotFoundError(AnalysisError):
    """No local maximum inside the search window (merged or absent formant)."""


class ValleyUndefinedError(AnalysisError):
    """Bracket frequencies too close to hold a valley sample."""


class SingularEnvelopeError(AnalysisError):
    """Envelope evaluation hit a pole on the frequency grid (non-finite dB)."""


class UnstableModelError(AnalysisError):
    """Levinson recursion produced |k| > 1 (inconsistent autocorrelation)."""

    def __init__(self, message, stage):
        super().__init__(message)
        self.stage = stage


class NumericFailureError(AnalysisError):
    """An iterative numerical routine failed to converge."""


class NoCrossingError(AnalysisError):
    """A sweep ended without the tracked quantity changing sign."""

    def __init__(self, message, trace=()):
        super().__init__(message)
        self.trace = list(trace)


class CalibrationError(AnalysisError):
    """Bandwidth calibration could not reach the level targets."""

    def __init__(self, message, residuals_db=()):
        super().__init__(message)
        self.residuals_db = list(residuals_db)


class NoDecisionError(AnalysisError):
    """A segment produced no valid frames to decide on."""


class DegenerateInputError(ValueError):
    """Input carries no usable signal (zero power, empty, ...)."""


class FormatError(ValueError):
    """A file does not match the expected format; `field` names the offender."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class LabelParseError(ValueError):
    """Malformed phone-label line; `line_number` is 1-based and starts the message."""

    def __init__(self, message, line_number=None):
        super().__init__(message if line_number is None else f"line {line_number}: {message}")
        self.line_number = line_number


class LabelOrderingError(LabelParseError):
    """Phone labels overlap or run backwards."""


class ValidationError(ValueError):
    """A parsed record violates a field invariant; `row` is 1-based and starts the message."""

    def __init__(self, message, row=None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row
