"""Exception types shared across the package."""


class AnalysisError(Exception):
    """Base class for every error raised by this package; the message names
    the argument, field, tolerance or rank test at fault."""


class DimensionError(AnalysisError):
    """Operands have inconsistent or unsupported dimensions."""


class UnsupportedOrderError(AnalysisError):
    """System order outside the range the requested operation supports."""


class NumericRangeError(AnalysisError):
    """A computation left the representable floating-point range."""


class ToleranceError(AnalysisError):
    """A tolerance is not a positive finite number."""


class ConvergenceError(AnalysisError):
    """An iterative numerical routine failed to converge."""


class MinimalityError(AnalysisError):
    """The realization is not minimal in continuous time."""


class InsufficientScheduleError(AnalysisError):
    """The sampling schedule has fewer instants than the operation needs."""


class SingularScheduleError(AnalysisError):
    """The schedule fails the joint criterion.

    Carries the criterion report that triggered the rejection.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotApplicableError(AnalysisError):
    """The requested analysis does not apply to this system."""


class InfeasibleError(AnalysisError):
    """No schedule satisfying the search constraints could be produced."""


class SystemDocumentError(AnalysisError):
    """A system-definition document failed validation."""
