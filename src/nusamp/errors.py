"""Exception types shared across the package."""


class AnalysisError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(AnalysisError):
    """Operands have inconsistent or unsupported dimensions."""


class UnsupportedOrderError(AnalysisError):
    """System order outside the range the requested operation supports."""


class NumericRangeError(AnalysisError):
    """A computation left the representable floating-point range."""


class ToleranceError(AnalysisError):
    """A tolerance is not a positive finite number.

    The message names the offending tolerance.
    """


class ConvergenceError(AnalysisError):
    """An iterative numerical routine failed to converge."""


class MinimalityError(AnalysisError):
    """The realization is not minimal.

    The message names which continuous-time rank test failed.
    """


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
    """A system-definition document failed validation.

    The message names the offending field.
    """
