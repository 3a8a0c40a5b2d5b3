"""Exception types shared across the package."""


class FdeflowError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(FdeflowError, ValueError):
    """An argument violates a documented precondition."""


class InvalidStateError(FdeflowError, RuntimeError):
    """Inputs produced non-finite or otherwise unusable intermediate values."""


class InsufficientWeightError(FdeflowError, RuntimeError):
    """Effective sample size of importance weights is too small for a reliable fit."""


class PicardDivergedError(FdeflowError, RuntimeError):
    """Picard iteration failed to converge; carries the iteration report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
