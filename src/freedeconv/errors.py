"""Exception hierarchy shared by all freedeconv modules.

Every error carries a stable machine-readable ``code`` and the name of the
``module`` it belongs to, so the CLI can emit structured error JSON.
"""

import numbers


class FreeDeconvError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"
    module = "freedeconv"

    def __init__(self, message, module=None):
        super().__init__(message)
        if module is not None:
            self.module = module


class OrderTooLargeError(FreeDeconvError):
    code = "order-too-large"
    module = "ncpart"


class MalformedPartitionError(FreeDeconvError):
    code = "malformed-partition"
    module = "ncpart"


class InsufficientOrderError(FreeDeconvError):
    code = "insufficient-order"
    module = "ncpart"


class OrderMismatchError(FreeDeconvError):
    code = "order-mismatch"
    module = "series"


class BackendMismatchError(FreeDeconvError):
    code = "backend-mismatch"
    module = "series"


class NotInvertibleError(FreeDeconvError):
    code = "not-invertible"
    module = "series"


class DomainError(FreeDeconvError):
    code = "domain"
    module = "models"


class OrderTooSmallError(FreeDeconvError):
    code = "order-too-small"
    module = "models"


class NonrealRootsError(FreeDeconvError):
    code = "nonreal-roots"
    module = "models"


class RecoveryFailedError(FreeDeconvError):
    code = "recovery-failed"
    module = "models"

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DimensionMismatchError(FreeDeconvError):
    code = "dimension-mismatch"
    module = "models"


class SigmaZeroError(FreeDeconvError):
    code = "sigma-zero"
    module = "subordination"


class NoConvergenceError(FreeDeconvError):
    code = "no-convergence"
    module = "subordination"

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class NonSelfadjointError(FreeDeconvError):
    code = "non-selfadjoint"
    module = "randmat"


class EigensolverError(FreeDeconvError):
    code = "eigensolver-failure"
    module = "randmat"

    def __init__(self, message, trial=None):
        super().__init__(message)
        self.trial = trial


def require_int(value, field: str, module: str, low: int | None = None) -> None:
    """DomainError unless ``value`` is an int (a numbers.Integral, not a bool)
    and, if ``low`` is given, at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{field} must be an integer, got {value!r}", module=module)
    if low is not None and value < low:
        raise DomainError(f"{field} must be at least {low}, got {value}", module=module)
