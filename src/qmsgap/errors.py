"""Exception and warning types shared across the toolkit, and `warn`."""

import os
import sys
import warnings


def warn(message: str, category: type) -> None:
    """warnings.warn at the first frame outside this package: the caller's
    line, however deep the routine that warns (3.12's skip_file_prefixes)."""
    package, frame, level = os.path.dirname(__file__) + os.sep, sys._getframe(), 1
    while frame is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


class QmsGapError(Exception):
    """Base class for all toolkit errors."""


class NotHermitianError(QmsGapError):
    """Input matrix fails the Hermiticity tolerance check."""


class NotPSDError(QmsGapError):
    """Input matrix has an eigenvalue below the positive-semidefinite floor."""


class ConvergenceFailureError(QmsGapError):
    """Eigensolver failed to converge or its output fails reconstruction."""


class FunctionDomainError(QmsGapError):
    """Scalar function is undefined or non-finite at a required point."""


class DimensionMismatchError(QmsGapError):
    """Vector or matrix shape is incompatible with the requested operation."""


class NegativeArgumentError(QmsGapError):
    """Operator monotone functions are only defined on the nonnegative axis."""


class BoundViolationError(QmsGapError):
    """A function violates the normalized operator-monotone bounds."""


class NotFaithfulError(QmsGapError):
    """State is not faithful (has an eigenvalue at or below the threshold)."""


class NonUniqueInvariantStateError(QmsGapError):
    """The dual generator has a kernel of dimension greater than one."""


class KernelDecisionError(QmsGapError):
    """A generator singular value lies in the band where the kernel
    dimension cannot be decided (between round-off and KERNEL_TOL)."""


class NoFaithfulInvariantStateError(QmsGapError):
    """The unique invariant state exists but is not faithful."""


class RateMismatchError(QmsGapError):
    """Supplied jump rates violate the detailed-balance relation."""


class OrderViolationError(QmsGapError):
    """Operator-order probe found a violated inequality."""


class RankDeficiencyError(QmsGapError):
    """Gram-based orthonormalization found fewer directions than expected."""


class PostconditionError(QmsGapError):
    """A numerically guaranteed identity failed its tolerance check."""


class ConfigError(QmsGapError):
    """Configuration file or command-line input is malformed."""


class IllConditionedWarning(UserWarning):
    """Gram matrix condition number exceeds the guard threshold."""


class NegativeGapWarning(UserWarning):
    """Computed gap is negative beyond tolerance (non-contraction upstream)."""
