"""Exception and warning types shared across the toolkit, and the order in
which a batch over several models reports them."""

import warnings


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


class PropertyFailureError(QmsGapError):
    """A campaign property failed; carries the serialized counterexamples."""

    def __init__(self, message, counterexamples=None, seed=None):
        super().__init__(message)
        self.counterexamples = counterexamples or []
        self.seed = seed


class ConfigError(QmsGapError):
    """Configuration file or command-line input is malformed."""


class IllConditionedWarning(UserWarning):
    """Gram matrix condition number exceeds the guard threshold."""


class NegativeGapWarning(UserWarning):
    """Computed gap is negative beyond tolerance (non-contraction upstream)."""


def in_model_order(batch, *columns):
    """batch(*columns), with the errors and warnings of a model-by-model run.

    Each column holds one entry per model (row) and batch returns one result
    per row.  A batch stacks the models and runs each stage for all of them
    before the next, so the first error or warning it meets need not be the
    one a model-by-model run meets first.  So when the batch raises or warns,
    its rows are run again one at a time, in order: the warnings then come as
    that run gives them, and the first failing model raises its own error,
    with the same type and message.  A batch that neither raises nor warns
    is returned as it is.
    """
    n = len(columns[0])
    if n <= 1:
        return batch(*columns)
    with warnings.catch_warnings(record=True) as caught:
        try:
            results = batch(*columns)
        except Exception:  # any error: the replay below raises it again
            results = None
    if results is not None and not caught:
        return results
    return [batch(*(column[i : i + 1] for column in columns))[0] for i in range(n)]
