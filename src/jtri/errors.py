"""Exception hierarchy for jtri.

Four categories matter to callers (and to the CLI exit-code map):

  ParseError       -- malformed input (exit 2)
  InfeasibleError  -- a requested decomposition provably does not exist (exit 3)
  NumericalError   -- the input defeats the algorithm numerically (exit 4)
  DimensionError   -- shape / index / validation problems (exit 5)
"""


class JtriError(Exception):
    """Base class for all jtri errors."""


class ParseError(JtriError):
    """Input file or inline JSON could not be parsed."""


class InfeasibleError(JtriError):
    """The requested decomposition does not exist for this input."""


class NumericalError(JtriError):
    """Numerical failure (singular input, no convergence, ...)."""


class DimensionError(JtriError):
    """Dimension, index or precondition violation."""


# --- numerical -------------------------------------------------------------

class SingularMatrixError(NumericalError):
    """Matrix is singular (or numerically so) where invertibility is required."""


class RankDeficientError(NumericalError):
    """Columns are linearly dependent; QR cannot proceed."""


class NoConvergenceError(NumericalError):
    """Iterative kernel exceeded its iteration budget."""


class NotHermitianError(NumericalError):
    """Matrix expected to be Hermitian is not."""


class NotPsdError(NumericalError):
    """Matrix expected to be positive semidefinite is not."""


class NotBlockTriangularError(NumericalError):
    """Matrix expected to be block upper triangular has a nonzero entry
    below its diagonal blocks."""


# --- infeasible ------------------------------------------------------------

class MajorizationError(InfeasibleError):
    """Target diagonal is not multiplicatively majorized by the singular values.

    ``failing_prefix`` is the 1-based length of the first violated prefix
    product (``n`` means the total-product equality failed).
    """

    def __init__(self, message, failing_prefix=None):
        super().__init__(message)
        self.failing_prefix = failing_prefix


class BlockConditionError(InfeasibleError):
    """Block determinant targets violate the feasibility conditions.

    ``failing_q`` is the 1-based index of the first violated condition.
    """

    def __init__(self, message, failing_q=None):
        super().__init__(message)
        self.failing_q = failing_q


class ConditionViolatedError(InfeasibleError):
    """Existence condition for the requested joint decomposition fails."""


class NotConstructibleError(InfeasibleError):
    """No exact joint decomposition is available; fall back to time extension."""


class TooFewExtensionsError(InfeasibleError):
    """Number of time extensions is below the construction's requirement."""


class UnachievableFractionError(InfeasibleError):
    """Requested capacity fraction cannot be met by any finite extension."""


# --- dimension / validation -------------------------------------------------

class NotSquareError(DimensionError):
    pass


class ShapeMismatchError(DimensionError):
    pass


class DimensionMismatchError(DimensionError):
    pass


class LengthMismatchError(DimensionError):
    pass


class IndexOutOfRangeError(DimensionError):
    pass


class DuplicateIndexError(DimensionError):
    pass


class NonPositiveEntryError(DimensionError):
    pass


class NotFiniteError(DimensionError):
    """Matrix entries must be finite."""


class BadDeterminantError(DimensionError):
    """Determinant magnitude does not satisfy the operation's precondition."""


class DiagBelowOneError(DimensionError):
    """A scheme diagonal entry is below one; its SNR would be negative."""


class TooManyUsersError(DimensionError):
    """Factorial enumeration guard tripped."""


class BadKError(DimensionError):
    """Closed-form precoder only exists for the supported user counts."""


class FormMismatchError(DimensionError):
    """Unitary factor is not in the reflection form required for embedding."""
