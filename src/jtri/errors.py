"""Exception hierarchy for jtri.

Every error raised is a JtriError of one of four categories, which callers
catch and the CLI maps to its exit codes; the message says which check failed:

  ParseError       -- malformed JSON, matrix object, payload field or flag (exit 2)
  InfeasibleError  -- the requested decomposition provably does not exist: an
                      existence condition fails, too few time extensions, an
                      unreachable capacity fraction (exit 3)
  NumericalError   -- the input defeats the algorithm numerically: a singular or
                      rank-deficient matrix, no convergence, a covariance that is
                      not Hermitian PSD, a non-finite result (exit 4)
  DimensionError   -- a shape, size, index or precondition problem: mismatched
                      sizes, a non-finite or non-positive entry, |det| off (exit 5)

Three infeasible cases carry more: MajorizationError (``failing_prefix``) and
BlockConditionError (``failing_q``) name the first failing group of a gtd or
block_gtd target, and NotConstructibleError says that no exact joint
decomposition is known for the input, so the caller falls back to time extension.
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


class NotConstructibleError(InfeasibleError):
    """No exact joint decomposition is available; fall back to time extension."""
