"""Shared exception types."""


class VerificationError(RuntimeError):
    """A constructed artifact failed its own post-verification.

    Carries the offending index (``witness``), or None where the check
    names none. The artifact itself is not kept: an artifact that fails
    its check is never returned or written.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class PairwiseError(ValueError):
    """A pairwise precondition failed; ``pair`` is the first violating
    index pair ``(i, j)``, ``i < j``, in row-major order."""

    def __init__(self, message, pair):
        super().__init__(message)
        self.pair = pair


class BudgetError(RuntimeError, ValueError):
    """A construction or certificate would pass its size budget (net
    points, cover centers). A RuntimeError for callers that catch one,
    and a ValueError, like every other refused input, for the CLI."""
