"""Exception types shared across the package."""


class RecurseqError(Exception):
    """Base class for all library-specific failures."""


class IndexCapExceeded(RecurseqError):
    """An evaluation index walked past the configured cap.

    Subsequence indices grow exponentially (2^n + 1, nested Fibonacci
    indices, ...), so unguarded evaluation could try to build integers
    with billions of digits.  Raising the cap is always possible; doing
    it silently is not.
    """


class InverseUnavailable(RecurseqError):
    """An operation that divides by q was requested with q = 0.

    Negative companion-matrix powers (the matrix is singular) and the chains
    of accelerate_general and arithmetic_index_accel, which run every chain
    scheme of `recurseq accelerate`, need q != 0; with q = 0 the recurrence
    is first-order and x_n = p wherever it is defined.
    """


class DegenerateRatio(RecurseqError):
    """A ratio or acceleration formula hit a vanishing denominator."""


class DegenerateStep(RecurseqError):
    """A root-finding iteration step is undefined at the current point."""


class DegenerateConvergent(RecurseqError):
    """A continued-fraction convergent is undefined (denominator sequence hit zero)."""


class NonRealRoots(RecurseqError):
    """The quadratic has no real roots, so there is no real target to approximate."""


class NoProgress(RecurseqError):
    """Iteration failed to reach the requested agreement within the step cap."""
