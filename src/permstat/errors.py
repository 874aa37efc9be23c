"""Exceptions shared across the package."""


class ExhaustionError(ValueError):
    """An exhaustive computation was refused because it exceeds a size bound.

    Raised instead of silently running for hours.  It is a ValueError, since
    a size above a named bound is an out-of-range argument; the message names
    the bound that was hit.
    """


class VerificationError(RuntimeError):
    """A mechanically checked identity failed.

    Carries a ``witness`` (a counterexample permutation or word, the two
    disagreeing coefficient tuples, or the report of a failed class check)
    when one is available.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
