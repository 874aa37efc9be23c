"""Exceptions shared across the package, and the one refusal of a size."""


class ExhaustionError(ValueError):
    """An exhaustive computation was refused because it exceeds a size bound.

    Raised instead of silently running for hours.  It is a ValueError, since
    a size above a named bound is an out-of-range argument; the message names
    the bound that was hit.  Only the checks ``size_bound`` makes raise it.
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


def size_bound(bound: int, name: str, route: str, label: str = "n"):
    """
    The check of a size against a named bound: one line states a bound.

    ``check(value)`` returns value, or refuses a negative value with
    ValueError("<label> must be nonnegative") and then a value above bound
    with ExhaustionError("<label>=<value> exceeds the <route> bound
    <name>=<bound>").  Passing costs one call and two comparisons.

    >>> size_bound(9, "MAX_EXHAUSTIVE", "exhaustive")(10)
    Traceback (most recent call last):
    ...
    permstat.errors.ExhaustionError: n=10 exceeds the exhaustive bound MAX_EXHAUSTIVE=9
    """

    def check(value: int) -> int:
        if value < 0:
            raise ValueError(f"{label} must be nonnegative")
        if value > bound:
            raise ExhaustionError(f"{label}={value} exceeds the {route} bound {name}={bound}")
        return value

    return check
