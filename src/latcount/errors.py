"""Exception hierarchy shared by all latcount modules.

One class per exit code in README's table, plus the two failures that the
acceptance tests tell apart; every other error is a plain LatcountError.
"""


class LatcountError(Exception):
    """Base class for all errors raised by this package (exit 1)."""


class ReduciblePolynomial(LatcountError):
    """The defining polynomial factors over the rationals (exit 2)."""


class PrecisionExhausted(LatcountError):
    """A certified computation did not stabilize within the precision budget (exit 3)."""


class EmptyReport(LatcountError):
    """No rows survived the report's validity filters (exit 4)."""


class ResidueBudgetExceeded(LatcountError):
    """Residue field product exceeds the x^C1 budget (exit 5)."""


class SearchExhausted(LatcountError):
    """No certified element found within the search radius."""


class AlphaPossiblySquare(LatcountError):
    """Could not certify that alpha is a non-square."""
