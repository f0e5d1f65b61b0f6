"""Exception hierarchy shared by all latcount modules."""


class LatcountError(Exception):
    """Base class for all errors raised by this package."""


class ReduciblePolynomial(LatcountError):
    """The defining polynomial factors over the rationals."""


class PrecisionExhausted(LatcountError):
    """A certified computation did not stabilize within the precision budget."""


class InvalidDiscriminant(LatcountError):
    """Discriminant outside the domain of the requested bound."""


class NotTotallyReal(LatcountError):
    """Operation requires a totally real field."""


class SearchExhausted(LatcountError):
    """No certified element found within the search radius."""


class PastCap(LatcountError):
    """A requested size is past the cap on its work: a Pisot search box or a
    Lie type rank."""


class InvalidT(LatcountError):
    """Requested number of Pisot places is out of range."""


class AlphaZero(LatcountError):
    """The element alpha is zero."""


class AlphaPossiblySquare(LatcountError):
    """Could not certify that alpha is a non-square."""


class SignUncertifiable(LatcountError):
    """An embedding sign could not be certified at the precision cap."""


class InvalidType(LatcountError):
    """Not a valid irreducible root-system type (or excluded form)."""


class InconsistentOverride(LatcountError):
    """A user override contradicts the structural data."""


class NonIntegralOrder(LatcountError):
    """Order formula produced a non-integer (invalid sign vector)."""


class EmptyReport(LatcountError):
    """No rows survived the report's validity filters."""


class ResidueBudgetExceeded(LatcountError):
    """Residue field product exceeds the x^C1 budget."""
