"""Exception hierarchy shared by all cpick modules."""


class CPickError(Exception):
    """Base class for every error raised by this package."""


class InvalidK(CPickError):
    """A constraint-set description is malformed (empty, nonpositive, unsorted)."""


class Unsupported(CPickError):
    """Operation requires the algebra property (or a proper nonempty K)."""


class OrderTooLarge(CPickError):
    """Derivative order outside the supported range."""


class DomainError(CPickError):
    """A complex argument lies outside its required disk."""


class Infeasible(CPickError):
    """Interpolation data admits no Schur-class solution."""


class InvalidProblem(CPickError):
    """Node lists violate distinctness or size constraints."""


class InvalidExponent(CPickError):
    """Exponent pair (E, d) with d not dividing E."""


class InvalidConfig(CPickError):
    """Numerical configuration out of range (radius, sample count, ...)."""


class NumericalError(CPickError):
    """Non-finite values where finite linear algebra was expected."""


class NotPrefixK(CPickError):
    """The biconditional criterion only applies to K = {1, 2, ..., k}."""


class NotFound(CPickError):
    """No feasible Möbius parameter was found while constructing an interpolant.

    ``result`` carries the search record; ``certified`` is True only when the
    negative verdict is exact (parameter pinned by a node at the origin, in a
    mode whose criterion is necessary).
    """

    def __init__(self, message: str, result=None, certified: bool = False):
        super().__init__(message)
        self.result = result
        self.certified = certified
