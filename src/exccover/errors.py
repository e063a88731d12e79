"""Exception types shared across the toolkit."""


class ExcCoverError(Exception):
    """Base class for every error raised by this package."""


class NonPrime(ExcCoverError):
    """A field characteristic was composite."""


class CapExceeded(ExcCoverError):
    """A configured magnitude or enumeration cap was exceeded."""


class DegreeCapExceeded(CapExceeded):
    """A polynomial exceeded the configured per-variable degree cap."""


class MixedFields(ExcCoverError):
    """Operands belong to different fields."""


class DivisionByZero(ExcCoverError, ZeroDivisionError):
    """Inversion of zero or division by the zero polynomial."""


class NoEmbedding(ExcCoverError):
    """No embedding exists between the given fields (or an element lies
    outside the embedded subfield)."""


class NotSeparable(ExcCoverError):
    """The map's derivative data vanishes identically."""


class WildCase(ExcCoverError):
    """The cover exponent is divisible by the characteristic."""


class NotTransitive(ExcCoverError):
    """The group was required to act transitively."""


class NotSubgroup(ExcCoverError):
    """The first group is not contained in the second."""


class NotPrimePower(ExcCoverError):
    """An integer expected to be a prime power was not."""


class InvalidOrder(ExcCoverError):
    """A supplied group order is impossible for the given degree."""


class PreconditionFailed(ExcCoverError):
    """A documented precondition of the operation does not hold."""


class UnknownSymbol(ExcCoverError):
    """The expression used a symbol the declared field cannot interpret."""


class ParseError(ExcCoverError):
    """Expression text violates the polynomial grammar.

    Carries the zero-based offset of the offending character.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (offset {position})")
        self.position = position
