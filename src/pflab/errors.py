"""Exception types shared across the package.

Everything derives from PflabError so callers can catch the library in
one clause; the concrete classes also subclass the closest builtin so
generic code (``except ZeroDivisionError``) keeps working.
"""

from __future__ import annotations


class PflabError(Exception):
    pass


class ContextMismatch(PflabError, ValueError):
    """Operands belong to fields with different numbers of variables."""


class DivisionByZero(PflabError, ZeroDivisionError):
    pass


class NotASquare(PflabError, ValueError):
    pass


class ValuationOfZero(PflabError, ValueError):
    pass


class ZeroSlot(PflabError, ValueError):
    """A Pfister form slot (or tested slot value) is zero."""


class IsotropicInput(PflabError, ValueError):
    """An operation that needs anisotropic forms received an isotropic one."""


class EmptyInput(PflabError, ValueError):
    pass


class PreconditionFailed(PflabError, ValueError):
    """An algorithmic precondition (checked at runtime) does not hold."""


class NotDivisible(PflabError, ValueError):
    """An exact polynomial division has a nonzero remainder."""


class EliminationInvariant(PflabError, RuntimeError):
    """Fraction-free elimination broke one of its own invariants."""


class IdentityFailed(PflabError, RuntimeError):
    """An identity that exact arithmetic guarantees did not hold."""


class CompletionNotFound(PflabError, RuntimeError):
    """No slot completion exists; reported rather than guessed."""


class BadRank(PflabError, ValueError):
    """Family construction needs at least two variables."""


class HypothesisFailed(PflabError, ValueError):
    """Slots do not have negative values with independent parities."""


class ZeroW(PflabError, ValueError):
    pass


class AlgebraMismatch(PflabError, TypeError):
    """Quaternion elements of different algebras were combined."""


class ParseError(PflabError, ValueError):
    """Element grammar error; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position
