"""Monomial valuation on GF(2)(a1, ..., an) with value group Z^n under lex order.

The valuation fixes v(a_i) = -e_i, so v(a^e) = -e and every variable has
negative value.  Distinct monomials take distinct values, hence the value
of a polynomial is the minimum over its monomials and no GF(2) cancellation
can disturb it; fractions subtract.  The parity map sends v(f) to
Z^n / 2Z^n, where the images of a1, ..., an are independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ValuationOfZero
from .field import FieldElement, Poly

__all__ = [
    "val",
    "parity",
    "dominant_term_hypothesis",
    "values_meet_hypothesis",
    "ParitySet",
    "parity_span",
    "gf2_rank",
]

ValueVector = tuple[int, ...]
ParityClass = tuple[int, ...]


def _poly_val(p: Poly) -> ValueVector:
    # min over monomials of -e equals the negated lex-leading exponent
    lead = max(p.terms)
    return tuple(-e for e in lead)


def val(f: FieldElement) -> ValueVector:
    """Value of f in Z^n (lex order, first coordinate most significant)."""
    if f.is_zero:
        raise ValuationOfZero("the zero element has no value")
    vn = _poly_val(f.num)
    vd = _poly_val(f.den)
    return tuple(a - b for a, b in zip(vn, vd))


def parity(f: FieldElement) -> ParityClass:
    """val(f) reduced mod 2, as a bit vector in (Z/2)^n."""
    return tuple(v % 2 for v in val(f))


def gf2_rank(vectors: Iterable[Sequence[int]]) -> int:
    """Rank over GF(2) of 0/1 vectors, each packed as an int bitmask."""
    basis: dict[int, int] = {}  # leading bit length -> reduced vector
    for vec in vectors:
        x = 0
        for b in vec:
            x = (x << 1) | (b & 1)
        while x:
            h = x.bit_length()
            if h not in basis:
                basis[h] = x
                break
            x ^= basis[h]
    return len(basis)


def dominant_term_hypothesis(slots: Sequence[FieldElement]) -> bool:
    """True when every slot has negative value (lex) and the slot parities
    are linearly independent over GF(2).

    These are the conditions under which a diagonal form's value on a
    vector is read off its dominant coordinate alone.
    """
    if any(s.is_zero for s in slots):
        return False
    return values_meet_hypothesis([val(s) for s in slots])


def values_meet_hypothesis(values: Sequence[ValueVector]) -> bool:
    """``dominant_term_hypothesis`` on slot values already taken: every
    value is negative (lex) and their parities are independent."""
    if not all(v < (0,) * len(v) for v in values):
        return False
    return gf2_rank([tuple(x % 2 for x in v) for v in values]) == len(values)


@dataclass(frozen=True)
class ParitySet:
    """A subset of the parity group (Z/2)^n."""

    n: int
    classes: frozenset[ParityClass]

    @classmethod
    def full(cls, n: int) -> ParitySet:
        import itertools

        return cls(n, frozenset(itertools.product((0, 1), repeat=n)))

    @classmethod
    def of(cls, n: int, classes: Iterable[ParityClass]) -> ParitySet:
        return cls(n, frozenset(tuple(c) for c in classes))

    def __contains__(self, c: ParityClass) -> bool:
        return tuple(c) in self.classes

    def __and__(self, other: ParitySet) -> ParitySet:
        if self.n != other.n:
            raise ValueError("parity sets over different groups")
        return ParitySet(self.n, self.classes & other.classes)

    def complement(self) -> ParitySet:
        return ParitySet(self.n, ParitySet.full(self.n).classes - self.classes)

    @property
    def is_zero_only(self) -> bool:
        return self.classes == frozenset(((0,) * self.n,))

    def to_json(self):
        return [list(c) for c in sorted(self.classes)]

    def __repr__(self):
        return f"ParitySet({sorted(self.classes)})"


def parity_span(n: int, parities: Sequence[ParityClass]) -> ParitySet:
    """The GF(2)-span of the given parity classes, as an explicit set."""
    classes = {(0,) * n}
    for p in parities:
        classes |= {tuple(a ^ b for a, b in zip(c, p)) for c in classes}
    return ParitySet(n, frozenset(classes))
