"""Monomial valuation on GF(2)(a1, ..., an) with value group Z^n under lex order.

The valuation fixes v(a_i) = -e_i, so v(a^e) = -e and every variable has
negative value.  Distinct monomials take distinct values, hence the value
of a polynomial is the minimum over its monomials and no GF(2) cancellation
can disturb it; fractions subtract.  The parity map sends v(f) to
Z^n / 2Z^n, where the images of a1, ..., an are independent.

``parity_sums`` is the one place where parity classes are combined: it
lists the 2^k subset sums of k classes.  The classes are independent over
GF(2) exactly when those sums are pairwise distinct, since a GF(2)-linear
map is injective exactly when its kernel is 0; so the slot hypothesis
reads independence off the sums, and no rank over GF(2) is taken.
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
    "parity_sums",
    "ParitySet",
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


def parity_sums(parities: Sequence[ParityClass]) -> tuple[ParityClass, ...]:
    """The 2^k subset sums of k parity classes, in ``bilinear._products``
    order: index e holds the sum of the classes picked out by the bits of
    e, the last class the lowest bit.

    Built by doubling over the classes in reverse, each new half the old
    one XORed with the class.  With no classes it is the one empty sum,
    ``((),)``, since no class gives the group's width.
    """
    sums = [tuple(0 for _ in parities[0]) if parities else ()]
    for p in reversed(parities):
        sums += [tuple(a ^ b for a, b in zip(p, q)) for q in sums]
    return tuple(sums)


def dominant_term_hypothesis(slots: Sequence[FieldElement]) -> bool:
    """True when every slot has negative value (lex) and the slot parities
    are linearly independent over GF(2).

    These are the conditions under which a diagonal form's value on a
    vector is read off its dominant coordinate alone.
    """
    if any(s.is_zero for s in slots):
        return False
    values = [val(s) for s in slots]
    sums = parity_sums([tuple(x % 2 for x in v) for v in values])
    return values_meet_hypothesis(values, sums)


def values_meet_hypothesis(values: Sequence[ValueVector], sums: Sequence[ParityClass]) -> bool:
    """``dominant_term_hypothesis`` on slot values already taken and the
    ``parity_sums`` of their parities: every value is negative (lex), and
    the parities are independent, that is, the 2^k sums are pairwise
    distinct."""
    if not all(v < (0,) * len(v) for v in values):
        return False
    return len(set(sums)) == len(sums)


@dataclass(frozen=True)
class ParitySet:
    """A subset of the parity group (Z/2)^n."""

    n: int
    classes: frozenset[ParityClass]

    @classmethod
    def of(cls, n: int, classes: Iterable[ParityClass]) -> ParitySet:
        """The set of the given classes, each a tuple already."""
        return cls(n, frozenset(classes))

    def __contains__(self, c: ParityClass) -> bool:
        return tuple(c) in self.classes

    def __and__(self, other: ParitySet) -> ParitySet:
        if self.n != other.n:
            raise ValueError("parity sets over different groups")
        return ParitySet(self.n, self.classes & other.classes)

    @property
    def is_zero_only(self) -> bool:
        return self.classes == frozenset(((0,) * self.n,))

    def to_json(self):
        return [list(c) for c in sorted(self.classes)]

    def __repr__(self):
        return f"ParitySet({sorted(self.classes)})"
