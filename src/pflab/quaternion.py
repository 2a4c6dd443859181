"""Quaternion algebras (beta, alpha] over GF(2)(a1, ..., an).

The algebra has basis 1, x, y, xy with the characteristic-2 relations

    x^2 + x = alpha,      y^2 = beta,      y x y^{-1} = x + 1.

The third relation gives y*x = x*y + y, and the full 16-entry basis
multiplication table below is derived once from the three relations and
frozen; the associativity test suite validates it.  The canonical
involution fixes 1, y and xy and sends x to x + 1; the reduced norm
q * conj(q) of a + bx + cy + dxy is

    a^2 + ab + alpha b^2 + beta (c^2 + cd + alpha d^2),

which is exactly the quadratic Pfister form <<beta, alpha]] evaluated at
(a, b, c, d), so norm questions reduce to the quadratic module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import AlgebraMismatch, ContextMismatch, HypothesisFailed, ZeroSlot
from .field import FieldContext, FieldElement
from .quadratic import InsepObstructionCertificate, QuadraticPfister, insep_obstruction
from .valuation import dominant_term_hypothesis, val

__all__ = [
    "QuaternionAlgebra",
    "QuaternionElement",
    "build_quat_triple",
    "quat_triple_obstruction",
]

# MUL[i][j] lists (basis index, alpha power, beta power) contributions of
# basis_i * basis_j over the basis (1, x, y, xy).  Derived from the
# relations: x*x = alpha + x, y*x = y + xy, y*y = beta,
# x*(xy) = alpha*y + xy, y*(xy) = beta + beta*x, (xy)*x = alpha*y,
# (xy)*y = beta*x, (xy)*(xy) = alpha*beta.
_MUL = (
    (((0, 0, 0),), ((1, 0, 0),), ((2, 0, 0),), ((3, 0, 0),)),
    (((1, 0, 0),), ((0, 1, 0), (1, 0, 0)), ((3, 0, 0),), ((2, 1, 0), (3, 0, 0))),
    (((2, 0, 0),), ((2, 0, 0), (3, 0, 0)), ((0, 0, 1),), ((0, 0, 1), (1, 0, 1))),
    (((3, 0, 0),), ((2, 1, 0),), ((1, 0, 1),), ((0, 1, 1),)),
)


class QuaternionAlgebra:
    """(beta, alpha]: x^2 + x = alpha, y^2 = beta, y x y^{-1} = x + 1."""

    __slots__ = ("ctx", "alpha", "beta")

    def __init__(self, ctx: FieldContext, alpha: FieldElement, beta: FieldElement):
        if alpha.ctx != ctx or beta.ctx != ctx:
            raise ContextMismatch("parameters from a different field context")
        if alpha.is_zero or beta.is_zero:
            raise ZeroSlot("quaternion parameters must be nonzero")
        self.ctx = ctx
        self.alpha = alpha
        self.beta = beta

    def __eq__(self, other):
        if not isinstance(other, QuaternionAlgebra):
            return NotImplemented
        return self.ctx == other.ctx and self.alpha == other.alpha and self.beta == other.beta

    def __hash__(self):
        return hash((self.ctx, self.alpha, self.beta))

    def __repr__(self):
        return f"({self.beta}, {self.alpha}]"

    def element(self, a, b, c, d) -> QuaternionElement:
        return QuaternionElement(self, (a, b, c, d))

    @property
    def one(self) -> QuaternionElement:
        z, o = self.ctx.zero, self.ctx.one
        return QuaternionElement(self, (o, z, z, z))

    @property
    def x(self) -> QuaternionElement:
        z, o = self.ctx.zero, self.ctx.one
        return QuaternionElement(self, (z, o, z, z))

    @property
    def y(self) -> QuaternionElement:
        z, o = self.ctx.zero, self.ctx.one
        return QuaternionElement(self, (z, z, o, z))

    def norm_form(self) -> QuadraticPfister:
        """The reduced norm form <<beta, alpha]]."""
        return QuadraticPfister(self.ctx, (self.beta,), self.alpha)

    def to_json(self):
        return {
            "type": "quaternion",
            "alpha": self.alpha.to_json(),
            "beta": self.beta.to_json(),
        }

    @classmethod
    def from_json(cls, ctx: FieldContext, data) -> QuaternionAlgebra:
        if not isinstance(data, dict) or data.get("type") != "quaternion":
            raise ValueError("expected a quaternion object")
        # a missing slot reads as None, which FieldElement.from_json refuses
        return cls(
            ctx,
            FieldElement.from_json(ctx, data.get("alpha")),
            FieldElement.from_json(ctx, data.get("beta")),
        )


@dataclass(frozen=True)
class QuaternionElement:
    """a + b x + c y + d xy with coordinates in the base field."""

    algebra: QuaternionAlgebra
    coords: tuple[FieldElement, FieldElement, FieldElement, FieldElement]

    def __post_init__(self):
        if len(self.coords) != 4:
            raise ValueError("quaternion elements have four coordinates")
        for c in self.coords:
            if c.ctx != self.algebra.ctx:
                raise ContextMismatch("coordinate from a different field context")

    def _same(self, other) -> QuaternionElement:
        if not isinstance(other, QuaternionElement):
            raise AlgebraMismatch(f"{other!r} is not a quaternion element")
        if other.algebra != self.algebra:
            raise AlgebraMismatch("elements of different quaternion algebras")
        return other

    def __add__(self, other: QuaternionElement) -> QuaternionElement:
        other = self._same(other)
        return QuaternionElement(
            self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    __sub__ = __add__  # char 2

    def __mul__(self, other: QuaternionElement) -> QuaternionElement:
        other = self._same(other)
        alg = self.algebra
        zero = alg.ctx.zero
        out = [zero, zero, zero, zero]
        for i, p in enumerate(self.coords):
            if not p:
                continue
            for j, q in enumerate(other.coords):
                if not q:
                    continue
                c = p * q
                for k, pa, pb in _MUL[i][j]:
                    term = c
                    if pa:
                        term = term * alg.alpha
                    if pb:
                        term = term * alg.beta
                    out[k] = out[k] + term
        return QuaternionElement(alg, tuple(out))

    def conj(self) -> QuaternionElement:
        """Canonical involution: 1, y, xy fixed; x -> x + 1."""
        a, b, c, d = self.coords
        return QuaternionElement(self.algebra, (a + b, b, c, d))

    def norm(self) -> FieldElement:
        """Reduced norm via the norm form <<beta, alpha]] at (a, b, c, d);
        agrees with q * conj(q) (property-tested)."""
        return self.algebra.norm_form().evaluate(self.coords)

    def scalar_part(self) -> FieldElement | None:
        """The base-field value when the element is central, else None."""
        a, b, c, d = self.coords
        if b or c or d:
            return None
        return a

    def __repr__(self):
        a, b, c, d = self.coords
        return f"({a}) + ({b})x + ({c})y + ({d})xy"


def build_quat_triple(
    alpha: FieldElement, beta: FieldElement
) -> tuple[QuaternionAlgebra, QuaternionAlgebra, QuaternionAlgebra]:
    """(beta, alpha], (alpha, beta], (beta, alpha*beta]: three quaternion
    algebras whose norm forms have no common inseparable quadratic splitting
    field once alpha and beta have negative values with independent parities."""
    ctx = alpha.ctx
    if beta.ctx != ctx:
        raise ContextMismatch("alpha and beta from different field contexts")
    if not alpha or not beta:
        raise HypothesisFailed("alpha and beta must be nonzero")
    neg = (0,) * ctx.n
    if not (val(alpha) < neg and val(beta) < neg):
        raise HypothesisFailed("alpha and beta must have negative values")
    if not dominant_term_hypothesis([alpha, beta]):
        raise HypothesisFailed("parity independence failed for (alpha, beta)")
    return (
        QuaternionAlgebra(ctx, alpha, beta),
        QuaternionAlgebra(ctx, beta, alpha),
        QuaternionAlgebra(ctx, alpha * beta, beta),
    )


def quat_triple_obstruction(
    alpha: FieldElement, beta: FieldElement
) -> InsepObstructionCertificate:
    """Obstruction certificate for the norm forms of the triple."""
    triple = build_quat_triple(alpha, beta)
    return insep_obstruction([q.norm_form() for q in triple])
