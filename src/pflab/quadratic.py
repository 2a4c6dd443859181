"""Quadratic Pfister forms <<b1, ..., b_{k-1}, alpha]] in characteristic 2.

A k-fold quadratic Pfister form is the bilinear form <<b1,...,b_{k-1}>>
tensored with the binary block [1, alpha]: on coordinates (u_e, w_e),
e ranging over {0,1}^(k-1) in ascending lex order, it evaluates to

    sum over e of  b^e * (u_e^2 + u_e*w_e + alpha * w_e^2).

Vectors are flat tuples of 2^k field elements ordered
(u_e1, w_e1, u_e2, w_e2, ...).  The basis vector at (e, u) takes the
diagonal value b^e, the one at (e, w) takes b^e * alpha.

When all slots (bilinear ones plus alpha) have negative value with
independent parities, the value of the form at any nonzero vector is
the unique minimum of 2*val(c) + val(diagonal) over its nonzero
coordinates, because the diagonal values land in pairwise distinct
parity classes and cross terms cannot reach the minimum.  That single
fact drives every certificate in this module: the parity image of the
pure part misses exactly the parity of alpha, so a family whose pure
parity images intersect in the zero class alone cannot share an
inseparable quadratic splitting field.

``verify_quadratic_family(n)`` is the one call that certifies the family
of ``build_quadratic_family(n)``; the CLI and the counterexample script
both print its evidence.  Each form takes its slot values once, on first
use, and reads its hypothesis verdict and every diagonal parity off them:
the valuation is a homomorphism, so parity(b^e) is the XOR of the slot
parities picked out by e, and the certificate builds no field product.
The diagonal values themselves are built only to evaluate the form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bilinear import _products, _twists
from .errors import (
    BadRank,
    ContextMismatch,
    EmptyInput,
    HypothesisFailed,
    IdentityFailed,
    ValuationOfZero,
    ZeroSlot,
    ZeroW,
)
from .field import FieldContext, FieldElement
from .valuation import (
    ParitySet,
    parity,
    parity_span,
    val,
    values_meet_hypothesis,
)

__all__ = [
    "QuadraticPfister",
    "InsepObstructionCertificate",
    "insep_obstruction",
    "necessary_insep_split",
    "right_slot_from_value",
    "build_quadratic_family",
    "verify_quadratic_family",
    "zero_parity_diagonal_count",
]


class QuadraticPfister:
    """A k-fold quadratic Pfister form: bilinear slots plus the block slot.

    The slot values, the diagonal values, their parities and the slot
    hypothesis verdict are computed on first use and cached.
    """

    __slots__ = (
        "ctx",
        "bilinear_slots",
        "quad_slot",
        "_values",
        "_diag",
        "_parities",
        "_hypothesis",
    )

    def __init__(
        self,
        ctx: FieldContext,
        bilinear_slots: Sequence[FieldElement],
        quad_slot: FieldElement,
    ):
        bilinear_slots = tuple(bilinear_slots)
        for s in bilinear_slots + (quad_slot,):
            if s.ctx != ctx:
                raise ContextMismatch("slot from a different field context")
            if s.is_zero:
                raise ZeroSlot("zero slot in a quadratic Pfister form")
        self.ctx = ctx
        self.bilinear_slots = bilinear_slots
        self.quad_slot = quad_slot
        self._values = None
        self._diag = None
        self._parities = None
        self._hypothesis = None

    @property
    def fold(self) -> int:
        return len(self.bilinear_slots) + 1

    @property
    def dim(self) -> int:
        return 2**self.fold

    def slot_list(self) -> tuple[FieldElement, ...]:
        return self.bilinear_slots + (self.quad_slot,)

    def block_coefficients(self) -> list[FieldElement]:
        """Products b^e in ascending lex e-order (one per binary block)."""
        return self.diagonal_values()[::2]

    def diagonal_values(self) -> list[FieldElement]:
        """Value of the form on each basis vector, in coordinate order.

        These are the slot products of (b1, ..., b_{k-1}, alpha) in
        ascending lex order: alpha comes last, so b^e * alpha follows b^e.
        """
        if self._diag is None:
            self._diag = _products(self.ctx, self.slot_list())
        return self._diag

    def _slot_values(self) -> tuple[tuple[int, ...], ...]:
        """val(s) for each slot of ``slot_list()``, taken once."""
        if self._values is None:
            self._values = tuple(val(s) for s in self.slot_list())
        return self._values

    def _slot_parities(self) -> tuple[tuple[int, ...], ...]:
        """parity(s) for each slot of ``slot_list()``, read off its value."""
        return tuple(tuple(x % 2 for x in v) for v in self._slot_values())

    def diagonal_parities(self) -> tuple[tuple[int, ...], ...]:
        """Parity of each diagonal value, in coordinate order; index 1 is
        parity(alpha).

        Built from the slot parities alone, in the order of
        ``diagonal_values()``: the last slot is the lowest bit of e, so
        doubling the list over the slots in reverse, each new half the
        old one XORed with the slot's parity, gives parity(b^e) at index e.

        The rule is exact for any nonzero slots, whether or not the slot
        hypothesis holds.  Over GF(2) the lex-leading monomial of a
        product of polynomials is the product of their leading monomials
        (the order is compatible with multiplication, so that product
        arises from one pair of terms only and cannot cancel).  Hence
        v(pq) = v(p) + v(q) on polynomials, fractions subtract, and
        v(xy) = v(x) + v(y) for all nonzero x and y.  Reduced mod 2,
        parity(b^e) is the sum of e_i * parity(b_i), which is what the
        doubling computes; so ``zero_parity_diagonal_count`` stays exact.
        """
        if self._parities is None:
            out = [(0,) * self.ctx.n]
            for p in reversed(self._slot_parities()):
                out = out + [tuple(a ^ b for a, b in zip(p, q)) for q in out]
            self._parities = tuple(out)
        return self._parities

    def _hypothesis_holds(self) -> bool:
        """Whether the slots have negative values with independent parities
        (``dominant_term_hypothesis``), decided once from the slot values."""
        if self._hypothesis is None:
            self._hypothesis = values_meet_hypothesis(self._slot_values())
        return self._hypothesis

    def _check_vector(self, v: Sequence[FieldElement]) -> None:
        if len(v) != self.dim:
            raise ValueError(f"vector length {len(v)} != form dimension {self.dim}")
        for c in v:
            if c.ctx != self.ctx:
                raise ContextMismatch("vector entry from a different field context")

    def _block_sum(
        self, out: FieldElement, pairs: Sequence[FieldElement], first: int
    ) -> FieldElement:
        """out plus b^e * (u^2 + u*w + alpha*w^2) over the blocks from index
        first on, each (u, w) read in turn from pairs."""
        coefs = self.block_coefficients()[first:]
        for coef, i in zip(coefs, range(0, len(pairs), 2)):
            u, w = pairs[i], pairs[i + 1]
            block = u.square() + u * w + self.quad_slot * w.square()
            if block:
                out = out + coef * block
        return out

    def evaluate(self, v: Sequence[FieldElement]) -> FieldElement:
        """phi(v) = sum of b^e * (u_e^2 + u_e w_e + alpha w_e^2)."""
        self._check_vector(v)
        return self._block_sum(self.ctx.zero, v, 0)

    def evaluate_pure(self, v: Sequence[FieldElement]) -> FieldElement:
        """The pure part <1> on u_0 plus the blocks with e != 0; the w_0
        coordinate must be absent (zero)."""
        self._check_vector(v)
        if v[1]:
            raise ValueError("pure part has no w coordinate on the first block")
        return self._block_sum(v[0].square(), v[2:], 1)

    def _require_hypothesis(self) -> None:
        if not self._hypothesis_holds():
            raise HypothesisFailed("slots lack negative values with independent parities")

    def dominant_value(self, v: Sequence[FieldElement]) -> tuple[int, ...]:
        """min over nonzero coordinates of 2*val(c) + val(diagonal value).

        Under the slot hypothesis the minimum is attained exactly once and
        equals val(phi(v)).
        """
        self._require_hypothesis()
        self._check_vector(v)
        best = None
        for c, d in zip(v, self.diagonal_values()):
            if not c:
                continue
            cand = tuple(2 * a + b for a, b in zip(val(c), val(d)))
            if best is None or cand < best:
                best = cand
        if best is None:
            raise ValuationOfZero("the zero vector has no dominant value")
        return best

    def parity_image(self) -> ParitySet:
        """GF(2)-span of the slot parities; the parity image of D(phi)."""
        self._require_hypothesis()
        return parity_span(self.ctx.n, self._slot_parities())

    def pure_parity_image(self) -> ParitySet:
        """Parities of the pure-part diagonal values (all basis vectors except
        the w coordinate of the first block); misses exactly parity(alpha)."""
        self._require_hypothesis()
        # index 1, (e = 0, w), is the diagonal value alpha itself
        parities = self.diagonal_parities()
        return ParitySet.of(self.ctx.n, parities[:1] + parities[2:])

    def __eq__(self, other):
        if not isinstance(other, QuadraticPfister):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.bilinear_slots == other.bilinear_slots
            and self.quad_slot == other.quad_slot
        )

    def __hash__(self):
        return hash((self.ctx, self.bilinear_slots, self.quad_slot))

    def __repr__(self):
        inner = ", ".join(str(s) for s in self.bilinear_slots)
        return f"<<{inner}, {self.quad_slot}]]"

    def to_json(self):
        return {
            "type": "quadratic_pfister",
            "bilinear_slots": [s.to_json() for s in self.bilinear_slots],
            "quad_slot": self.quad_slot.to_json(),
        }

    @classmethod
    def from_json(cls, ctx: FieldContext, data) -> QuadraticPfister:
        if (
            not isinstance(data, dict)
            or data.get("type") != "quadratic_pfister"
            or not isinstance(data.get("bilinear_slots"), list)
        ):
            raise ValueError("expected a quadratic_pfister object with a list of bilinear_slots")
        # a missing quad_slot reads as None, which FieldElement.from_json refuses
        slots = [FieldElement.from_json(ctx, s) for s in data["bilinear_slots"]]
        quad = FieldElement.from_json(ctx, data.get("quad_slot"))
        return cls(ctx, slots, quad)


def unit_vector(form: QuadraticPfister, index: int) -> tuple[FieldElement, ...]:
    """The basis vector with 1 at the given flat coordinate index."""
    return tuple(
        form.ctx.one if i == index else form.ctx.zero for i in range(form.dim)
    )


@dataclass(frozen=True)
class InsepObstructionCertificate:
    """Per-form pure parity images plus their intersection.

    The certificate is valid exactly when every hypothesis check passed and
    the intersection is the zero class alone; a field F(sqrt(gamma)) that
    split every form would force parity(gamma) into every pure parity image,
    which is then impossible for any gamma of nonzero parity, while the
    zero-parity case dies on two-dimensional subspaces (every 2-dimensional
    subspace represents values of nonzero parity).  That last step is
    certified separately, per form, by ``zero_parity_diagonal_count``.

    Every ``hypothesis_checks`` entry of a returned certificate is true:
    ``insep_obstruction`` raises HypothesisFailed on the first form that
    fails, before any certificate is built.  The entries stay for the
    report's fixed layout (``hypothesis_checks`` and the CLI's
    ``hypothesis_all_pass``).
    """

    n: int
    per_form_images: tuple[ParitySet, ...]
    intersection: ParitySet
    hypothesis_checks: tuple[bool, ...]

    @property
    def valid(self) -> bool:
        return all(self.hypothesis_checks) and self.intersection.is_zero_only

    def to_json(self):
        return {
            "per_form_images": [ps.to_json() for ps in self.per_form_images],
            "intersection": self.intersection.to_json(),
            "hypothesis_checks": list(self.hypothesis_checks),
            "valid": self.valid,
        }


def insep_obstruction(forms: Sequence[QuadraticPfister]) -> InsepObstructionCertificate:
    """Certificate that no single inseparable quadratic extension splits all
    forms; raises HypothesisFailed when a form's slots are inadmissible."""
    if not forms:
        raise EmptyInput("no forms given")
    n = forms[0].ctx.n
    for i, f in enumerate(forms):
        if f.ctx.n != n:
            raise ContextMismatch("forms over different field contexts")
        if not f._hypothesis_holds():
            raise HypothesisFailed(
                f"form {i} fails the slot hypothesis (negative values, independent parities)"
            )
    images = tuple(f.pure_parity_image() for f in forms)
    inter = images[0]
    for ps in images[1:]:
        inter = inter & ps
    return InsepObstructionCertificate(n, images, inter, (True,) * len(forms))


def zero_parity_diagonal_count(form: QuadraticPfister) -> int:
    """Number of non-unit diagonal values of zero parity; 0 certifies that
    every 2-dimensional subspace takes a value of nonzero parity.

    A 2-dimensional subspace meets the hyperplane u_0 = 0 in a nonzero
    vector.  Under the dominant-term hypothesis that vector's value has the
    parity of its dominant diagonal value, which is not the one at index 0.
    So the step holds exactly when every diagonal value after the first has
    nonzero parity.  The count itself needs no hypothesis, but reading 0 as
    the certificate does: ``insep_obstruction`` checks it.
    """
    zero = (0,) * form.ctx.n
    return sum(p == zero for p in form.diagonal_parities()[1:])


def necessary_insep_split(form: QuadraticPfister, gamma: FieldElement) -> bool:
    """Necessary test for F(sqrt(gamma)) splitting the form: False certifies
    no split; True is merely inconclusive."""
    if gamma.is_zero:
        raise ZeroSlot("gamma must be nonzero")
    return parity(gamma) in form.pure_parity_image()


def right_slot_from_value(
    form: QuadraticPfister,
    w: FieldElement,
    x: FieldElement,
    u: Sequence[FieldElement],
) -> FieldElement:
    """Given d = alpha*w^2 + w*x + x^2 + phi''(u) with w != 0, return d/w^2,
    which can serve as the last slot of a presentation of the form.

    u lists the coordinates of the blocks with e != 0 (2^k - 2 entries, in
    the usual order).  The identity d/w^2 = alpha + x/w + (x/w)^2 +
    phi''(u/w) is recomputed independently and checked exactly; a mismatch
    raises IdentityFailed.
    """
    if w.is_zero:
        raise ZeroW("w must be nonzero")
    u = tuple(u)
    if len(u) != form.dim - 2:
        raise ValueError(f"expected {form.dim - 2} pure-block coordinates")
    alpha = form.quad_slot
    zero = form.ctx.zero
    d = alpha * w.square() + w * x + x.square() + form._block_sum(zero, u, 1)
    result = d / w.square()
    t = x / w
    check = alpha + t + t.square() + form._block_sum(zero, [c / w for c in u], 1)
    if result != check:
        raise IdentityFailed("scaling identity failed; arithmetic is inconsistent")
    return result


def build_quadratic_family(n: int) -> list[QuadraticPfister]:
    """The 2^n - 1 quadratic n-fold Pfister forms over GF(2)(a1..an) that
    admit no common inseparable quadratic splitting field.

    For each nonzero bit vector d, the member drops the first variable
    picked out by d from the bilinear slots and uses a^d as the block slot.
    """
    if n < 2:
        raise BadRank("the family needs n >= 2")
    ctx = FieldContext(n)
    gens = ctx.gens
    forms = []
    for d, lead in _twists(ctx):
        bilinear = tuple(g for i, g in enumerate(gens) if i != lead)
        forms.append(QuadraticPfister(ctx, bilinear, ctx.monomial(d)))
    return forms


def verify_quadratic_family(n: int) -> dict:
    """Exact certificate that the forms of ``build_quadratic_family(n)``
    share no inseparable quadratic splitting field, as the evidence dict
    the CLI prints.

    ``insep_obstruction`` checks each form's hypothesis and intersects the
    pure parity images.  Each image must be the whole group but the
    form's missing class, parity(alpha), and every form must have no
    zero-parity diagonal value after the first (its 2-dimensional step).
    The verdict is VALID exactly when every entry of ``checks`` is true.
    """
    family = build_quadratic_family(n)
    cert = insep_obstruction(family)
    miss_ok = True
    per_form = []
    for f, image in zip(family, cert.per_form_images):
        missing = f.diagonal_parities()[1]
        miss_ok = miss_ok and image == ParitySet.of(n, [missing]).complement()
        per_form.append(
            {"form": repr(f), "pure_parity_image": image.to_json(), "missing_class": list(missing)}
        )
    contr_failures = sum(zero_parity_diagonal_count(f) for f in family)
    checks = {
        "hypothesis_all_pass": all(cert.hypothesis_checks),
        "pure_parity_images_miss_only_quad_slot": miss_ok,
        "intersection_zero_only": cert.intersection.is_zero_only,
        "two_dim_subspaces_hit_nonzero_parity": contr_failures == 0,
    }
    return {
        "checks": checks,
        "certificate": cert.to_json(),
        "per_form": per_form,
        "contr_trials_per_form": family[0].dim - 1,
        "contr_failures": contr_failures,
        "max_degree": None,
    }
