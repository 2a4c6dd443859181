"""Bilinear Pfister forms <<b1, ..., bk>> over GF(2)(a1, ..., an).

A k-fold form is determined by its slot list; its diagonal consists of
the 2^k products b^e.  The set of nonzero represented values, together
with 0, is the F^2-span of the diagonal, so every structural question
(anisotropy, slots, isometry, common factors) reduces to linear algebra
on SqSubspace objects:

  * anisotropic        <=> the full value space has dimension 2^k
                       <=> 1 lies outside the pure value space;
  * beta is a slot     <=> beta lies in the pure value space;
  * isometry           <=> equal pure value spaces (anisotropic, equal fold);
  * common slot        <=> nonzero intersection of the pure value spaces.

The anisotropy lemma.  Let b_1..b_k be nonzero and P the F^2-span of
the 2^k - 1 nontrivial products b^e, e != 0.  If 1 is not in P, the
2^k products are F^2-independent: the form is anisotropic and P has
dimension 2^k - 1.  Proof: each b_i^2 lies in F^2, so the products of
b_1..b_j span the field K_j = F^2(b_1..b_j) over F^2, K_0 = F^2.  If
no b_j lies in K_(j-1), each K_j has degree 2 over K_(j-1), so K_k has
dimension 2^k and its 2^k spanning products are independent.
Otherwise take the first j with b_j in K_(j-1).  b_j is nonzero, so
b_j * K_(j-1) = K_(j-1), which holds 1, and b_j * K_(j-1) is spanned
by the products b_j * b^e, e over the slots before j, each nontrivial:
1 lies in P.  Conversely, 1 is itself a product, so an anisotropic
form's P misses it.  ``BilinearPfister.is_anisotropic`` is the lemma:
one read of column 0 of the pure space's annihilator.  A form of more
than n slots is isotropic with no product built: F has dimension 2^n
over F^2, so its 2^k products are dependent.

So no rank is taken to prove that products span a space W that misses
1.  Rows that are the nontrivial product rows of k nonzero slots, each
annihilated by W, span a P inside W that misses 1, of dimension
2^k - 1; when W has that dimension too, P = W.  Each certificate reads
a span this way, from annihilator tests, 1 outside W and a slot count:
the grouping of ``common_factor`` (``_groups``), the completion
(``_complete``), the recombination of ``factor_out`` and the family's
two spanned members (``_member_spans_claim``).

``common_factor`` extracts an m-fold common factor from a family by
iterating: intersect the complement pure spaces, pick the first reduced
basis element, factor it out of every form.  Factoring out needs new
complement slots; candidates are drawn from the reduced basis of the
target pure space, then from pairwise sums of basis elements, and, when
the bounded list is exhausted, from the exactly computed subspace
{delta : delta * D(current) <= D(B')}, which is nonzero whenever any
completion exists; it is the null space of the polynomial matrix of
dot products of a^g * D(current) with the annihilator of D(B'), whose
null vectors, read off one elimination, are the deltas' reduced rows.
Every accepted completion is certified once, by one exact
pure-value-space equality in ``_complete``; ``check_log`` reports it,
and nothing it certified is spanned again.  By the anisotropy lemma the
equality is four facts, each checked once: 1 lies outside the pure
space W (``SqSubspace.contains_one``, on entry to ``_complete``); the
head's product rows lie in W (one dot product with each annihilator
row, on entry too); each accepted slot's products lie in it (the exact
test of ``_admissible``, which builds them); and the completion ends at
the form's fold.  So a completion tests none of its product rows
against the pure space twice and takes no rank.  Intersections and
membership tests go through annihilators too.

The operands stay small.  Every chosen slot (the intersection element
beta and each slot ``_next_slot`` accepts) is kept in lowest terms, one
gcd per slot, since it is a factor of every product built after it.
Value spaces, mixed spaces and the certification read the products'
sparse polynomial rows, built from the slots' rows
(``field._product_rows``), so no coordinate row of fractions is cleared
of its denominators.

The candidate search runs on sparse rows too.  Each candidate is a row
of an elimination (the target pure space's, a sum of two of them, or
the fallback space's), its element's row times the elimination's final
pivot.  Its products with the current slots' value space U lie in the
target when ``field._row_mul`` of its row and each of the slots'
product rows is annihilated; a nonzero scale per row changes no such
test.  The target is the pure space of an anisotropic form, so 1 lies
outside it, which ``_complete`` reads once, before any search, off
column 0 of the target's annihilator (``SqSubspace.contains_one``).
U is the field F^2(slots), so those products then put the candidate
outside U as well: a nonzero delta in U would put 1 = delta * delta^-1
among them.  So U is never spanned, and it doubles its dimension with
each slot added.  Before any exact product, the dot products are taken
at the fixed point of GF(2^16)^n of ``field._Point``; substitution is
a ring homomorphism, so a nonzero value rejects the candidate exactly.
The target's annihilator rows and U's product rows are evaluated there
once per search (``_Screen``), and each candidate's own row when it is
screened.  Only a candidate that reads 0 on all of them becomes a field
element, read off its row by ``field._row_element``, the conversion
``SqSubspace.elements()`` uses, in lowest terms.  The exact test, which
alone accepts, multiplies that slot's own row by each of the slots'
product rows, and those products are the accepted slot's product rows:
``_complete`` appends them and multiplies nothing again, so each is
built once.  So a pass of ``common_factor`` builds no product of field
elements, and no product row twice.

``common_factor`` searches and certifies once per distinct pure space.
``_complete`` reads nothing of a form but its pure space and fold, so
the forms are grouped by their pure spaces (``_groups``; isometric
forms share a group), and only the first form of each group, its
representative, gets mixed spaces, a place in the intersection and a
``_complete`` call.  A form joins a group when it has the
representative's fold and its nontrivial product rows, built once, are
annihilated by the representative's pure space W.  W misses 1 and has
dimension 2^k - 1, so by the anisotropy lemma the form is anisotropic
and its pure space is W; only a form that joins no group is spanned,
to become a representative.  Every form of a group gets its
representative's complement, certified against the pure space they
share; every slot is read off reduced rows in lowest terms, so that is
the witness of completing each form on its own.  Forms that share every
complement share their later mixed spaces too, so the groups hold in
every round.

Within a round of ``common_factor`` every representative is completed
from the same head slots (rho's slots and beta), so the round builds the
head's product rows once and passes them to every ``_complete``; the
next round's mixed spaces are spanned from the product rows
``_complete`` built, not rebuilt from the slots.  beta is read off the
intersection's first eliminated row, and from round 2 on its one row is
tested against every mixed space.  In round 1 the spaces are the pure
spaces, and ``_complete``'s entry test of the head rows is that test.

``verify_no_common_slot_family`` certifies the sharp family of
``build_no_common_slot_family`` with F-level work on two members only.
Member 0 and member 1, R = <<a2, ..., an, 1 + a1>>, each span their
claim: the hyperplane of 2-basis rows annihilated by one 0/1 row, a
bitmask with bit 0 set, so 1 lies outside it.  Their products' sparse
rows, each with at most two nonzero coordinates, are built from the
slots' rows (``field._product_rows``), and each row is tested once
against the mask's row; with n slots, the anisotropy lemma makes the
rows span the hyperplane.  Every other member is R's image under a
monomial map rho_d, a^t -> a^(M t), whose integer exponent matrix M
has determinant +-1: an automorphism of GF(2)(a1..an) that maps F^2
onto F^2, so pure spaces onto pure spaces.  Each such member gets two
exact checks, det M = +-1 and its slots equal rho_d of R's slots,
mapped term by term; its claim is then rho_d of R's, since
rho_d(1 + a1) = 1 + a^d pins M e_1 = d over the integers.  A member
that fails any check raises IdentityFailed.  The rest of the report is
read off the masks, whose leading bits are distinct, with no GF(2)
elimination.  ``bilinear-family --subset`` runs the same member proofs
(``_proved_family``) on the whole family and reads the chosen members'
common slot space off their masks in closed form (``_subset_evidence``):
no pure space is spanned and no intersection is taken.
``common_slot_space`` stays the general intersection, of any forms, and
the reference the tests hold the closed form to.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    BadRank,
    CompletionNotFound,
    ContextMismatch,
    EmptyInput,
    IdentityFailed,
    IsotropicInput,
    PreconditionFailed,
    ZeroSlot,
)
from .field import (
    _GF_ORDER,
    FieldContext,
    FieldElement,
    Poly,
    _point,
    _poly_row,
    _product_rows,
    _row_element,
    _row_mul,
    _shifted_dots,
)
from .linalg import SparseRow, SqSubspace, _sparse
# no caller here any more; the binding stays, since perfbench's tracer test
# checks that bilinear.left_kernel is restored after tracing
from .linalg import left_kernel  # noqa: F401

__all__ = [
    "BilinearPfister",
    "FactorWitness",
    "common_slot_space",
    "factor_out",
    "common_factor",
    "build_no_common_slot_family",
    "verify_no_common_slot_family",
]


def _products(ctx: FieldContext, slots: Sequence[FieldElement]) -> list[FieldElement]:
    """All 2^k slot products b^e, e over {0,1}^k in ascending lex order.

    The last slot is the lowest bit of e, so doubling the list over the
    slots in reverse keeps that order: 2^k - 1 products in all.
    """
    out = [ctx.one]
    for s in reversed(slots):
        out = out + [s * p for p in out]
    return out


class BilinearPfister:
    """An anisotropic-or-not k-fold bilinear Pfister form, by its slots."""

    __slots__ = ("ctx", "slots", "_full", "_pure")

    def __init__(self, ctx: FieldContext, slots: Iterable[FieldElement]):
        slots = tuple(slots)
        for s in slots:
            if not isinstance(s, FieldElement):
                raise TypeError(f"slot {s!r} is not a field element")
            if s.ctx is not ctx and s.ctx != ctx:
                raise ContextMismatch("slot from a different field context")
            if s.is_zero:
                raise ZeroSlot("zero slot in a Pfister form")
        if not slots:
            raise EmptyInput("a Pfister form needs at least one slot")
        self.ctx = ctx
        self.slots = slots
        self._full = None
        self._pure = None

    @property
    def fold(self) -> int:
        return len(self.slots)

    def full_value_space(self) -> SqSubspace:
        """F^2-span of all 2^k slot products; equals D(B) plus 0.  Spanned
        from the products' rows, built from the slots' rows."""
        if self._full is None:
            self._full = SqSubspace.from_poly_rows(self.ctx, _product_rows(self.ctx, self.slots))
        return self._full

    def pure_value_space(self) -> SqSubspace:
        """F^2-span of the 2^k - 1 nontrivial slot products; D(B') plus 0.
        Spanned from the products' rows, built from the slots' rows."""
        if self._pure is None:
            rows = _product_rows(self.ctx, self.slots)[1:]
            self._pure = SqSubspace.from_poly_rows(self.ctx, rows)
        return self._pure

    def is_anisotropic(self) -> bool:
        """Whether 1 lies outside the pure value space: the anisotropy
        lemma of the module docstring.  A form of more slots than variables
        is refused first, before its 2^fold product rows are built."""
        return self.fold <= self.ctx.n and not self.pure_value_space().contains_one()

    def is_slot(self, beta: FieldElement) -> bool:
        """Whether <<beta>> is a 1-fold factor, i.e. beta in D(B')."""
        if beta.is_zero:
            raise ZeroSlot("zero cannot be a slot")
        return beta in self.pure_value_space()

    def is_isometric(self, other: BilinearPfister) -> bool:
        if self.ctx != other.ctx:
            raise ContextMismatch("forms over different field contexts")
        if self.fold != other.fold:
            raise ValueError("isometry test needs equal fold numbers")
        if not (self.is_anisotropic() and other.is_anisotropic()):
            raise IsotropicInput("isometry test requires anisotropic forms")
        return self.pure_value_space() == other.pure_value_space()

    def __eq__(self, other):
        # structural (same slot list), not isometry
        if not isinstance(other, BilinearPfister):
            return NotImplemented
        return self.ctx == other.ctx and self.slots == other.slots

    def __hash__(self):
        return hash((self.ctx, self.slots))

    def __repr__(self):
        return "<<" + ", ".join(str(s) for s in self.slots) + ">>_b"

    def to_json(self):
        return {"type": "bilinear_pfister", "slots": [s.to_json() for s in self.slots]}

    @classmethod
    def from_json(cls, ctx: FieldContext, data) -> BilinearPfister:
        if (
            not isinstance(data, dict)
            or data.get("type") != "bilinear_pfister"
            or not isinstance(data.get("slots"), list)
        ):
            raise ValueError("expected a bilinear_pfister object with a list of slots")
        slots = [FieldElement.from_json(ctx, s) for s in data["slots"]]
        return cls(ctx, slots)


def common_slot_space(forms: Sequence[BilinearPfister]) -> SqSubspace:
    """Intersection of all pure value spaces of a nonempty family of
    anisotropic forms over one field context; nonzero elements are common
    slots.  The general intersection: one k-way ``intersection`` of the
    pure spaces, for any forms.  The family is checked as
    ``common_factor`` checks it, by ``_groups``: the first form of
    another context or isotropic raises, and forms that share a pure
    space are spanned once.  For members of the no-common-slot family,
    ``bilinear-family --subset`` reads the same space off the masks in
    closed form (``_subset_evidence``); the tests hold that to this."""
    reps, _ = _groups(forms)
    first, *rest = [forms[r].pure_value_space() for r in reps]
    return first.intersection(*rest)


# ---------------------------------------------------------------------------
# factor extraction
# ---------------------------------------------------------------------------


def _mixed_pure_space(
    ctx: FieldContext, complement: Sequence[FieldElement], rows: Sequence[SparseRow]
) -> SqSubspace:
    """Span of r * p with r any rho product and p a nontrivial complement
    product; this is D(rho tensor pi') plus 0.

    rows are the product rows (``field._product_rows``) of rho's slots
    followed by the complement's.  The space is spanned from those whose
    complement bits, the low ones, are not all 0, with no product built
    as a field element.  In ``common_factor`` every one of those slots
    is in lowest terms.
    """
    low = 2 ** len(complement) - 1
    return SqSubspace.from_poly_rows(ctx, [row for e, row in enumerate(rows) if e & low])


def _stable_subspace(u_rows: Sequence[SparseRow], W: SqSubspace) -> SqSubspace:
    """The F^2-subspace {delta in F : delta * U <= W}, U spanned by the
    elements of the sparse rows u_rows, each up to a nonzero scale.

    For fixed u the row of delta*u is F-linear in the row x of delta:
    it is sum_g x_g times the row of a^g * u, over the basis monomials
    a^g.  delta*u lies in W exactly when that row has dot product 0 with
    each of W's annihilator rows, so the space is a null space: one
    matrix row per pair of a row u of u_rows and an annihilator row a,
    whose entry at column g is the dot product of a^g * u with a, and
    ``SqSubspace.null_space`` of those rows.  ``field._shifted_dots``
    builds each matrix row from u's row and a alone, with no row of
    a^g * u and no dot product.  The row carries u's scale whatever g
    is, so each matrix row carries one nonzero scale, which leaves the
    null space as it is.  The null vectors read off its one elimination
    are the deltas' rows already reduced, each times the common scale
    last, so no second elimination builds the canonical basis.
    """
    ctx = W.ctx
    anns = [_sparse(a) for a in W.annihilator]
    return SqSubspace.null_space(ctx, [_shifted_dots(ctx, y, a) for y in u_rows for a in anns])


class _Screen:
    """The product test of ``_admissible`` at the fixed point of
    ``field._Point``, set up once per ``_next_slot`` call.

    The dot product of W's annihilator row a with the row of delta*u,
    x and y the rows of delta and u, is sum x_c * y_e * a^(c & e) *
    a_(c ^ e) over the columns c of x and e of y (``field._row_mul``).
    Substitution is a ring homomorphism, so its value is
    sum phi(x_c) * phi(y_e) * phi(a^(c & e)) * phi(a_(c ^ e)), and a
    nonzero value proves the exact dot product nonzero: delta * u lies
    outside W, and delta is no slot.  The values of U's product rows, of
    W's annihilator rows and of the column monomials are taken here,
    once, as logs in GF(2^16); ``rejects`` takes the values of the
    candidate's own row."""

    __slots__ = ("point", "_monomials", "_pairs")

    def __init__(self, u_rows: Sequence[SparseRow], W: SqSubspace):
        point = self.point = _point(W.ctx.n)
        log, value = point.log, point.value
        self._monomials = [point.monomial_log(t) for t in W.ctx.patterns]
        anns = [[log[v] if (v := value(p)) else None for p in a] for a in W.annihilator]
        # newest row first: the product with 1, the first row, is delta
        # itself, which lies in W
        us = [[(e, log[v]) for e, p in r.items() if (v := value(p))] for r in reversed(u_rows)]
        self._pairs = [(u, a) for u in us for a in anns]

    def rejects(self, row: SparseRow) -> bool:
        """Whether some dot product is nonzero at the point, for the
        candidate of the sparse row."""
        point, monomials = self.point, self._monomials
        exp, log, value = point.exp, point.log, point.value
        xs = [(c, log[v]) for c, p in row.items() if (v := value(p))]
        for ys, ann in self._pairs:
            v = 0
            for c, lx in xs:
                for e, ly in ys:
                    la = ann[c ^ e]
                    if la is not None:
                        v ^= exp[(lx + ly + monomials[c & e] + la) % _GF_ORDER]
            if v:
                return True
        return False


def _admissible(
    row: SparseRow,
    last: Poly,
    screen: _Screen,
    u_rows: Sequence[SparseRow],
    W: SqSubspace,
) -> tuple[FieldElement, list[SparseRow]] | None:
    """The candidate delta of the sparse row, in lowest terms, and the
    rows of its products with u_rows, when every new pure product
    delta*u, u of a row in u_rows, stays inside the target pure space W.
    None when it does not.

    The precondition is that 1 is not in W.  u_rows span the field
    U = F^2(slots), so a nonzero delta in U has delta^-1 in U and puts
    1 = delta * delta^-1 in delta*U, outside W: an accepted delta lies
    outside U, and the longer slot list stays anisotropic.

    ``screen`` rejects delta first when some product's dot product with
    an annihilator row of W is nonzero at the fixed point, which it
    reads off the row's own entries there; that proves it nonzero over
    F.  Only a candidate that reads 0 on every one goes on to the exact
    test, and only the exact test accepts.  Such a candidate becomes its
    slot first: read off the row, its element's 2-basis row times the
    scale last, by ``field._row_element`` as
    (sum e_j^2 * a^(d_j)) / last^2, the conversion of
    ``SqSubspace.elements()``, in lowest terms, one gcd per chosen slot,
    since the entries are elimination minors and a slot is a factor of
    every product built after it.  Lowest terms over GF(2) are unique,
    so the slot is the one the elements would give.  The exact test
    multiplies the slot's own row (``field._poly_row``) by each row of
    u_rows, newest first, with ``field._row_mul``, whose result is the
    product's row times both rows' nonzero scales: an annihilator dot
    product on rows, with no product built as a field element, that
    decides as it would on the elements themselves.  Those product rows
    are the ones ``_complete`` appends, so each is built once, here, and
    they are returned in the order of u_rows.  This exact test is the
    certification's fact that the accepted slot's products lie in W:
    ``_complete`` does not test them again.  An empty row is delta = 0,
    never a slot."""
    if not row or screen.rejects(row):
        return None
    ctx = W.ctx
    slot = _row_element(ctx, row, last).lowest_terms()
    new = _poly_row(slot)
    products = []
    for r in reversed(u_rows):
        product = _row_mul(ctx, new, r)
        if not W._annihilates(product):
            return None
        products.append(product)
    products.reverse()
    return slot, products


def _next_slot(
    W: SqSubspace, u_rows: Sequence[SparseRow]
) -> tuple[FieldElement, list[SparseRow]] | None:
    """The first admissible slot, a basis element of W, a sum of two, or
    a basis element of the exact candidate subspace, with the rows of its
    products with u_rows, in their order, as ``_admissible`` built them.
    u_rows are the sparse rows of the slot products of the current slot
    list, or of any other spanning set of their span U, the field
    F^2(slots), each up to a nonzero scale; every test depends only on
    the span.

    The precondition is that 1 is not in W, as for the pure space of an
    anisotropic form, which ``_complete`` checks before its first call.
    Then delta * U inside W puts delta outside U (``_admissible``), so U
    is never spanned.

    The candidates are tried as rows: W's eliminated rows, each last
    times a reduced row, then sums of two of them, which share that
    scale, then the eliminated rows of the fallback space.  Each
    candidate's row is screened at the fixed point (``_Screen``), and
    only a candidate that passes the screen becomes a field element, the
    lowest-terms slot whose own row ``_admissible`` multiplies in its
    exact test; the accepted slot's products are built once, there.
    """
    screen = _Screen(u_rows, W)
    for row, last in _candidate_rows(u_rows, W):
        found = _admissible(row, last, screen, u_rows, W)
        if found is not None:
            return found
    return None


def _candidate_rows(u_rows: Sequence[SparseRow], W: SqSubspace):
    """The candidates of ``_next_slot`` in order, as (sparse row, scale):
    W's eliminated rows, the sums of two of them, then the eliminated rows
    of the fallback space, which is computed only when it is reached."""
    rows = W._eliminated
    for polys in rows:
        yield _sparse(polys), W._last
    for a, b in itertools.combinations(rows, 2):
        yield _sparse([x + y for x, y in zip(a, b)]), W._last
    # bounded search exhausted: fall back to the exact candidate subspace,
    # which is nonzero iff any completion step exists at all
    stable = _stable_subspace(u_rows, W)
    for polys in stable._eliminated:
        yield _sparse(polys), stable._last


def _complete(
    slots: tuple[FieldElement, ...],
    form: BilinearPfister,
    rows: list[SparseRow],
) -> tuple[tuple[FieldElement, ...], list[SparseRow]]:
    """Extend slots, whose product rows are rows, to a slot list of form:
    the one certification of a factorization.  The final list is proved
    by one exact equality, span(nontrivial products) == D(form') plus 0,
    with 1 outside it, so its full value space is form's too.  Any
    failure raises CompletionNotFound.  Returns the full slot list and
    its product rows.

    W is the form's pure space.  By the anisotropy lemma of the module
    docstring, the equality is four facts, each checked once:

      1. 1 is not in W: 1's row is e_0, so this reads column 0 of W's
         annihilator (``SqSubspace.contains_one``), first, since
         ``_next_slot`` relies on it too.  By the lemma the form is then
         anisotropic, and W has dimension 2^fold - 1;
      2. the head's nontrivial products are nonzero and lie in W: each
         given row is not empty and has dot product 0 with W's
         annihilator rows.  They are tested on entry, before any
         search, so a zero head slot, whose product rows are empty, or
         a head product outside W (the row of a1^2 = a1^2 * 1 of an
         isotropic head (a1, a1), say) stops the completion at once;
      3. each accepted slot's products lie in W: the exact test of
         ``_admissible``, which built them, and they are not tested
         again here.  Each accepted slot is nonzero;
      4. the list ends at form.fold slots: a head longer than that is
         refused on entry, and the search stops there.

    With 1 to 4, the nontrivial products of fold nonzero slots span a
    subspace of W that misses 1, so by the lemma it has dimension
    2^fold - 1, W's: the two are equal, and no rank is taken.

    No product is built as a field element.  The products' sparse rows
    start as the given rows, ``field._product_rows`` of the given slots
    (or any rows spanning the same lines in that order), and grow by one
    slot at a time: the new slot is the last, the lowest bit of e, so
    each old row r is followed by ``_row_mul`` of the slot's row and r,
    which is exact, so the rows are those ``_product_rows`` builds.
    Those products are built once, by the accepted slot's exact test in
    ``_admissible``, and ``_next_slot`` returns them with the slot, so
    no product row is multiplied twice.  ``_next_slot`` tests its
    candidates against the rows; the slots that ``_next_slot`` adds are
    in lowest terms, so the rows stay small.  The given slots are the
    same for every form of a ``common_factor`` round, so the round
    builds their rows once.
    """
    W = form.pure_value_space()
    if W.contains_one():
        raise CompletionNotFound("the form's pure value space contains 1")
    if len(slots) > form.fold:
        raise CompletionNotFound(f"a head of {len(slots)} slots is longer than the form's fold")
    if not all(r and W._annihilates(r) for r in rows[1:]):
        raise CompletionNotFound("a head product failed the exact certification")
    while len(slots) < form.fold:
        found = _next_slot(W, rows)
        if found is None:
            raise CompletionNotFound(
                f"no admissible slot extends {len(slots)} of {form.fold} slots"
            )
        cand, products = found
        slots = slots + (cand,)
        rows = [x for r, p in zip(rows, products) for x in (r, p)]
    return slots, rows


def factor_out(
    beta: FieldElement,
    rho: BilinearPfister | None,
    form: BilinearPfister,
    known_complement: Sequence[FieldElement],
) -> tuple[FieldElement, ...]:
    """Given form = rho (x) <<known_complement>> and beta in D(rho (x) pi'),
    return new complement slots delta with

        <<slots(rho), beta, *delta>>  isometric to  form,

    certified by the one exact pure-value-space equality of _complete,
    which extends the product rows of the head rho + beta, built here.
    Both preconditions are checked here: beta by one span of the mixed
    space, the recombination by the anisotropy lemma of the module
    docstring, as _complete certifies: the form is anisotropic, so its
    pure space W misses 1 and has dimension 2^fold - 1; rho and the
    known complement hold fold nonzero slots; and each of their
    nontrivial product rows is annihilated by W.  The slot count and the
    zero slots are read first, so a list that cannot recombine raises
    before its 2^k product rows are built.
    """
    ctx = form.ctx
    rho_slots: tuple[FieldElement, ...] = () if rho is None else rho.slots
    if rho is not None and rho.ctx != ctx:
        raise ContextMismatch("rho over a different field context")
    recombine = "rho and known_complement do not recombine to the form"
    if len(rho_slots) + len(known_complement) != form.fold or any(
        s.is_zero for s in known_complement
    ):
        raise PreconditionFailed(recombine)
    rows = _product_rows(ctx, tuple(rho_slots) + tuple(known_complement))
    mixed = _mixed_pure_space(ctx, known_complement, rows)
    if beta.is_zero or beta not in mixed:
        raise PreconditionFailed("beta is not a nonzero value of rho tensor pi'")
    if not form.is_anisotropic():
        raise IsotropicInput("cannot factor an isotropic form")
    # the stated factorization must actually hold
    if not all(map(form.pure_value_space()._annihilates, rows[1:])):
        raise PreconditionFailed(recombine)
    head = rho_slots + (beta,)
    return _complete(head, form, _product_rows(ctx, head))[0][len(head) :]


@dataclass(frozen=True)
class FactorWitness:
    """A verified m-fold common factor of a family of n-fold forms.

    For every input form, rho's slots followed by the matching complement
    rebuild a form with exactly the same pure value space.  The search
    and the certification run once per distinct pure space: forms with
    equal pure spaces share one complement, that of the first of them,
    and a form's pure space is proved equal to that first form's by the
    anisotropy lemma of the module docstring, from the annihilator dot
    products of its own product rows (``_groups``).  Entry i of
    check_log, one per input form, reports the last round's certification
    in _complete of form i's pure space (``pure_value_space_equal``, true
    in every witness, since a failed one raises) and the pure space's
    ``dim``, 2^n - 1.

    ``pure_value_space_equal`` rests on the four facts of ``_complete``,
    each checked once.  The pure space misses 1, so it has dimension
    2^n - 1.  Each nontrivial product of the rebuilt form has dot
    product 0 with the pure space's annihilator rows: the head's
    products on entry, each accepted slot's in ``_admissible``.  And the
    rebuilt form has n nonzero slots.  So by the lemma its products span
    a subspace of dimension 2^n - 1 of the pure space, which is all of
    it; nothing is sampled and no rank is taken.
    """

    rho: BilinearPfister
    complements: tuple[tuple[FieldElement, ...], ...]
    check_log: tuple[dict, ...]

    def to_json(self):
        return {
            "rho": self.rho.to_json(),
            "complements": [[s.to_json() for s in comp] for comp in self.complements],
            "check_log": list(self.check_log),
        }


def _groups(forms: Sequence[BilinearPfister]) -> tuple[list[int], list[int]]:
    """Group a nonempty family of forms over one field context by their
    pure value spaces, proving each form anisotropic on the way.  Returns
    (reps, group): reps[g] is the index of group g's first form, in input
    order, its representative, and form i lies in group group[i].

    Each form's nontrivial product rows are built once
    (``field._product_rows``).  Form i joins the first representative of
    its fold whose pure space W annihilates every one of them.  W misses
    1 and has dimension 2^k - 1, so by the anisotropy lemma of the module
    docstring form i is anisotropic and pure(form i) = W, and its own pure
    space is never spanned.  A form that joins no group is spanned from
    the same rows, checked by ``is_anisotropic`` and made a
    representative.  A form of more slots than variables is isotropic
    (the module docstring) and raises before its rows are built.  The
    forms are taken in input order, each one's context before its
    anisotropy, so the first bad form raises: ContextMismatch or
    IsotropicInput.
    """
    if not forms:
        raise EmptyInput("no forms given")
    ctx = forms[0].ctx
    reps: list[int] = []
    group: list[int] = []
    for i, f in enumerate(forms):
        if f.ctx != ctx:
            raise ContextMismatch("forms over different field contexts")
        if f.fold > ctx.n:
            raise IsotropicInput(f"form {f!r} is isotropic")
        rows = _product_rows(ctx, f.slots)[1:]
        joins = (
            g
            for g, r in enumerate(reps)
            if forms[r].fold == f.fold and all(map(forms[r].pure_value_space()._annihilates, rows))
        )
        g = next(joins, None)
        if g is None:
            if f._pure is None:
                f._pure = SqSubspace.from_poly_rows(ctx, rows)
            if not f.is_anisotropic():
                raise IsotropicInput(f"form {f!r} is isotropic")
            g = len(reps)
            reps.append(i)
        group.append(g)
    return reps, group


def common_factor(m: int, forms: Sequence[BilinearPfister]) -> FactorWitness | None:
    """Extract a verified m-fold common factor, or None when the slot
    intersection dies before m slots are collected.

    The per-form work runs once per distinct pure space.  The forms are
    grouped by their pure spaces (``_groups``), and the first form of each
    group, in input order, represents it: every other form joins the
    first representative of its fold whose pure space annihilates its
    product rows, which by the anisotropy lemma proves it anisotropic
    with that pure space, and only a representative is spanned.  The
    errors come in this order: ContextMismatch or IsotropicInput at the
    first form, in input order, of another context or isotropic, then
    ValueError for unequal folds, then for a bad m.  Each round
    intersects the representatives' mixed pure spaces, takes beta, the
    first element of the intersection's reduced basis, checks it against
    every mixed space through its one row, and completes every
    representative from the head rho + beta.  In round 1 the spaces are
    the representatives' pure spaces, and ``_complete``'s entry test of
    the head rows is that check, so beta is tested once, there.  The
    head is the same for every form, so its product rows are built once
    per round and shared by every ``_complete``; no head space is
    spanned.  Each completion returns
    its full product rows, the rows of rho + beta + complement, and the
    next round's mixed spaces are spanned from them.  Every form gets
    its representative's complement, certified against the pure space
    the two share, and check_log has one entry per input form."""
    reps, group = _groups(forms)
    ctx = forms[0].ctx
    n = forms[0].fold
    if any(f.fold != n for f in forms):
        raise ValueError("common_factor needs forms of equal fold")
    if not 1 <= m <= n - 1:
        raise ValueError(f"factor fold m={m} must satisfy 1 <= m <= {n - 1}")
    pures = [forms[r].pure_value_space() for r in reps]

    rho_slots: tuple[FieldElement, ...] = ()
    comps: list = []
    # the product rows of rho_slots + comps[g], as the last round's
    # _complete built them
    comp_rows: list = []
    for _ in range(m):
        # with rho empty, the mixed space is the pure value space
        spaces = (
            [_mixed_pure_space(ctx, c, r) for c, r in zip(comps, comp_rows)]
            if rho_slots
            else pures
        )
        inter = spaces[0].intersection(*spaces[1:])
        if inter.is_zero:
            return None
        # the first reduced basis element, read off its eliminated row as
        # elements() would, in lowest terms: beta is a factor of every
        # product after this
        beta = _row_element(ctx, _sparse(inter._eliminated[0]), inter._last).lowest_terms()
        # in round 1 the spaces are the pure spaces that _complete tests
        # the head's row of beta against on entry, so only a mixed space
        # is tested here
        if rho_slots:
            beta_row = _poly_row(beta)
            if not all(space._annihilates(beta_row) for space in spaces):
                raise PreconditionFailed("beta left a mixed pure space")
        # rho + comp presents the form: its own slots in round 1, certified
        # by the previous round's _complete after that
        head = rho_slots + (beta,)
        # the head's product rows are the same for every form
        head_rows = _product_rows(ctx, head)
        done = [_complete(head, forms[r], head_rows) for r in reps]
        comps = [slots[len(head) :] for slots, _ in done]
        comp_rows = [rows for _, rows in done]
        rho_slots = head

    # _complete raised unless every representative's last certification
    # held, and each form's pure space equals its representative's
    log = [{"form": i, "pure_value_space_equal": True, "dim": pures[g].dim}
           for i, g in enumerate(group)]
    complements = tuple(comps[g] for g in group)
    return FactorWitness(BilinearPfister(ctx, rho_slots), complements, tuple(log))


def build_no_common_slot_family(n: int) -> list[BilinearPfister]:
    """The 2^n anisotropic n-fold forms over GF(2)(a1..an) with no common slot.

    Index 0 is <<a1, ..., an>>; for each nonzero bit vector d the member
    drops the first variable picked out by d and appends the slot 1 + a^d.
    Any 2^n - 1 of them still share a slot, so the family is sharp.
    """
    if n < 2:
        raise BadRank("the family needs n >= 2")
    ctx = FieldContext(n)
    gens = ctx.gens
    forms = [BilinearPfister(ctx, gens)]
    for d, lead in _twists(ctx):
        twist = ctx.one + ctx.monomial(d)
        slots = tuple(g for i, g in enumerate(gens) if i != lead) + (twist,)
        forms.append(BilinearPfister(ctx, slots))
    return forms


def _twists(ctx: FieldContext) -> list[tuple[tuple[int, ...], int]]:
    """(d, lead) for every nonzero pattern d in column order, lead the
    index of d's first variable: column k's pattern is k's bits, first
    variable least significant, so lead is k's lowest set bit.  Both
    family builders drop gens[lead]."""
    return [(ctx.patterns[k], (k & -k).bit_length() - 1) for k in range(1, 2**ctx.n)]


def _gf2_family_evidence(anns: list[int]) -> dict:
    """The family evidence read off the annihilator masks alone, once
    every member's pure value space is known to be the hyperplane of
    2^n-bit rows annihilated by anns[k].

    Masks with pairwise distinct leading bits are independent over GF(2),
    and so is every subset of them: in a sum of some of them, the highest
    of their leading bits is set in one term only, so the sum is not 0.
    That rule, checked once here, gives every rank; a failure raises
    IdentityFailed.  A 0/1 matrix has the same rank over F as over GF(2),
    so s members have a common slot space of dimension 2^n - s.
    """
    members = columns = len(anns)  # 2^n of each
    leads = {ann.bit_length() for ann in anns}
    if 0 in leads or len(leads) != members:
        raise IdentityFailed("the members' annihilators do not have distinct leading bits")
    common_dim = columns - members
    dims = [columns - (members - 1)] * members
    return {
        "checks": {
            # 1 is e_0: bit 0 of a mask is its dot product with 1
            "all_anisotropic": all(ann & 1 for ann in anns),
            "claimed_pure_bases": True,
            # member 0 meets member k where e_0 and e_0 + e_k both vanish,
            # that is, where coordinates 0 and k do
            "pairwise_intersections": anns[0] == 1
            and all(anns[0] ^ ann == 1 << k for k, ann in enumerate(anns) if k),
            "no_common_slot": common_dim == 0,
            "sharp_at_all_but_one": all(dim > 0 for dim in dims),
        },
        "family_size": members,
        "common_slot_space_dim": common_dim,
        "leave_one_out_dims": dims,
    }


def _member_spans_claim(form: BilinearPfister, ann: int) -> bool:
    """Whether the form's nontrivial products span the hyperplane
    annihilated by ann, a 0/1 row as a bitmask (bit j for column j), on
    the products' sparse rows, built from the slots' rows by
    ``field._product_rows`` with no product built as a field element.
    Three facts decide it, by the anisotropy lemma of the module
    docstring: the form has n slots, nonzero as every slot is; bit 0 of
    ann is set, so 1, the row e_0, lies outside the hyperplane, of
    dimension 2^n - 1; and each row has dot product 0 with ann's row,
    which puts it in the hyperplane.  The first two are read before any
    row is built.  A sparse row's dot product with a 0/1 row is the sum,
    over GF(2)[a], of its entries in the columns of ann's set bits: the
    XOR of their term sets, with no Poly product."""
    ctx = form.ctx
    if form.fold != ctx.n or not ann & 1:
        return False
    for row in _product_rows(ctx, form.slots)[1:]:
        acc: set = set()
        for j, x in row.items():
            if ann >> j & 1:
                acc ^= x.terms
        if acc:
            return False
    return True


def _monomial_map(ctx: FieldContext, d: tuple[int, ...], lead: int) -> dict[int, tuple[int, ...]]:
    """The exponent matrix M of rho_d = (a_l -> a_l * a^(d - e_l)) o
    (a1 <-> a_l), l = lead, by its moved columns: rho_d(a^t) = a^(M t).
    Column 1 is d and column l is e_1; when l is 1, only column 1 moves.

    A moved-column map {j: column} stands for the n x n matrix whose
    column j is the given one for every key j and the unit vector e_j for
    every other j.  ``_int_det`` and ``_transported`` read M off the
    moved columns alone."""
    if lead == 0:
        return {0: d}
    return {0: d, lead: ctx.patterns[1]}


def _int_det(moved: dict[int, Sequence[int]]) -> int:
    """The exact determinant of the integer matrix given by its moved
    columns (see ``_monomial_map``).  Expanding along a column equal to
    e_j drops row j and column j with sign +1, so the determinant is
    that of the minor on the moved indices, taken by Bareiss's
    fraction-free elimination, whose every division is exact.  The
    minor is read by columns; its transpose has the same determinant."""
    index = sorted(moved)
    m = [[moved[j][i] for i in index] for j in index]
    size = len(m)
    sign, prev = 1, 1
    for k in range(size):
        p = next((i for i in range(k, size) if m[i][k]), None)
        if p is None:
            return 0
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        pivot, top = m[k][k], m[k]
        for row in m[k + 1 :]:
            a = row[k]
            if a or pivot != prev:
                for j in range(k + 1, size):
                    row[j] = (pivot * row[j] - a * top[j]) // prev
        prev = pivot
    return sign * prev


def _transported(moved: dict[int, Sequence[int]], slots: Sequence[FieldElement]) -> set:
    """The stored (num.terms, den.terms) pairs of the slots' images under
    the monomial map a^t -> a^(M t), M given by its moved columns (see
    ``_monomial_map``), mapped term by term on num and den.  Column j of
    M is e_j + (col_j - e_j), so M t = t + sum_j t_j * (col_j - e_j) over
    the moved j: a term with no exponent in a moved column is its own
    image, and a term set with none such is kept as the same object.
    The entries of ``_monomial_map``'s columns are 0 or 1, so every image
    is a polynomial."""
    shifts = [
        (j, [(i, c - (i == j)) for i, c in enumerate(col) if c != (i == j)])
        for j, col in sorted(moved.items())
    ]

    def fixed(terms):
        for t in terms:
            for j, _ in shifts:
                if t[j]:
                    return False
        return True

    def image(terms):
        if fixed(terms):
            return terms
        out = set()
        for t in terms:
            u = list(t)
            for j, shift in shifts:
                e = t[j]
                if e:
                    for i, c in shift:
                        u[i] += e * c
            out.add(tuple(u))
        return frozenset(out)

    return {(image(s.num.terms), image(s.den.terms)) for s in slots}


def verify_no_common_slot_family(n: int) -> dict:
    """Certify build_no_common_slot_family(n); returns the evidence dict.

    The checks: every member is anisotropic; member k (k >= 1, bit vector
    d) has the pure value space spanned by 1 + a^d and the nontrivial
    monomials other than a^d; it meets member 0 in the span of those
    monomials; the whole family has no common slot; every subfamily of
    2^n - 1 members has one.

    Member k's claim is the hyperplane H_k of 2-basis rows annihilated by
    the mask anns[k] = 1 | 1 << k, that is e_0 + e_k (e_0 for member 0).
    The claimed generators are a basis of H_k.  The monomials a^e with
    e != 0, d are the unit rows e_j with j != 0, k, and 1 + a^d is
    e_0 + e_k; each has even parity against e_0 + e_k, so lies in H_k.
    They are independent, since only 1 + a^d has a nonzero coordinate 0
    and the unit rows are distinct: 2^n - 1 independent rows in a
    hyperplane of dimension 2^n - 1.  Member 0's generators are the unit
    rows e_j, j >= 1, which span x_0 = 0.  So no claim is built, as
    masks or as field elements.

    Two members get F-level work, member 0 and member 1, which is
    R = <<a2, ..., an, 1 + a1>> (``_member_spans_claim``).  Each has n
    nonzero slots, 1 lies outside its claim since bit 0 of its mask is
    set, and every nontrivial product has dot product 0 with the mask's
    row, each checked once.  By the anisotropy lemma of the module
    docstring the products then span a subspace of the claim of
    dimension 2^n - 1, the claim's own: they span the claim, which is the
    member's pure value space, with no rank taken.  A product has at
    most two nonzero 2-basis coordinates, and its row is kept sparse
    (column -> polynomial) through the dot products.  The rows are built
    from the member's slots' rows (``field._product_rows``), so no
    product is built as a field element, and no point of GF(2^16)^n is
    used.

    Every member k >= 2, with (d, lead l) from ``_twists``, is R
    transported by the monomial map rho_d = (a_l -> a_l * a^(d - e_l)) o
    (a1 <-> a_l), whose integer exponent matrix M sends a^t to a^(M t).
    M is the identity outside columns 1 and l, so ``_monomial_map`` gives
    it by those moved columns alone, and both checks read only them.  Two
    exact checks per member:

      * det M = +-1 (``_int_det``, the minor on the moved columns), so
        rho_d is an automorphism of F = GF(2)(a1..an) and maps F^2 onto
        F^2;
      * rho_d of R's slots, mapped term by term on num and den, are
        member k's slots, as a set of n stored (num, den) pairs
        (``_transported``, which moves only the exponents in the moved
        columns).

    The slot match alone already pins M: its columns are then d and the
    unit vectors other than e_l, with determinant +-d_l = +-1.  The
    determinant is checked on its own all the same, so that the
    automorphism does not rest on that argument.

    Why that proves member k's claim.  rho_d is a field automorphism
    that maps F^2 onto itself, so it maps the F^2-span of R's products
    onto that of their images: pure(rho_d(R)) = rho_d(pure(R)), and
    rho_d(R) is member k.  In 2-basis coordinates, x = sum_e x_e^2 a^e
    maps to sum_e rho_d(x_e)^2 a^(M e), so member k's coordinate
    y_(M e mod 2) is rho_d(x_e) * a^((M e - (M e mod 2)) / 2).  det M is
    odd, so M mod 2 is a bijection on the patterns, and every coordinate
    of the image is one of these.  The twist check, rho_d(1 + a1) =
    1 + a^d, pins M e_1 = d over the integers, and M 0 = 0; so
    R's claim {x_0 = x_1} maps onto {y_0 = y_d}, member k's claim.  A
    match mod 2 alone would not do: with the twist 1 + a^(d + 2 e_1), the
    image would be {y_0 = a_1 * y_d}, another hyperplane, and that twist
    is refused.

    ``_proved_family`` runs these member proofs and returns the family
    with its masks; ``_subset_evidence`` runs them too.  Everything after
    that is read off the masks (``_gf2_family_evidence``).
    anns[k] has leading bit k, so every subset of the masks is
    independent, and s members have a common slot space of dimension
    2^n - s:

      * 0 for the family, 1 without any one member;
      * 1 (the row e_0) lies outside every claim, since bit 0 is set in
        every mask, and the full value space is span(1) + pure, so every
        member is anisotropic;
      * member 0 meets member k in the space annihilated by e_0 and
        e_0 + e_k, where coordinates 0 and k vanish: the span of the other
        monomials.

    A member 0 or 1 whose products do not span its claim raises
    IdentityFailed, and so does a member k >= 2 that is not R's image
    under a unimodular rho_d: every member passes, for every n, by the
    paper's construction.  An isotropic member is one such, since a
    claim holding proves anisotropy.  So a returned report always has
    ``all_anisotropic`` and ``claimed_pure_bases`` true; the keys stay
    for the report's fixed layout.
    """
    return _gf2_family_evidence(_proved_family(n)[1])


def _proved_family(n: int) -> tuple[list[BilinearPfister], list[int]]:
    """build_no_common_slot_family(n) and its masks anns, once every
    member's pure value space is proved to be the hyperplane annihilated
    by its mask: members 0 and 1 spanned, every other member transported,
    as ``verify_no_common_slot_family`` proves.  A member that fails its
    proof raises IdentityFailed."""
    family = build_no_common_slot_family(n)
    # e_0 annihilates member 0's claim, e_0 + e_k member k's (1 | 1 << 0 is e_0)
    anns = [1 | 1 << k for k in range(len(family))]
    for k in (0, 1):
        if not _member_spans_claim(family[k], anns[k]):
            raise IdentityFailed(f"member {k}'s products do not span its claimed pure space")
    ctx = family[0].ctx
    for k, (d, lead) in enumerate(_twists(ctx)[1:], 2):
        moved = _monomial_map(ctx, d, lead)
        det = _int_det(moved)
        if det not in (1, -1):
            raise IdentityFailed(f"member {k}'s monomial map has determinant {det}, not +-1")
        slots = family[k].slots
        image = _transported(moved, family[1].slots)
        stored = {(s.num.terms, s.den.terms) for s in slots}
        if len(slots) != n or len(image) != n or image != stored:
            raise IdentityFailed(f"member {k} is not the image of member 1 under its monomial map")
    return family, anns


def _subset_evidence(n: int, indices: Sequence[int]) -> dict:
    """The evidence ``bilinear-family --subset`` prints: the members of
    build_no_common_slot_family(n) at ``indices``, the dimension of their
    common slot space and its canonical reduced basis.  ``indices`` is a
    nonempty list in 0..2^n - 1, repeats allowed, as the CLI's
    ``_parse_subset`` checks.  Every member is proved first, by
    ``_proved_family`` as for ``verify_no_common_slot_family``, so a
    member that fails its proof raises IdentityFailed, named or not.

    The space is then read off the masks in closed form.  The members of
    the set S of indices meet in the rows annihilated by anns[k], k in S.
    Those masks pass the leading-bit rule of ``_gf2_family_evidence``, so
    the space has dimension 2^n - |S|.  The union U of the masks has
    bit 0 and bit k for each k in S.  If 0 is in S, the mask e_0 forces
    x_0 = 0 and each e_0 + e_k then x_k = 0: the basis is the unit rows
    e_j for j outside U.  Otherwise x_k = x_0 for each k in S: the basis
    is U, the element 1 + sum a^(d_k) over k in S, then e_j for j outside
    U.  Each row is annihilated by every mask, and their lowest bits are
    distinct, so 2^n - |S| of them are independent and span the space.
    In this order each row's lowest bit is its pivot, which no other row
    has set: it is the reduced basis ``common_slot_space`` gives, the
    general intersection, which the tests hold it to.
    """
    family, anns = _proved_family(n)
    _gf2_family_evidence(anns)
    masks = {anns[k] for k in indices}
    union = functools.reduce(int.__or__, masks)
    ctx = family[0].ctx
    slots = [ctx.monomial(d) for j, d in enumerate(ctx.patterns) if not union >> j & 1]
    # member 0's mask is e_0
    if 1 not in masks:
        slots.insert(0, ctx.element(d for j, d in enumerate(ctx.patterns) if union >> j & 1))
    return {
        "forms": [f"{k}: {family[k]!r}" for k in indices],
        "common_slot_space_dim": len(slots),
        "common_slots": [str(e) for e in slots],
    }
