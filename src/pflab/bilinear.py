"""Bilinear Pfister forms <<b1, ..., bk>> over GF(2)(a1, ..., an).

A k-fold form is determined by its slot list; its diagonal consists of
the 2^k products b^e.  The set of nonzero represented values, together
with 0, is the F^2-span of the diagonal, so every structural question
(anisotropy, slots, isometry, common factors) reduces to linear algebra
on SqSubspace objects:

  * anisotropic        <=> the full value space has dimension 2^k;
  * beta is a slot     <=> beta lies in the pure value space;
  * isometry           <=> equal pure value spaces (anisotropic, equal fold);
  * common slot        <=> nonzero intersection of the pure value spaces.

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
and nothing it certified is spanned again.  The equality is
``SqSubspace.is_span_of``: every product lies in the pure space (one dot
product with its annihilator row each), and the products have full rank
at a fixed point of GF(2^16)^n, an exact lower bound on their rank over
F.  Intersections and membership tests go through annihilators too.

The operands stay small.  Every chosen slot (the intersection element
beta and each slot ``_next_slot`` accepts) is kept in lowest terms, one
gcd per slot, since it is a factor of every product built after it.
Value spaces, mixed spaces, the partial spaces U and the certification
read the products' sparse polynomial rows, built from the slots' rows
(``field._product_rows``), so no coordinate row of fractions is cleared
of its denominators.

The candidate search runs on sparse rows too.  Each candidate is a row
of an elimination (the target pure space's, a sum of two of them, or
the fallback space's), its element's row times the elimination's final
pivot.  It is outside U when some annihilator row of U misses it, and
its products with U lie in the target when ``field._row_mul`` of it and
each of U's product rows is annihilated; a nonzero scale per row
changes neither test.  Only the accepted candidate becomes a field
element, read off its row by ``field._row_element``, the conversion
``SqSubspace.elements()`` uses.  So a pass of ``common_factor`` builds
no product of field elements.

``verify_no_common_slot_family`` certifies the sharp family of
``build_no_common_slot_family`` from each member's claimed pure space,
taken as GF(2) bitmasks whose annihilator is one known 0/1 row, and the
member's own products: one ``linalg._spans`` per member (the routine
behind ``is_span_of``) on the products' sparse rows, each with at most
two nonzero coordinates and built from the slots' rows
(``field._product_rows``), then GF(2) ranks of bitmasks, taken one
member at a time;
``leave_one_out_slot_spaces`` builds the same spaces for any family, one
k-way intersection each.
"""

from __future__ import annotations

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
    FieldContext,
    FieldElement,
    _poly_row,
    _product_rows,
    _row_element,
    _row_mul,
)
from .linalg import SparseRow, SqSubspace, _dot, _sparse, _spans
# no caller here any more; the binding stays, since perfbench's tracer test
# checks that bilinear.left_kernel is restored after tracing
from .linalg import left_kernel  # noqa: F401
from .valuation import gf2_mask_rank

__all__ = [
    "BilinearPfister",
    "FactorWitness",
    "common_slot_space",
    "leave_one_out_slot_spaces",
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
            if s.ctx != ctx:
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

    def diagonal(self) -> list[FieldElement]:
        return _products(self.ctx, self.slots)

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
        # the full value space is span(1) + pure, so it has dimension 2^k
        # exactly when the pure space has dimension 2^k - 1 and misses 1
        pure = self.pure_value_space()
        return pure.dim == 2**self.fold - 1 and self.ctx.one not in pure

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


def _pure_spaces(forms: Sequence[BilinearPfister]) -> list[SqSubspace]:
    """Pure value spaces of a nonempty family of anisotropic forms over one
    field context."""
    if not forms:
        raise EmptyInput("no forms given")
    ctx = forms[0].ctx
    for f in forms:
        if f.ctx != ctx:
            raise ContextMismatch("forms over different field contexts")
        if not f.is_anisotropic():
            raise IsotropicInput(f"form {f!r} is isotropic")
    return [f.pure_value_space() for f in forms]


def common_slot_space(forms: Sequence[BilinearPfister]) -> SqSubspace:
    """Intersection of all pure value spaces; nonzero elements are common slots."""
    first, *rest = _pure_spaces(forms)
    return first.intersection(*rest)


def leave_one_out_slot_spaces(
    forms: Sequence[BilinearPfister],
) -> tuple[SqSubspace, list[SqSubspace]]:
    """The common slot space of the family and, for every k, that of the
    family without form k.

    Each space is one k-way intersection: the null space of the stacked
    annihilator rows of its members' pure value spaces, so N forms cost
    N + 1 eliminations of at most N rows each, and no intermediate space
    is built.  Reduced bases are canonical, so every space equals
    common_slot_space of the same subfamily row for row.
    """
    spaces = _pure_spaces(forms)
    if len(spaces) < 2:
        raise EmptyInput("leaving one form out needs at least two forms")
    first, *rest = spaces
    left_out = []
    for k in range(len(spaces)):
        head, *tail = spaces[:k] + spaces[k + 1 :]
        left_out.append(head.intersection(*tail))
    return first.intersection(*rest), left_out


# ---------------------------------------------------------------------------
# factor extraction
# ---------------------------------------------------------------------------


def _mixed_pure_space(
    ctx: FieldContext,
    rho_slots: Sequence[FieldElement],
    complement: Sequence[FieldElement],
) -> SqSubspace:
    """Span of r * p with r any rho product and p a nontrivial complement
    product; this is D(rho tensor pi') plus 0.

    Those are the products of rho's slots followed by the complement's
    whose complement bits, the low ones, are not all 0, so the space is
    spanned from their sparse rows (``field._product_rows``), built from
    the slots' rows, with no product built as a field element.  In
    ``common_factor`` every one of those slots is in lowest terms.
    """
    low = 2 ** len(complement) - 1
    rows = _product_rows(ctx, tuple(rho_slots) + tuple(complement))
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
    ``SqSubspace.null_space`` of those rows.  The matrix is polynomial:
    the row of a^g * u is built from u's row (``field._row_mul``) and
    carries u's scale whatever g is, so each matrix row carries one
    nonzero scale, which leaves the null space as it is.  The null
    vectors read off its one elimination are the deltas' rows already
    reduced, each times the common scale last, so no second elimination
    builds the canonical basis.
    """
    ctx = W.ctx
    one = ctx._one_poly
    shifted = [[_row_mul(ctx, {g: one}, r) for g in range(len(ctx.patterns))] for r in u_rows]
    return SqSubspace.null_space(
        ctx, [[_dot(p, a) for p in prods] for prods in shifted for a in W.annihilator]
    )


def _admissible(
    row: SparseRow, U: SqSubspace, u_rows: Sequence[SparseRow], W: SqSubspace
) -> bool:
    """Whether the candidate delta of the sparse row extends the current
    slot list: anisotropy is kept (delta outside the current value field
    U) and every new pure product delta*u, u of a row in u_rows spanning
    U, stays inside the target pure space W.

    Each row is its element's 2-basis row times a nonzero scale, and
    ``field._row_mul`` of two rows is the product's row times both
    scales, so both tests are annihilator dot products on rows, with no
    product built as a field element, and decide as they would on the
    elements themselves.  An empty row is delta = 0, never a slot."""
    if not row or U._annihilates(row):
        return False
    return all(W._annihilates(_row_mul(W.ctx, row, r)) for r in u_rows)


def _next_slot(
    U: SqSubspace, W: SqSubspace, u_rows: Sequence[SparseRow]
) -> FieldElement | None:
    """The first admissible slot: a basis element of W, a sum of two, or
    a basis element of the exact candidate subspace.  u_rows are the
    sparse rows of any spanning set of U, each up to a nonzero scale
    (``_complete`` passes U's product rows); both tests depend only on
    the span.

    The candidates are tried as rows: W's eliminated rows, each last
    times a reduced row, then sums of two of them, which share that
    scale, then the eliminated rows of the fallback space.  Only the one
    candidate accepted is turned into a field element, read off its row
    by ``field._row_element`` as (sum e_j^2 * a^(d_j)) / last^2, the
    conversion of ``SqSubspace.elements()``.  It is returned in lowest
    terms, one gcd per chosen slot: the entries are elimination minors,
    and a slot is a factor of every product built after it.  Lowest
    terms over GF(2) are unique, so the slot is the one the elements
    would give.
    """
    for row, last in _candidate_rows(u_rows, W):
        if _admissible(row, U, u_rows, W):
            return _row_element(W.ctx, row, last).lowest_terms()
    return None


def _candidate_rows(u_rows: Sequence[SparseRow], W: SqSubspace):
    """The candidates of ``_next_slot`` in order, as (sparse row, scale):
    W's eliminated rows, the sums of two of them, then the eliminated rows
    of the fallback space, which is computed only when it is reached."""
    for polys in W._eliminated:
        yield _sparse(polys), W._last
    for a, b in itertools.combinations(W._eliminated, 2):
        yield _sparse([x + y for x, y in zip(a, b)]), W._last
    # bounded search exhausted: fall back to the exact candidate subspace,
    # which is nonzero iff any completion step exists at all
    stable = _stable_subspace(u_rows, W)
    for polys in stable._eliminated:
        yield _sparse(polys), stable._last


def _complete(
    slots: tuple[FieldElement, ...], form: BilinearPfister
) -> tuple[FieldElement, ...]:
    """Extend slots to a slot list of form: the one certification of a
    factorization.  Partial lists only need to stay anisotropic; the final
    one is proved by one exact equality, span(nontrivial products) ==
    D(form') plus 0, with 1 outside it, so its full value space is form's
    too.  Any failure raises CompletionNotFound.

    The equality is W.is_span_of on the products' rows, W the form's
    pure space, in three exact steps:

      1. every nontrivial product lies in W: its 2-basis row, scaled by
         a nonzero polynomial, has dot product 0 with W's annihilator rows;
      2. the product rows have rank dim W at the fixed point of
         linalg._rank_at_point in GF(2^16)^n.  A minor that is 0 over F
         is 0 at every point, so the rank over F is at least that, and
         span(products) <= W then fills W;
      3. 1 is not in W: 1's row is e_0, so this reads column 0 of W's
         annihilator.

    Only when the rank at the point falls short are the rows spanned
    exactly and compared with W.

    No product is built as a field element.  The products' sparse rows
    start as ``field._product_rows`` of the given slots and grow by one
    slot at a time: the new slot is the last, the lowest bit of e, so
    each old row r is followed by ``_row_mul`` of the slot's row and r,
    which is exact, so the rows are those ``_product_rows`` builds.  U is
    spanned from them, ``_next_slot`` tests its candidates against them,
    and the certification reads them; the slots that ``_next_slot`` adds
    are in lowest terms, so the rows stay small.
    """
    ctx = form.ctx
    W = form.pure_value_space()
    rows = _product_rows(ctx, slots)
    while len(slots) < form.fold:
        U = SqSubspace.from_poly_rows(ctx, rows)
        if U.dim != 2 ** len(slots):
            raise CompletionNotFound("partial slot list became isotropic")
        cand = _next_slot(U, W, rows)
        if cand is None:
            raise CompletionNotFound(
                f"no admissible slot extends {len(slots)} of {form.fold} slots"
            )
        slots = slots + (cand,)
        new = _poly_row(cand)
        rows = [x for r in rows for x in (r, _row_mul(ctx, new, r))]
    # 1 outside W reads column 0 of W's annihilator: 1's row is e_0
    if not W.is_span_of(rows=rows[1:]) or ctx.one in W:
        raise CompletionNotFound("completion failed the exact certification")
    return slots


def factor_out(
    beta: FieldElement,
    rho: BilinearPfister | None,
    form: BilinearPfister,
    known_complement: Sequence[FieldElement],
) -> tuple[FieldElement, ...]:
    """Given form = rho (x) <<known_complement>> and beta in D(rho (x) pi'),
    return new complement slots delta with

        <<slots(rho), beta, *delta>>  isometric to  form,

    certified by the one exact pure-value-space equality of _complete.
    Both preconditions are checked here: beta by one span of the mixed
    space, the recombination by SqSubspace.is_span_of, the helper that
    _complete certifies with.
    """
    ctx = form.ctx
    rho_slots: tuple[FieldElement, ...] = () if rho is None else rho.slots
    if rho is not None and rho.ctx != ctx:
        raise ContextMismatch("rho over a different field context")
    mixed = _mixed_pure_space(ctx, rho_slots, known_complement)
    if beta.is_zero or beta not in mixed:
        raise PreconditionFailed("beta is not a nonzero value of rho tensor pi'")
    if not form.is_anisotropic():
        raise IsotropicInput("cannot factor an isotropic form")
    # the stated factorization must actually hold
    rows = _product_rows(ctx, tuple(rho_slots) + tuple(known_complement))[1:]
    if not form.pure_value_space().is_span_of(rows=rows):
        raise PreconditionFailed("rho and known_complement do not recombine to the form")
    return _complete(rho_slots + (beta,), form)[len(rho_slots) + 1 :]


@dataclass(frozen=True)
class FactorWitness:
    """A verified m-fold common factor of a family of n-fold forms.

    For every input form, rho's slots followed by the matching complement
    rebuild a form with exactly the same pure value space.  Entry i of
    check_log reports the last round's certification of form i in
    _complete (``pure_value_space_equal``, true in every witness, since a
    failed one raises) and the pure space's ``dim``, 2^n - 1.

    ``pure_value_space_equal`` rests on SqSubspace.is_span_of: each
    nontrivial product of the rebuilt form has dot product 0 with the pure
    space's annihilator rows, so the products span a subspace of it; and
    their 2-basis rows, scaled to polynomials, have rank 2^n - 1 at a fixed
    point of GF(2^16)^n.  Substitution cannot raise a rank, so that is a
    lower bound on their rank over F, and the two spaces are equal.  A
    rank that falls short at the point sends the check to an exact span;
    neither path samples.
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


def common_factor(m: int, forms: Sequence[BilinearPfister]) -> FactorWitness | None:
    """Extract a verified m-fold common factor, or None when the slot
    intersection dies before m slots are collected."""
    pures = _pure_spaces(forms)
    ctx = forms[0].ctx
    n = forms[0].fold
    if any(f.fold != n for f in forms):
        raise ValueError("common_factor needs forms of equal fold")
    if not 1 <= m <= n - 1:
        raise ValueError(f"factor fold m={m} must satisfy 1 <= m <= {n - 1}")

    rho_slots: tuple[FieldElement, ...] = ()
    comps = [tuple(f.slots) for f in forms]
    for _ in range(m):
        # with rho empty, the mixed space is the pure value space
        spaces = [_mixed_pure_space(ctx, rho_slots, c) for c in comps] if rho_slots else pures
        inter = spaces[0].intersection(*spaces[1:])
        if inter.is_zero:
            return None
        # in lowest terms: beta is a factor of every product after this
        beta = inter.elements()[0].lowest_terms()
        if not all(beta in space for space in spaces):
            raise PreconditionFailed("beta left a mixed pure space")
        # rho + comp presents the form: its own slots in round 1, certified
        # by the previous round's _complete after that
        head = rho_slots + (beta,)
        comps = [_complete(head, f)[len(head) :] for f in forms]
        rho_slots = head

    # _complete raised unless every form's last certification held
    log = [{"form": i, "pure_value_space_equal": True, "dim": pure.dim}
           for i, pure in enumerate(pures)]
    return FactorWitness(BilinearPfister(ctx, rho_slots), tuple(comps), tuple(log))


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
    for k in range(1, 2**n):
        d = tuple((k >> i) & 1 for i in range(n))
        lead = min(i for i in range(n) if d[i])
        twist = ctx.one + ctx.monomial(d)
        slots = tuple(g for i, g in enumerate(gens) if i != lead) + (twist,)
        forms.append(BilinearPfister(ctx, slots))
    return forms


def _meet_is(a: SqSubspace, b: SqSubspace, claimed: SqSubspace) -> bool:
    """Whether a & b == claimed, without a left kernel.

    claimed <= a & b holds when claimed lies in both spaces, and then the
    two are equal exactly when their dimensions agree, which the modular
    law dim(a & b) = dim a + dim b - dim(a + b) gives from one sum.
    """
    if not (a.contains_subspace(claimed) and b.contains_subspace(claimed)):
        return False
    return a.dim + b.dim - a.sum_with(b).dim == claimed.dim


def _claimed_pure_generators(ctx: FieldContext, k: int) -> list[FieldElement]:
    """The claimed pure basis of member k (bit vector d = ctx.patterns[k])
    of build_no_common_slot_family: the nontrivial monomials other than
    a^d, then 1 + a^d; member 0 has all nontrivial monomials."""
    d = ctx.patterns[k]
    gens = [ctx.monomial(e) for e in ctx.patterns[1:] if e != d]
    if k:
        gens.append(ctx.one + ctx.monomial(d))
    return gens


def _claimed_masks(ctx: FieldContext, k: int) -> list[int]:
    """The 2-basis rows of _claimed_pure_generators(ctx, k) as GF(2)
    bitmasks, in the same order, read off the patterns: bit j for a^e,
    e = ctx.patterns[j], and 1 | 1 << k for 1 + a^d."""
    masks = [1 << j for j in range(1, len(ctx.patterns)) if j != k]
    if k:
        masks.append(1 | 1 << k)
    return masks


def _odd(mask: int) -> bool:
    return mask.bit_count() % 2 == 1


def _family_report(
    anisotropic: bool, pure_ok: bool, pair_ok: bool, common_dim: int, dims: list[int]
) -> dict:
    return {
        "checks": {
            "all_anisotropic": anisotropic,
            "claimed_pure_bases": pure_ok,
            "pairwise_intersections": pair_ok,
            "no_common_slot": common_dim == 0,
            "sharp_at_all_but_one": all(dim > 0 for dim in dims),
        },
        "family_size": len(dims),
        "common_slot_space_dim": common_dim,
        "leave_one_out_dims": dims,
    }


def _gf2_family_evidence(anns: list[int], pair_ok: bool) -> dict:
    """The family evidence from the claimed pure bases alone, once every
    member's pure value space is known to be the F-span of its claim,
    the hyperplane of 2^n-bit rows annihilated by anns[k]; pair_ok is the
    pairwise check, made on each claim's masks as they were taken."""
    size = len(anns)  # 2^n members, and 2^n columns
    # 1 is e_0, the mask 1
    anisotropic = all(_odd(ann & 1) for ann in anns)
    common_dim = size - gf2_mask_rank(anns)
    dims = [size - gf2_mask_rank(anns[:k] + anns[k + 1 :]) for k in range(size)]
    return _family_report(anisotropic, True, pair_ok, common_dim, dims)


def _member_spans_claim(form: BilinearPfister, k: int) -> bool:
    """Whether member k's nontrivial products span its claim, the space
    annihilated by e_0 + e_k (e_0 for member 0): ``linalg._spans`` on the
    products' sparse rows, built from the slots' rows by
    ``field._product_rows`` with no product built as a field element.
    Only when the rank at the point falls short are the products built
    and both sides spanned exactly."""
    ctx = form.ctx
    zero, one = ctx._zero_poly, ctx._one_poly
    size = len(ctx.patterns)
    ann = tuple(one if j in (0, k) else zero for j in range(size))
    decided = _spans(ctx, (ann,), size - 1, _product_rows(ctx, form.slots)[1:])
    if decided is None:
        claim = _claimed_pure_generators(ctx, k)
        return SqSubspace.span(ctx, form.diagonal()[1:]) == SqSubspace.span(ctx, claim)
    return decided


def _f_family_evidence(
    family: Sequence[BilinearPfister], claims: list[list[FieldElement]]
) -> dict:
    """The family evidence by F-level intersections, for a family in which
    some member's pure value space is not its claim."""
    ctx = family[0].ctx
    anisotropic = all(f.is_anisotropic() for f in family)
    full, left_out = leave_one_out_slot_spaces(family)
    base = family[0].pure_value_space()
    pair_ok = all(
        _meet_is(base, f.pure_value_space(), SqSubspace.span(ctx, gens[:-1]))
        for f, gens in zip(family[1:], claims[1:])
    )
    return _family_report(anisotropic, False, pair_ok, full.dim, [s.dim for s in left_out])


def verify_no_common_slot_family(n: int) -> dict:
    """Certify build_no_common_slot_family(n); returns the evidence dict.

    The checks: every member is anisotropic; member k (k >= 1, bit vector
    d) has the pure value space spanned by 1 + a^d and the nontrivial
    monomials other than a^d; it meets member 0 in the span of those
    monomials; the whole family has no common slot; every subfamily of
    2^n - 1 members has one.

    Each claim is taken as GF(2) bitmasks of its generators' 2-basis
    rows, read off the patterns (``_claimed_masks``), and checked first:
    member 0's claim must be the hyperplane annihilated by e_0, member
    k's the one annihilated by e_0 + e_k (rank 2^n - 1 over GF(2), even
    parity against the annihilator).  The rank of a 0/1 matrix does not
    change under the field extension GF(2) < F, so the F-span of the
    claim is then the hyperplane of F^(2^n) cut out by that one 0/1 row;
    no claim is spanned over F.  The masks are taken one member at a
    time: the hyperplane check and the pairwise check against member 0
    read them, and only the pairwise verdict and the annihilator rows
    are kept.

    The F-level work is one ``linalg._spans`` per member, the routine
    behind ``SqSubspace.is_span_of`` (``common_factor`` certifies with
    it too): every nontrivial product has dot product 0 with the claim's
    annihilator row, and the products have rank 2^n - 1 at a fixed point
    of GF(2^16)^n, an exact lower bound on their rank over F.  So the
    products span the claim, which is the member's pure value space.  A
    product has at most two nonzero 2-basis coordinates, and its row is
    kept sparse (column -> polynomial) through the dot products and the
    rank.  The rows are built from the member's slots' rows
    (``field._product_rows``), so no product is built as a field element.
    Only when the rank at the point falls short are the products built,
    and they and the claim spanned exactly and compared.

    By dim(A & B) = dim A + dim B - dim(A + B), intersections of such
    spans have the dimensions of the GF(2) ones too, so everything after
    the equalities is linear algebra on 2^n-bit masks:

      * 1 (mask e_0) lies outside every claim, and the full value space
        is span(1) + pure, so every member is anisotropic;
      * member 0 meets member k in the space annihilated by e_0 and
        e_0 + e_k, which is the span of the other monomials;
      * a set of members has a common slot space of dimension 2^n minus
        the rank of their annihilators: 0 for the family, 1 without any
        one member.

    The F path runs only if some member's pure space differs from its
    claim: the report then says ``claimed_pure_bases: false`` and its
    other keys come from F-level intersections
    (``leave_one_out_slot_spaces`` and ``_meet_is``).  An isotropic
    member always differs from its claim, since a claim holding proves
    anisotropy, and the F path raises IsotropicInput on it, so a
    returned report never has ``all_anisotropic: false``; the key stays
    for the report's fixed layout.
    """
    family = build_no_common_slot_family(n)
    ctx = family[0].ctx
    size = len(family)  # 2^n members, and 2^n columns
    # e_0 annihilates member 0's claim, e_0 + e_k member k's (1 | 1 << 0 is e_0)
    anns = [1 | 1 << k for k in range(size)]
    pair_ok = True
    for k, ann in enumerate(anns):
        # one member's masks at a time: all of them together are 2^n lists
        # of 2^n - 1 masks of 2^n bits
        rows = _claimed_masks(ctx, k)
        if gf2_mask_rank(rows) != size - 1 or any(_odd(ann & m) for m in rows):
            raise IdentityFailed("a claimed pure space is not its annihilator's hyperplane")
        if k:
            others = rows[:-1]
            pair_ok = pair_ok and (
                gf2_mask_rank(others) + gf2_mask_rank([anns[0], ann]) == size
                and not any(_odd(anns[0] & m) for m in others)
            )
    if all(_member_spans_claim(f, k) for k, f in enumerate(family)):
        return _gf2_family_evidence(anns, pair_ok)
    claims = [_claimed_pure_generators(ctx, k) for k in range(size)]
    return _f_family_evidence(family, claims)
