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
completion exists.  Every accepted completion is certified once, by one
exact pure-value-space equality in ``_complete``; ``check_log`` reports it,
and nothing it certified is spanned again.

``verify_no_common_slot_family`` certifies the sharp family of
``build_no_common_slot_family``; its leave-one-out spaces come from
prefix and suffix intersections (``leave_one_out_slot_spaces``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

from .errors import (
    BadRank,
    CompletionNotFound,
    ContextMismatch,
    EmptyInput,
    IsotropicInput,
    PreconditionFailed,
    ZeroSlot,
)
from .field import FieldContext, FieldElement
from .linalg import SqSubspace, left_kernel

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
    """All 2^k slot products b^e, e over {0,1}^k in ascending lex order."""
    out = []
    for e in itertools.product((0, 1), repeat=len(slots)):
        p = ctx.one
        for take, s in zip(e, slots):
            if take:
                p = p * s
        out.append(p)
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
        """F^2-span of all 2^k slot products; equals D(B) plus 0."""
        if self._full is None:
            self._full = SqSubspace.span(self.ctx, self.diagonal())
        return self._full

    def pure_value_space(self) -> SqSubspace:
        """F^2-span of the 2^k - 1 nontrivial slot products; D(B') plus 0."""
        if self._pure is None:
            self._pure = SqSubspace.span(self.ctx, self.diagonal()[1:])
        return self._pure

    def is_anisotropic(self) -> bool:
        return self.full_value_space().dim == 2**self.fold

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
        if not isinstance(data, dict) or data.get("type") != "bilinear_pfister":
            raise ValueError("expected a bilinear_pfister object")
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
    return reduce(lambda a, b: a.intersection(b), _pure_spaces(forms))


def leave_one_out_slot_spaces(
    forms: Sequence[BilinearPfister],
) -> tuple[SqSubspace, list[SqSubspace]]:
    """The common slot space of the family and, for every k, that of the
    family without form k.

    With P_k the pure value space of form k, the prefix intersections
    P_0 & ... & P_k and the suffix intersections P_k & ... & P_(N-1) are
    built once; the space without form k is then the prefix ending at k-1
    met with the suffix starting at k+1, so the whole list costs about 3N
    intersections instead of N^2.  Reduced bases are canonical, so every
    space equals common_slot_space of the same subfamily row for row.
    """
    spaces = _pure_spaces(forms)
    size = len(spaces)
    if size < 2:
        raise EmptyInput("leaving one form out needs at least two forms")
    prefix = [spaces[0]]
    for space in spaces[1:]:
        prefix.append(prefix[-1].intersection(space))
    # suffix[i] is P_(i+1) & ... & P_(N-1)
    suffix = [spaces[-1]]
    for space in reversed(spaces[1:-1]):
        suffix.append(suffix[-1].intersection(space))
    suffix.reverse()
    middle = [prefix[k - 1].intersection(suffix[k]) for k in range(1, size - 1)]
    return prefix[-1], [suffix[0], *middle, prefix[-2]]


# ---------------------------------------------------------------------------
# factor extraction
# ---------------------------------------------------------------------------


def _mixed_pure_space(
    ctx: FieldContext,
    rho_slots: Sequence[FieldElement],
    complement: Sequence[FieldElement],
) -> SqSubspace:
    """Span of r * p with r any rho product and p a nontrivial complement
    product; this is D(rho tensor pi') plus 0."""
    rho_prods = _products(ctx, rho_slots)
    comp_prods = _products(ctx, complement)[1:]
    return SqSubspace.span(ctx, (r * p for r in rho_prods for p in comp_prods))


def _stable_subspace(U: SqSubspace, W: SqSubspace) -> SqSubspace:
    """The F^2-subspace {delta in F : delta * U <= W}.

    For fixed u the row of delta*u is F-linear in the row of delta, so the
    condition is a kernel computation: stack, for every basis monomial a^g,
    the residues of a^g * u_j modulo W, and take the left kernel.
    """
    ctx = U.ctx
    basis_elems = U.elements()
    rows = []
    for g in ctx.patterns:
        mono = ctx.monomial(g)
        row: list[FieldElement] = []
        for u in basis_elems:
            prod = (mono * u).frobenius_decompose().dense()
            row.extend(W.reduce_row(prod))
        rows.append(row)
    kernel = left_kernel(ctx, rows)
    elems = []
    for z in kernel:
        f = ctx.zero
        for c, g in zip(z, ctx.patterns):
            if c:
                f = f + c.square() * ctx.monomial(g)
        elems.append(f)
    return SqSubspace.span(ctx, elems)


def _admissible(delta: FieldElement, U: SqSubspace, W: SqSubspace) -> bool:
    """Whether delta extends the current slot list: anisotropy is kept
    (delta outside the current value field U) and every new pure product
    delta*u stays inside the target pure space W."""
    if delta.is_zero:
        return False
    if delta in U:
        return False
    return all((delta * u) in W for u in U.elements())


def _next_slot(U: SqSubspace, W: SqSubspace) -> FieldElement | None:
    basis = W.elements()
    for cand in basis:
        if _admissible(cand, U, W):
            return cand
    for a, b in itertools.combinations(basis, 2):
        cand = a + b
        if _admissible(cand, U, W):
            return cand
    # bounded search exhausted: fall back to the exact candidate subspace,
    # which is nonzero iff any completion step exists at all
    stable = _stable_subspace(U, W)
    for cand in stable.elements():
        if _admissible(cand, U, W):
            return cand
    return None


def _complete(
    slots: tuple[FieldElement, ...], form: BilinearPfister
) -> tuple[FieldElement, ...]:
    """Extend slots to a slot list of form: the one certification of a
    factorization.  Partial lists only need to stay anisotropic; the final
    one is proved by one exact equality, span(nontrivial products) ==
    D(form') plus 0, with 1 outside it, so its full value space is form's
    too.  Any failure raises CompletionNotFound.
    """
    ctx = form.ctx
    W = form.pure_value_space()
    while len(slots) < form.fold:
        U = SqSubspace.span(ctx, _products(ctx, slots))
        if U.dim != 2 ** len(slots):
            raise CompletionNotFound("partial slot list became isotropic")
        cand = _next_slot(U, W)
        if cand is None:
            raise CompletionNotFound(
                f"no admissible slot extends {len(slots)} of {form.fold} slots"
            )
        slots = slots + (cand,)
    final_pure = SqSubspace.span(ctx, _products(ctx, slots)[1:])
    if final_pure != W or ctx.one in final_pure:
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
    Both preconditions are checked here, each by one span.
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
    recombined = SqSubspace.span(
        ctx, _products(ctx, tuple(rho_slots) + tuple(known_complement))[1:]
    )
    if recombined != form.pure_value_space():
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
    if not forms:
        raise EmptyInput("no forms given")
    ctx = forms[0].ctx
    n = forms[0].fold
    for f in forms:
        if f.ctx != ctx:
            raise ContextMismatch("forms over different field contexts")
        if f.fold != n:
            raise ValueError("common_factor needs forms of equal fold")
        if not f.is_anisotropic():
            raise IsotropicInput(f"form {f!r} is isotropic")
    if not 1 <= m <= n - 1:
        raise ValueError(f"factor fold m={m} must satisfy 1 <= m <= {n - 1}")

    rho_slots: tuple[FieldElement, ...] = ()
    comps = [tuple(f.slots) for f in forms]
    for _ in range(m):
        spaces = [  # with rho empty, the mixed space is the pure value space
            _mixed_pure_space(ctx, rho_slots, comp) if rho_slots else f.pure_value_space()
            for f, comp in zip(forms, comps)
        ]
        inter = reduce(lambda a, b: a.intersection(b), spaces)
        if inter.is_zero:
            return None
        beta = inter.elements()[0]
        if not all(beta in space for space in spaces):
            raise PreconditionFailed("beta left a mixed pure space")
        # rho + comp presents the form: its own slots in round 1, certified
        # by the previous round's _complete after that
        head = rho_slots + (beta,)
        comps = [_complete(head, f)[len(head) :] for f in forms]
        rho_slots = head

    # _complete raised unless every form's last certification held
    log = [{"form": i, "pure_value_space_equal": True, "dim": f.pure_value_space().dim}
           for i, f in enumerate(forms)]
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


def verify_no_common_slot_family(n: int) -> dict:
    """Certify build_no_common_slot_family(n); returns the evidence dict.

    Checks, in order: every member is anisotropic; member k (k >= 1, bit
    vector d) has the pure value space spanned by 1 + a^d and the
    nontrivial monomials other than a^d; it meets member 0 in the span of
    those monomials; the whole family has no common slot; every subfamily
    of 2^n - 1 members has one.

    An isotropic member raises IsotropicInput before any evidence is
    built, so a returned report never has ``all_anisotropic: false``; the
    key stays for the report's fixed layout.
    """
    family = build_no_common_slot_family(n)
    ctx = family[0].ctx
    all_anisotropic = all(f.is_anisotropic() for f in family)
    full, left_out = leave_one_out_slot_spaces(family)

    pure_ok = True
    pair_ok = True
    base = family[0].pure_value_space()
    for k in range(1, 2**n):
        d = tuple((k >> i) & 1 for i in range(n))
        others = [
            ctx.monomial(e)
            for e in itertools.product((0, 1), repeat=n)
            if any(e) and e != d
        ]
        pure = family[k].pure_value_space()
        claimed = SqSubspace.span(ctx, others + [ctx.one + ctx.monomial(d)])
        pure_ok = pure_ok and claimed == pure
        pair_ok = pair_ok and _meet_is(base, pure, SqSubspace.span(ctx, others))

    dims = [space.dim for space in left_out]
    return {
        "checks": {
            "all_anisotropic": all_anisotropic,
            "claimed_pure_bases": pure_ok,
            "pairwise_intersections": pair_ok,
            "no_common_slot": full.is_zero,
            "sharp_at_all_but_one": all(dim > 0 for dim in dims),
        },
        "family_size": len(family),
        "common_slot_space_dim": full.dim,
        "leave_one_out_dims": dims,
    }
