"""Bilinear Pfister forms: value spaces, slots, isometry, factor extraction."""

import importlib
import functools
import itertools
import json
import pkgutil
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pflab import (
    BilinearPfister,
    CompletionNotFound,
    ContextMismatch,
    EmptyInput,
    FieldContext,
    FieldElement,
    IdentityFailed,
    IsotropicInput,
    Poly,
    PreconditionFailed,
    SqSubspace,
    ZeroSlot,
    build_no_common_slot_family,
    common_factor,
    common_slot_space,
    factor_out,
    verify_no_common_slot_family,
)
import pflab
from pflab import bilinear, field, linalg
from pflab.cli import _read_forms, main
from pflab.errors import BadRank
from pflab.field import _poly_row, _product_rows, _row_element
from conftest import CTX2, CTX3, dense, from_dense, nonzero_elements, nonzero_polys
from test_golden import _workloads
from test_linalg import (
    assert_same_null_space,
    assert_same_space,
    left_kernel_reference,
    reduce_row,
    span_by_frobenius_rows,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_N3 = GOLDEN / "bilinear-family-n3-verify.json"
GOLDEN_N4 = GOLDEN / "bilinear-family-n4-verify.json"
GOLDEN_N3_EVIDENCE = json.loads(GOLDEN_N3.read_text())["evidence"]
GOLDEN_N4_EVIDENCE = json.loads(GOLDEN_N4.read_text())["evidence"]


def count_spans(monkeypatch):
    """Record one entry per ``SqSubspace.from_poly_rows`` call, every
    span's one elimination, in the returned list."""
    spans = []
    real = SqSubspace.from_poly_rows
    monkeypatch.setattr(
        SqSubspace, "from_poly_rows", classmethod(lambda cls, *a: spans.append(1) or real(*a))
    )
    return spans


@pytest.fixture
def b0(ctx2):
    a1, a2 = ctx2.gens
    return BilinearPfister(ctx2, (a1, a2))


class TestConstruction:
    def test_zero_slot(self, ctx2):
        with pytest.raises(ZeroSlot):
            BilinearPfister(ctx2, (ctx2.gens[0], ctx2.zero))

    def test_empty(self, ctx2):
        with pytest.raises(EmptyInput):
            BilinearPfister(ctx2, ())

    def test_context_mismatch(self, ctx2, ctx3):
        with pytest.raises(ContextMismatch):
            BilinearPfister(ctx2, (ctx3.gens[0],))

    def test_equal_context_accepted(self, ctx2):
        # the identity shortcut for the form's own context leaves the
        # comparison by n to every other one: an equal but distinct
        # context is accepted, another n is still refused
        other = FieldContext(2)
        assert other is not ctx2
        form = BilinearPfister(ctx2, other.gens)
        assert form.slots == other.gens and form.ctx is ctx2
        with pytest.raises(ContextMismatch):
            BilinearPfister(FieldContext(3), other.gens)

    def test_json_round_trip(self, ctx2, b0):
        data = b0.to_json()
        assert data["type"] == "bilinear_pfister"
        assert BilinearPfister.from_json(ctx2, data) == b0

    @pytest.mark.parametrize(
        "data", [{"type": "bilinear_pfister"}, {"type": "bilinear_pfister", "slots": 5}]
    )
    def test_json_needs_slot_list(self, ctx2, data):
        with pytest.raises(ValueError):
            BilinearPfister.from_json(ctx2, data)


def products_by_loops(ctx, slots):
    """Reference for bilinear._products: every product b^e built from 1
    by one multiplication per set bit, e over {0,1}^k in ascending lex
    order."""
    out = []
    for e in itertools.product((0, 1), repeat=len(slots)):
        p = ctx.one
        for take, s in zip(e, slots):
            if take:
                p = p * s
        out.append(p)
    return out


class TestProducts:
    """The doubling construction against the nested loops, term for term:
    the same numerator and denominator polynomials, not only equal values."""

    @staticmethod
    def check(ctx, slots):
        got = bilinear._products(ctx, slots)
        want = products_by_loops(ctx, slots)
        assert [(p.num.terms, p.den.terms) for p in got] == [
            (p.num.terms, p.den.terms) for p in want
        ]

    @given(slots=st.lists(nonzero_elements(CTX2, max_degree=2, max_terms=3), max_size=4))
    def test_fraction_slots_n2(self, ctx2, slots):
        self.check(ctx2, slots)

    @given(slots=st.lists(nonzero_elements(CTX3, max_degree=2, max_terms=3), max_size=4))
    def test_fraction_slots_n3(self, ctx3, slots):
        self.check(ctx3, slots)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_family_members(self, n):
        for form in build_no_common_slot_family(n):
            self.check(form.ctx, form.slots)
            assert len(bilinear._products(form.ctx, form.slots)) == 2**n


def polynomial_slots(ctx):
    return nonzero_polys(ctx, max_degree=2, max_terms=3).map(
        lambda p: FieldElement(ctx, p, ctx._one_poly)
    )


class TestProductRows:
    """field._product_rows against the sparse rows of bilinear._products.
    Row e is scaled by the product of its slots' denominators, _poly_row
    by b^e's own, so each coordinate is compared as a fraction; over
    polynomial slots both scales are 1 and the rows are equal outright."""

    @staticmethod
    def check(ctx, slots):
        rows = _product_rows(ctx, slots)
        products = bilinear._products(ctx, slots)
        assert len(rows) == len(products) == 2 ** len(slots)
        zero = ctx._zero_poly
        for take, row, p in zip(itertools.product((0, 1), repeat=len(slots)), rows, products):
            want = _poly_row(p)
            assert all(x.terms for x in row.values())
            if all(s.den.is_one() for s in slots):
                assert row == want
                continue
            scale = ctx._one_poly
            for t, s in zip(take, slots):
                if t:
                    scale = scale * s.den
            for j in row.keys() | want.keys():
                got = FieldElement(ctx, row.get(j, zero), scale)
                assert got == FieldElement(ctx, want.get(j, zero), p.den)

    @given(slots=st.lists(polynomial_slots(CTX2), max_size=4))
    def test_polynomial_slots_n2(self, ctx2, slots):
        self.check(ctx2, slots)

    @given(slots=st.lists(polynomial_slots(CTX3), max_size=3))
    def test_polynomial_slots_n3(self, ctx3, slots):
        self.check(ctx3, slots)

    @given(slots=st.lists(nonzero_elements(CTX2, max_degree=2, max_terms=3), max_size=4))
    def test_fraction_slots_n2(self, ctx2, slots):
        self.check(ctx2, slots)

    @given(slots=st.lists(nonzero_elements(CTX3, max_degree=2, max_terms=3), max_size=3))
    def test_fraction_slots_n3(self, ctx3, slots):
        self.check(ctx3, slots)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_family_members(self, n):
        for form in build_no_common_slot_family(n):
            self.check(form.ctx, form.slots)


class TestValueSpaces:
    def test_full_space_of_independent_slots(self, ctx2, b0):
        a1, a2 = ctx2.gens
        full = b0.full_value_space()
        assert full.dim == 4
        assert full == SqSubspace.span(ctx2, [ctx2.one, a1, a2, a1 * a2])

    def test_repeated_slot_collapses(self, ctx2):
        a1, _ = ctx2.gens
        form = BilinearPfister(ctx2, (a1, a1))
        assert form.full_value_space() == SqSubspace.span(ctx2, [ctx2.one, a1])
        assert form.full_value_space().dim == 2

    def test_unit_form(self, ctx2):
        form = BilinearPfister(ctx2, (ctx2.one,))
        assert form.full_value_space() == SqSubspace.span(ctx2, [ctx2.one])

    def test_pure_space(self, ctx2, b0):
        a1, a2 = ctx2.gens
        assert b0.pure_value_space() == SqSubspace.span(ctx2, [a1, a2, a1 * a2])

    def test_pure_space_twisted(self, ctx2):
        a1, a2 = ctx2.gens
        form = BilinearPfister(ctx2, (a2, ctx2.one + a1))
        expected = SqSubspace.span(
            ctx2, [a2, ctx2.one + a1, a2 + a1 * a2]
        )
        assert form.pure_value_space() == expected
        # same set rewritten on the paper's basis
        assert expected == SqSubspace.span(ctx2, [a2, a1 * a2, ctx2.one + a1])

    def test_pure_space_of_unit(self, ctx2):
        form = BilinearPfister(ctx2, (ctx2.one,))
        assert form.pure_value_space() == SqSubspace.span(ctx2, [ctx2.one])


def mixed_by_products(ctx, rho_slots, complement):
    """Reference for bilinear._mixed_pure_space: the Frobenius-row span of
    every r * p, r a rho product and p a nontrivial complement product."""
    rho_prods = bilinear._products(ctx, rho_slots)
    comp_prods = bilinear._products(ctx, complement)[1:]
    return span_by_frobenius_rows(ctx, [r * p for r in rho_prods for p in comp_prods])


def fraction_slots(ctx, most):
    return st.lists(nonzero_elements(ctx, max_degree=2, max_terms=2), min_size=1, max_size=most)


class TestValueSpaceRows:
    """The value spaces and the mixed pure space, spanned from the
    products' rows, against the Frobenius-row span of the products
    themselves, on fraction slots, compared as canonical spaces."""

    @staticmethod
    def check(ctx, slots, split):
        form = BilinearPfister(ctx, slots)
        products = bilinear._products(ctx, slots)
        assert_same_space(form.full_value_space(), span_by_frobenius_rows(ctx, products))
        assert_same_space(form.pure_value_space(), span_by_frobenius_rows(ctx, products[1:]))
        rho, complement = slots[: split % len(slots)], slots[split % len(slots) :]
        rows = _product_rows(ctx, tuple(rho) + tuple(complement))
        mixed = bilinear._mixed_pure_space(ctx, complement, rows)
        assert_same_space(mixed, mixed_by_products(ctx, rho, complement))

    @given(slots=fraction_slots(CTX2, 3), split=st.integers(0, 2))
    def test_fraction_slots_n2(self, ctx2, slots, split):
        self.check(ctx2, slots, split)

    @given(slots=fraction_slots(CTX3, 3), split=st.integers(0, 2))
    def test_fraction_slots_n3(self, ctx3, slots, split):
        self.check(ctx3, slots, split)

    def test_rho_stage_of_two_fold_family(self, ctx3):
        # the rho and complement of common_factor's second round
        forms = two_fold_family(ctx3)
        witness = common_factor(1, forms)
        for comp in witness.complements:
            rows = _product_rows(ctx3, witness.rho.slots + tuple(comp))
            got = bilinear._mixed_pure_space(ctx3, comp, rows)
            assert_same_space(got, mixed_by_products(ctx3, witness.rho.slots, comp))


@st.composite
def dependent_slots(draw):
    """Nonzero slots over CTX3 that are often dependent: a few fraction
    or listed slots, and slots inserted anywhere among them that are the product of
    two of them, one of them times the square of a fraction, or one of
    them again."""
    a1, a2, a3 = CTX3.gens
    fractions = nonzero_elements(CTX3, max_degree=1, max_terms=2)
    # the listed slots make an anisotropic 3-fold form more likely
    listed = st.sampled_from([a1, a2, a3, CTX3.one + a1, a2 / a3, a1 * a2 / (CTX3.one + a3)])
    slots = draw(st.lists(st.one_of(fractions, listed), min_size=1, max_size=3))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["product", "square", "repeat"]))
        i = draw(st.integers(0, len(slots) - 1))
        if kind == "product":
            new = slots[i] * slots[draw(st.integers(0, len(slots) - 1))]
        elif kind == "square":
            c = draw(fractions)
            new = slots[i] * c * c
        else:
            new = slots[i]
        slots.insert(draw(st.integers(0, len(slots))), new)
    return slots


class TestAnisotropy:
    def test_examples(self, ctx2, b0):
        a1, a2 = ctx2.gens
        assert b0.is_anisotropic()
        assert not BilinearPfister(ctx2, (a1, a1)).is_anisotropic()
        # 1 + a1 + (1+a1) = 0 is an F^2-dependence among the slot products
        assert not BilinearPfister(ctx2, (a1, ctx2.one + a1)).is_anisotropic()
        assert BilinearPfister(ctx2, (ctx2.one + a1, a2)).is_anisotropic()

    def test_square_slot(self, ctx2):
        # D(<<a1^2>>') = span(a1^2) has full dimension 1 but holds 1
        form = BilinearPfister(ctx2, (ctx2.gens[0] ** 2,))
        assert form.pure_value_space().dim == 1
        assert not form.is_anisotropic()

    def test_agrees_with_full_value_space(self, ctx2):
        # read off the pure space, against the dimension of the full one
        a1, a2 = ctx2.gens
        pool = [ctx2.one, a1, a2, a1 * a2, a1**2, ctx2.one + a1, (ctx2.one + a2) ** 2 * a1]
        for slots in itertools.chain(
            itertools.combinations(pool, 1), itertools.combinations(pool, 2)
        ):
            form = BilinearPfister(ctx2, slots)
            want = form.full_value_space().dim == 2**form.fold
            assert form.is_anisotropic() == want, slots

        # the anisotropy lemma on drawn slots, often dependent: 1 is
        # outside the pure span exactly when the full span has dimension
        # 2^k, and then the pure span has dimension 2^k - 1; both sides
        # are exact spans
        @given(slots=dependent_slots())
        def lemma(slots):
            form = BilinearPfister(CTX3, slots)
            k = form.fold
            pure = form.pure_value_space()
            anisotropic = form.full_value_space().dim == 2**k
            assert (not pure.contains_one()) == anisotropic, slots
            if anisotropic:
                assert pure.dim == 2**k - 1
            assert form.is_anisotropic() == anisotropic

        lemma()

    def test_more_slots_than_variables(self, ctx2, b0, monkeypatch):
        # 2^3 products in F, of dimension 2^2 over F^2, are dependent: the
        # form is refused with no product row built
        real = bilinear._product_rows

        def refusing(ctx, slots):
            assert len(slots) <= ctx.n, "product rows of more slots than variables"
            return real(ctx, slots)

        monkeypatch.setattr(bilinear, "_product_rows", refusing)
        a1, a2 = ctx2.gens
        long = BilinearPfister(ctx2, (a1, a2, ctx2.one + a1))
        assert not long.is_anisotropic()
        assert b0.is_anisotropic()
        for forms in ([long], [b0, long]):
            with pytest.raises(IsotropicInput, match="is isotropic"):
                bilinear._groups(forms)
            with pytest.raises(IsotropicInput, match="is isotropic"):
                common_factor(1, forms)


class TestIsSlot:
    def test_listed_slot(self, ctx2, b0):
        assert b0.is_slot(ctx2.gens[0])

    def test_sum_of_slots(self, ctx2, b0):
        a1, a2 = ctx2.gens
        assert b0.is_slot(a1 + a2)

    def test_non_slot(self, ctx2):
        a1, a2 = ctx2.gens
        form = BilinearPfister(ctx2, (a1, a1 + a2))
        assert not form.is_slot(a1 * a2)

    def test_zero_rejected(self, ctx2, b0):
        with pytest.raises(ZeroSlot):
            b0.is_slot(ctx2.zero)


class TestIsometry:
    def test_permutation(self, ctx2, b0):
        a1, a2 = ctx2.gens
        assert b0.is_isometric(BilinearPfister(ctx2, (a2, a1)))

    def test_slot_rewrite(self, ctx2, b0):
        a1, a2 = ctx2.gens
        assert b0.is_isometric(BilinearPfister(ctx2, (a1, a1 * a2)))

    def test_distinct_forms(self, ctx2, b0):
        a1, a2 = ctx2.gens
        assert not b0.is_isometric(BilinearPfister(ctx2, (a1, a1 + a2)))

    def test_isotropic_rejected(self, ctx2, b0):
        a1, _ = ctx2.gens
        with pytest.raises(IsotropicInput):
            b0.is_isometric(BilinearPfister(ctx2, (a1, a1)))

    def test_fold_mismatch(self, ctx2, b0):
        with pytest.raises(ValueError):
            b0.is_isometric(BilinearPfister(ctx2, (ctx2.gens[0],)))

    def test_equivalence_on_samples(self, ctx2):
        a1, a2 = ctx2.gens
        pool = [a1, a2, a1 * a2, ctx2.one + a1, ctx2.one + a1 * a2]
        rng = random.Random(5)
        forms = []
        while len(forms) < 6:
            form = BilinearPfister(
                ctx2, (rng.choice(pool), rng.choice(pool))
            )
            if form.is_anisotropic():
                forms.append(form)
        for f, g in itertools.product(forms, repeat=2):
            assert f.is_isometric(f)
            assert f.is_isometric(g) == g.is_isometric(f)
        for f, g, h in itertools.product(forms, repeat=3):
            if f.is_isometric(g) and g.is_isometric(h):
                assert f.is_isometric(h)


class TestCommonSlotSpace:
    def test_full_family_trivial(self, ctx2):
        family = build_no_common_slot_family(2)
        assert common_slot_space(family).is_zero

    def test_three_member_subfamily(self, ctx2):
        a1, a2 = ctx2.gens
        family = build_no_common_slot_family(2)
        space = common_slot_space([family[0], family[1], family[2]])
        assert space == SqSubspace.span(ctx2, [a1 * a2])

    def test_single_form(self, ctx2, b0):
        assert common_slot_space([b0]) == b0.pure_value_space()
        assert common_slot_space([b0]).dim == 3

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            common_slot_space([])

    def test_isotropic_rejected(self, ctx2):
        a1, _ = ctx2.gens
        with pytest.raises(IsotropicInput):
            common_slot_space([BilinearPfister(ctx2, (a1, a1))])


class TestFactorOut:
    def test_product_slot(self, ctx2, b0):
        a1, a2 = ctx2.gens
        complement = factor_out(a1 * a2, None, b0, [a1, a2])
        assert complement == (a1,)
        rebuilt = BilinearPfister(ctx2, (a1 * a2,) + complement)
        assert rebuilt.is_isometric(b0)

    def test_listed_slot(self, ctx2, b0):
        a1, a2 = ctx2.gens
        assert factor_out(a1, None, b0, [a1, a2]) == (a2,)

    def test_precondition(self, ctx2):
        a1, a2 = ctx2.gens
        form = BilinearPfister(ctx2, (a1, ctx2.one + a1))
        with pytest.raises(PreconditionFailed):
            factor_out(a2, None, form, [a1, ctx2.one + a1])

    def test_wrong_complement_rejected(self, ctx2, ctx3, b0):
        a1, _ = ctx2.gens
        with pytest.raises(PreconditionFailed):
            factor_out(a1, None, b0, [a1, a1])
        # rho = <<a1>> and beta = a2 in <<a1, a2, a3>>: a complement one
        # slot short, one slot long, or holding 0 does not recombine,
        # though beta is a value of each mixed space and every product
        # of the short one and the one with 0 lies in the pure space
        a1, a2, a3 = ctx3.gens
        form = BilinearPfister(ctx3, (a1, a2, a3))
        rho = BilinearPfister(ctx3, (a1,))
        for complement in [(a2,), (a2, a3, a1 * a3), (a2, ctx3.zero)]:
            with pytest.raises(PreconditionFailed, match="do not recombine"):
                factor_out(a2, rho, form, complement)

    def test_slot_count_read_before_rows(self, ctx2, b0, monkeypatch):
        # a complement longer than the form's fold, or holding 0, is
        # refused before the 2^k product rows of its slots are built
        real = bilinear._product_rows

        def refusing(ctx, slots):
            assert len(slots) <= ctx.n, "product rows of more slots than variables"
            return real(ctx, slots)

        monkeypatch.setattr(bilinear, "_product_rows", refusing)
        a1, _ = ctx2.gens
        for complement in ([a1] * 14, [a1, ctx2.zero], [a1]):
            with pytest.raises(PreconditionFailed, match="do not recombine"):
                factor_out(a1, None, b0, complement)
        assert factor_out(a1, None, b0, list(b0.slots)) == (b0.slots[1],)

    def test_isotropic_rejected(self, ctx2):
        a1, a2 = ctx2.gens
        form = BilinearPfister(ctx2, (a1, a1))
        with pytest.raises((PreconditionFailed, IsotropicInput)):
            factor_out(a1, None, form, [a1, a1])

    def test_rho_stage(self, ctx3):
        a1, a2, a3 = ctx3.gens
        form = BilinearPfister(ctx3, (a1, a2, a3))
        rho = BilinearPfister(ctx3, (a1,))
        complement = factor_out(a2 * a3, rho, form, [a2, a3])
        rebuilt = BilinearPfister(ctx3, (a1, a2 * a3) + complement)
        assert rebuilt.is_isometric(form)


def two_fold_family(ctx3):
    a1, a2, a3 = ctx3.gens
    return [
        BilinearPfister(ctx3, (a1, a2, a3)),
        BilinearPfister(ctx3, (a1, a2, ctx3.one + a3)),
        BilinearPfister(ctx3, (a2, a1, a1 * a3)),
    ]


def sharing_instance(ctx3, corpus_seed, index):
    """Instance index of the seeded sharing corpus of criterion 2 and the
    sharing-n3 benchmark: trial t draws a 7-form family for m=1 (instance
    2t) and then a 3-form family for m=2 (instance 2t + 1), each form
    three distinct pool slots, redrawn until it is anisotropic.  Returns
    (m, fresh forms)."""
    a1, a2, a3 = ctx3.gens
    one = ctx3.one
    pool = [a1, a2, a3, a1 * a2, a1 * a3, a2 * a3, one + a1, one + a2 * a3]
    rng = random.Random(corpus_seed)

    def form():
        while True:
            slots = rng.sample(pool, 3)
            if BilinearPfister(ctx3, slots).is_anisotropic():
                return slots

    for _ in range(index // 2 + 1):
        families = [[form() for _ in range(7)], [form() for _ in range(3)]]
    m = index % 2 + 1
    return m, [BilinearPfister(ctx3, slots) for slots in families[m - 1]]


def fallback_forms():
    """Fresh forms of corpus 20260814's instance 19 from its golden forms
    file: the one golden input whose run reaches the exact fallback of
    bilinear._next_slot."""
    data = json.loads((GOLDEN / "common_factor_fallback_forms.json").read_text())
    return _read_forms(FieldContext(data["n"]), data["forms"])


def golden_forms():
    """Fresh forms of the golden m=1 and m=2 common-factor runs."""
    data = json.loads((GOLDEN / "common_factor_forms.json").read_text())
    return _read_forms(FieldContext(data["n"]), data["forms"])


def isometric_forms():
    """Fresh forms of the golden isometric common-factor runs: <<a1, a2, a3>>,
    an exact duplicate, its slots permuted, the isometric <<a1, a1*a2, a3>>,
    then <<a1, a2, 1 + a3>> with two forms isometric to it, <<a2, a1, a1*a3>>,
    isometric to the first, and last <<a1, a2, 1 + a1^2*a3>>, whose pure
    space has the pivots of <<a1, a2, 1 + a3>>'s but is another space:
    three distinct pure spaces."""
    data = json.loads((GOLDEN / "common_factor_isometric_forms.json").read_text())
    return _read_forms(FieldContext(data["n"]), data["forms"])


def common_factor_per_form(m, forms):
    """Reference for common_factor: every form completed on its own, with
    factor_out, round by round; (rho's slots, complements) or None."""
    ctx = forms[0].ctx
    rho, comps = None, [f.slots for f in forms]
    for _ in range(m):
        head = () if rho is None else rho.slots
        spaces = [
            bilinear._mixed_pure_space(ctx, c, _product_rows(ctx, head + tuple(c)))
            for c in comps
        ]
        inter = spaces[0].intersection(*spaces[1:])
        if inter.is_zero:
            return None
        beta = inter.elements()[0].lowest_terms()
        comps = [factor_out(beta, rho, f, c) for f, c in zip(forms, comps)]
        rho = BilinearPfister(ctx, head + (beta,))
    return rho.slots, tuple(comps)


class TestCommonFactor:
    @pytest.mark.parametrize("m", [1, 2])
    def test_isometric_forms_completed_once(self, monkeypatch, m):
        # nine forms, three distinct pure spaces: the witness is the one of
        # completing every form on its own, with one _complete per distinct
        # space and round, and every rebuilt form is isometric to its input
        forms = isometric_forms()
        want = common_factor_per_form(m, isometric_forms())
        calls = []
        real = bilinear._complete

        def counted(slots, form, rows):
            calls.append(form)
            return real(slots, form, rows)

        monkeypatch.setattr(bilinear, "_complete", counted)
        witness = common_factor(m, forms)
        monkeypatch.undo()
        assert (witness.rho.slots, witness.complements) == want
        # the first form of each group, by identity: forms 0 and 1 are equal
        assert [next(i for i, f in enumerate(forms) if f is c) for c in calls] == [0, 4, 8] * m
        assert [entry["form"] for entry in witness.check_log] == list(range(len(forms)))
        for form, complement in zip(forms, witness.complements):
            rebuilt = BilinearPfister(form.ctx, witness.rho.slots + complement)
            assert rebuilt.is_isometric(form)

    @pytest.mark.parametrize("index", [19, 45])
    def test_heavy_instances_keep_operands_small(self, ctx3, monkeypatch, index):
        # the heaviest instances of corpus 20260814: a round-1 slot that is
        # not in lowest terms made round 2 multiply bulky polynomials
        m, forms = sharing_instance(ctx3, 20260814, index)
        work = []
        real = Poly.__mul__

        def counted(f, g):
            work.append(len(f.terms) * len(g.terms))
            return real(f, g)

        monkeypatch.setattr(Poly, "__mul__", counted)
        witness = common_factor(m, forms)
        assert m == 2 and witness is not None
        # 1024 operand-term pairs was the threshold above which products
        # were once packed into integers; no product here comes near it
        assert max(work) <= 1024
        for x in witness.rho.slots + sum(witness.complements, ()):
            # a fresh element, so that its gcd is taken, not read back
            num, den = FieldElement(ctx3, x.num, x.den).canonical()
            assert (num.terms, den.terms) == (x.num.terms, x.den.terms)

    def test_three_member_subfamily(self, ctx2):
        a1, a2 = ctx2.gens
        family = build_no_common_slot_family(2)
        witness = common_factor(1, family[:3])
        assert witness is not None
        assert witness.rho.slots == (a1 * a2,)
        assert all(entry["pure_value_space_equal"] for entry in witness.check_log)
        for form, complement in zip(family[:3], witness.complements):
            rebuilt = BilinearPfister(ctx2, witness.rho.slots + complement)
            assert rebuilt.is_isometric(form)

    def test_full_family_has_none(self):
        family = build_no_common_slot_family(2)
        assert common_factor(1, family) is None

    def test_single_form(self, ctx2, b0):
        witness = common_factor(1, [b0])
        assert witness.rho.slots == (ctx2.gens[0],)

    def test_two_fold_factor(self, ctx3):
        forms = two_fold_family(ctx3)
        witness = common_factor(2, forms)
        assert witness is not None
        assert witness.rho.fold == 2
        for form, complement in zip(forms, witness.complements):
            rebuilt = BilinearPfister(ctx3, witness.rho.slots + complement)
            assert rebuilt.is_isometric(form)
        for i, entry in enumerate(witness.check_log):
            assert list(entry) == ["form", "pure_value_space_equal", "dim"]
            assert entry == {"form": i, "pure_value_space_equal": True, "dim": 2**3 - 1}

    def test_wrong_last_slot_fails_certification(self, ctx3, monkeypatch):
        real = bilinear._next_slot
        wrong = []

        def wrong_last(W, u_rows):
            # with two slots in place and one missing, any element of U
            # repeats a value, so the list is isotropic.  The search spans
            # no U, so it is spanned here
            spanned = SqSubspace.from_poly_rows(W.ctx, u_rows)
            if spanned.dim != 4:
                return real(W, u_rows)
            slot = spanned.elements()[-1]
            wrong.append((slot, W, u_rows))
            return slot, [field._row_mul(W.ctx, _poly_row(slot), r) for r in u_rows]

        monkeypatch.setattr(bilinear, "_next_slot", wrong_last)
        with pytest.raises(CompletionNotFound, match="exact certification"):
            common_factor(2, two_fold_family(ctx3))
        monkeypatch.undo()
        # the wrong slots skip the exact test of _admissible, the
        # certification's fact for an accepted slot, so round 1 completes
        # with them, and round 2's head products fail the entry test.  The
        # exact test itself refuses each: its products with U hold 1,
        # which W misses
        assert wrong
        for slot, W, u_rows in wrong:
            row = _poly_row(slot)
            screen = bilinear._Screen(u_rows, W)
            assert bilinear._admissible(row, slot.den, screen, u_rows, W) is None
            with monkeypatch.context() as m:
                m.setattr(bilinear._Screen, "rejects", lambda self, row: False)
                assert bilinear._admissible(row, slot.den, screen, u_rows, W) is None

    def test_product_outside_pure_space(self, ctx2, b0, monkeypatch):
        a1, a2 = ctx2.gens
        b0.pure_value_space()
        spans, tested = count_spans(monkeypatch), []
        real_test = SqSubspace._annihilates
        monkeypatch.setattr(
            SqSubspace, "_annihilates", lambda W, row: tested.append(row) or real_test(W, row)
        )
        # 1 + a2 is a product outside D(b0') = span(a1, a2, a1*a2): the
        # entry test stops at its row, the first tested
        slots = (a1, ctx2.one + a2)
        with pytest.raises(CompletionNotFound, match="exact certification"):
            bilinear._complete(slots, b0, _product_rows(ctx2, slots))
        assert len(tested) == 1
        # a head of the form's fold with its products inside is certified
        # by the three entry tests alone: no search and no span
        tested.clear()
        assert bilinear._complete((a1, a2), b0, _product_rows(ctx2, (a1, a2)))[0] == (a1, a2)
        assert len(tested) == 3 and spans == []

    def test_isotropic_head_fails_certification(self, ctx3, monkeypatch):
        # the head's dimension is not checked on its own, but its product
        # rows are tested against W on entry: the row of a1^2 = a1^2 * 1
        # is a1 times 1's row, outside W, so the isotropic head (a1, a1)
        # fails the exact certification before any search
        searches = []
        monkeypatch.setattr(bilinear, "_next_slot", lambda *args: searches.append(1))
        a1, a2, a3 = ctx3.gens
        head = (a1, a1)
        form = BilinearPfister(ctx3, (a1, a2, a3))
        with pytest.raises(CompletionNotFound, match="exact certification"):
            bilinear._complete(head, form, _product_rows(ctx3, head))
        assert searches == []
        # a pure space holding 1 stops the completion before any search
        isotropic = BilinearPfister(ctx3, (a1, a1))
        assert ctx3.one in isotropic.pure_value_space()
        with pytest.raises(CompletionNotFound, match="contains 1"):
            bilinear._complete((a1,), isotropic, _product_rows(ctx3, (a1,)))
        assert searches == []
        # a zero slot's products are 0, which lies in W, but their rows
        # are empty, and the anisotropy lemma needs nonzero slots
        head = (a1, ctx3.zero)
        with pytest.raises(CompletionNotFound, match="exact certification"):
            bilinear._complete(head, BilinearPfister(ctx3, (a1, a2)), _product_rows(ctx3, head))
        assert searches == []

    def test_head_longer_than_fold_refused(self, ctx3, monkeypatch):
        # the completion ends at the form's fold, so a head with more
        # slots is refused on entry, before its rows are tested
        tested = []
        monkeypatch.setattr(bilinear, "_next_slot", lambda *args: tested.append(1))
        monkeypatch.setattr(SqSubspace, "_annihilates", lambda W, row: tested.append(row))
        a1, a2, a3 = ctx3.gens
        form = BilinearPfister(ctx3, (a1, a2))
        for head in [(a1, a2, a3), (a1, a2, a1 * a2)]:
            with pytest.raises(CompletionNotFound, match="longer than the form's fold"):
                bilinear._complete(head, form, _product_rows(ctx3, head))
        assert tested == []

    def test_head_product_outside_stops_before_search(self, ctx3, monkeypatch):
        # 1 + a2 is a head product outside D(<<a1, a2, a3>>'), the span of
        # the nontrivial monomials: the head rows are tested on entry, so
        # the completion fails before any slot is searched or space spanned
        searches = []
        monkeypatch.setattr(bilinear, "_next_slot", lambda *args: searches.append(1))
        a1, a2, a3 = ctx3.gens
        form = BilinearPfister(ctx3, (a1, a2, a3))
        form.pure_value_space()
        spans = count_spans(monkeypatch)
        head = (a1, ctx3.one + a2)
        with pytest.raises(CompletionNotFound, match="exact certification"):
            bilinear._complete(head, form, _product_rows(ctx3, head))
        assert searches == [] and spans == []

    def test_no_row_tested_twice(self, monkeypatch):
        # each product row is tested against a space once: the head rows
        # on entry to _complete, each accepted slot's products in
        # _admissible, and the certification tests nothing more.
        # A row is one row object; every tested row and annihilator is
        # kept alive, so that no id is reused
        runs = [
            (1, golden_forms, "common-factor-m1.json"),
            (2, golden_forms, "common-factor-m2.json"),
            (2, fallback_forms, "common-factor-fallback-m2.json"),
        ]
        tested = {}
        real = linalg._annihilated

        def recorded(row, annihilator):
            key = (id(annihilator), id(row))
            assert key not in tested, "a row was tested twice against one space"
            tested[key] = (annihilator, row)
            return real(row, annihilator)

        monkeypatch.setattr(linalg, "_annihilated", recorded)
        for m, forms, name in runs:
            golden = json.loads((GOLDEN / name).read_text())
            assert common_factor(m, forms()).to_json() == golden["evidence"]["witness"]
        assert tested

    @pytest.mark.parametrize("m, most", [(1, 17), (2, 28)])
    def test_each_factorization_spanned_once(self, ctx3, monkeypatch, m, most):
        # fresh forms: the count includes their anisotropy and pure spaces
        forms = two_fold_family(ctx3)
        calls = []
        depth = [0]
        for name in ("span", "from_poly_rows"):
            real = getattr(SqSubspace, name)

            def counted(cls, *args, _real=real):
                # span ends in from_poly_rows: one elimination
                # is one call, however many of these names it passes
                calls.append(depth[0] == 0)
                depth[0] += 1
                try:
                    return _real(*args)
                finally:
                    depth[0] -= 1

            monkeypatch.setattr(SqSubspace, name, classmethod(counted))
        assert common_factor(m, forms) is not None
        assert sum(calls) <= most

    def test_round_head_rows_built_once(self, monkeypatch):
        # every form of a round completes the same head slots (rho, beta):
        # their product rows are built once per round and never spanned,
        # and the next round's mixed spaces read the rows _complete built.
        # Before the rounds, the grouping builds each form's own product
        # rows once, to test it against the representatives' pure spaces
        forms = golden_forms()
        ctx = forms[0].ctx
        for f in forms:
            f.pure_value_space()
        built, spanned = [], []
        real_rows = bilinear._product_rows
        real_span = SqSubspace.from_poly_rows

        def counted_rows(ctx, slots):
            built.append(tuple(slots))
            return real_rows(ctx, slots)

        def counted_span(cls, ctx, rows):
            rows = list(rows)
            spanned.append(rows)
            return real_span(ctx, rows)

        monkeypatch.setattr(bilinear, "_product_rows", counted_rows)
        monkeypatch.setattr(SqSubspace, "from_poly_rows", classmethod(counted_span))
        witness = common_factor(2, forms)
        monkeypatch.undo()
        golden = json.loads((GOLDEN / "common-factor-m2.json").read_text())
        assert witness.to_json() == golden["evidence"]["witness"]
        heads = [witness.rho.slots[:1], witness.rho.slots[:2]]
        assert built == [f.slots for f in forms] + heads
        # no head and no partial U is spanned: with the pure spaces built
        # before the count, the only spans are round 2's mixed spaces, from
        # the rows of round 1's completions, one per distinct pure space.
        # Form 2 is isometric to form 0, so it shares form 0's complement
        # and gets no mixed space of its own
        first = common_factor(1, golden_forms())
        assert first.complements[2] == first.complements[0]
        low = 2 ** len(first.complements[0]) - 1
        mixed = [
            [row for e, row in enumerate(_product_rows(ctx, heads[0] + comp)) if e & low]
            for comp in first.complements[:2]
        ]
        assert spanned == mixed
        # factor_out, called on its own, builds its own head rows and
        # completes each form as the witness does, round by round
        rho = BilinearPfister(ctx, witness.rho.slots[:1])
        for form, comp, done in zip(golden_forms(), first.complements, witness.complements):
            assert factor_out(rho.slots[0], None, form, form.slots) == comp
            assert factor_out(witness.rho.slots[1], rho, form, comp) == done

    def test_degenerate_point_only_skips_work(self, monkeypatch):
        # a point at which every value is 0 rejects no candidate, so every
        # one goes to the exact test: the witnesses stay the golden ones,
        # and only the exact row products grow in number
        runs = [
            (1, golden_forms, "common-factor-m1.json"),
            (2, golden_forms, "common-factor-m2.json"),
            (2, fallback_forms, "common-factor-fallback-m2.json"),
        ]
        products = []
        real = bilinear._row_mul

        def counted(ctx, r1, r2):
            products.append(1)
            return real(ctx, r1, r2)

        def run():
            products.clear()
            for m, forms, name in runs:
                golden = json.loads((GOLDEN / name).read_text())
                assert common_factor(m, forms()).to_json() == golden["evidence"]["witness"]
            return len(products)

        monkeypatch.setattr(bilinear, "_row_mul", counted)
        plain = run()
        monkeypatch.setattr(field._Point, "value", lambda self, p: 0)
        assert run() > plain

    def test_complete_builds_each_product_row_once(self, monkeypatch):
        # the accepted slot's exact test multiplies its row by each of U's
        # rows, and _complete appends those products: one _row_mul per new
        # product row, and the rows are _product_rows of the slots.  The
        # fallback space (_stable_subspace) runs once, on the fallback
        # forms, and builds its matrix from the rows with no _row_mul
        runs = [
            (1, golden_forms, "common-factor-m1.json"),
            (2, golden_forms, "common-factor-m2.json"),
            (2, fallback_forms, "common-factor-fallback-m2.json"),
        ]
        made, completions, fallbacks = [0], [], []
        real_mul, real_complete = bilinear._row_mul, bilinear._complete
        real_stable = bilinear._stable_subspace

        def counted_mul(ctx, r1, r2):
            made[0] += 1
            return real_mul(ctx, r1, r2)

        def uncounted_stable(u_rows, W):
            before = made[0]
            try:
                return real_stable(u_rows, W)
            finally:
                fallbacks.append(made[0] - before)
                made[0] = before

        def recorded(slots, form, rows):
            before = made[0]
            done = real_complete(slots, form, rows)
            completions.append((len(slots), done, made[0] - before))
            return done

        monkeypatch.setattr(bilinear, "_row_mul", counted_mul)
        monkeypatch.setattr(bilinear, "_stable_subspace", uncounted_stable)
        monkeypatch.setattr(bilinear, "_complete", recorded)
        for m, forms, name in runs:
            golden = json.loads((GOLDEN / name).read_text())
            assert common_factor(m, forms()).to_json() == golden["evidence"]["witness"]
        monkeypatch.undo()
        assert fallbacks == [0]
        # one completion per distinct pure space and round; the set keys
        # each space on its canonical rows
        assert len(completions) == sum(
            m * len({f.pure_value_space() for f in forms()}) for m, forms, _ in runs
        )
        for head, (slots, rows), count in completions:
            want = _product_rows(slots[0].ctx, slots)
            assert len(rows) == len(want) and all(r == w for r, w in zip(rows, want))
            assert count == len(rows) - 2**head > 0

    def test_builds_no_products(self, monkeypatch):
        # corpus 20260814's instance 19, whose run reaches the exact
        # fallback: candidates are tested on rows, products are built as
        # rows, and only accepted slots become field elements
        forms = fallback_forms()
        want = common_factor(2, forms).to_json()
        forms = fallback_forms()
        fallbacks = []
        real = bilinear._stable_subspace

        def refuse(self, other):
            raise AssertionError("a field-element product was built")

        def counted(u_rows, W):
            fallbacks.append(1)
            return real(u_rows, W)

        monkeypatch.setattr(FieldElement, "__mul__", refuse)
        monkeypatch.setattr(FieldElement, "__rmul__", refuse)
        monkeypatch.setattr(bilinear, "_stable_subspace", counted)
        witness = common_factor(2, forms)
        monkeypatch.undo()
        assert fallbacks == [1]
        assert witness.to_json() == want

    def test_m_bounds(self, ctx2, b0):
        with pytest.raises(ValueError):
            common_factor(0, [b0])
        with pytest.raises(ValueError):
            common_factor(2, [b0])

    def test_isotropic_rejected(self, ctx2):
        a1, _ = ctx2.gens
        with pytest.raises(IsotropicInput):
            common_factor(1, [BilinearPfister(ctx2, (a1, a1))])

    def test_family_validated_like_common_slot_space(self, ctx2, ctx3, b0):
        a1, a2 = ctx2.gens
        with pytest.raises(EmptyInput):
            common_factor(1, [])
        with pytest.raises(ContextMismatch):
            common_factor(1, [b0, BilinearPfister(ctx3, ctx3.gens[:2])])
        with pytest.raises(ValueError, match="equal fold"):
            common_factor(1, [b0, BilinearPfister(ctx2, (a2,))])
        # anisotropy is checked for the whole family before the folds
        isotropic = BilinearPfister(ctx2, (a1, a1))
        with pytest.raises(IsotropicInput):
            common_factor(1, [b0, BilinearPfister(ctx2, (a1,)), isotropic])

    def test_witness_json(self, ctx2):
        family = build_no_common_slot_family(2)
        witness = common_factor(1, family[:3])
        data = witness.to_json()
        assert set(data) == {"rho", "complements", "check_log"}


def groups_by_equality(forms):
    """Reference for bilinear._groups: the grouping common_factor made
    before, by exact equality of pure spaces (``SqSubspace.__eq__``), with
    every form spanned and checked anisotropic on its own."""
    pures = []
    for f in forms:
        if not f.is_anisotropic():
            raise IsotropicInput(f"form {f!r} is isotropic")
        pures.append(f.pure_value_space())
    reps, group = [], []
    for i, pure in enumerate(pures):
        g = next((g for g, r in enumerate(reps) if pures[r] == pure), len(reps))
        if g == len(reps):
            reps.append(i)
        group.append(g)
    return reps, group


def witness_text(m, forms):
    witness = common_factor(m, forms)
    return None if witness is None else json.dumps(witness.to_json())


# the sharing corpus's slot pool, each entry by its monomials
SHARING_POOL = _workloads().POOL


@functools.lru_cache(maxsize=None)
def anisotropic_pool_triples():
    """Index triples into the sharing pool whose 3-fold forms are
    anisotropic, as the sharing corpus draws them."""
    ctx = FieldContext(3)
    elements = [ctx.element(terms) for terms in SHARING_POOL]
    return tuple(
        idx
        for idx in itertools.combinations(range(len(SHARING_POOL)), 3)
        if BilinearPfister(ctx, [elements[i] for i in idx]).is_anisotropic()
    )


@st.composite
def isometric_families(draw):
    """A recipe for a family of anisotropic 3-fold forms over CTX3: a few
    base forms from the sharing pool, and members that are a base form
    again, its slots permuted, or an isometric form with another slot
    list, slot i times slot j (<<a, b>> = <<a, ab>>) or times a square.
    Returns (m, recipe) with the recipe's slots as pool indices and
    rewrites, so that every call builds fresh forms."""
    bases = draw(st.lists(st.sampled_from(anisotropic_pool_triples()), min_size=1, max_size=3))
    members = []
    for _ in range(draw(st.integers(1, 6))):
        order = draw(st.permutations(draw(st.sampled_from(bases))))
        rewrites = draw(
            st.lists(
                st.tuples(st.permutations(range(3)), st.sampled_from([None, 0, 1, 2, 6])),
                max_size=2,
            )
        )
        members.append((tuple(order), [(p[0], p[1], sq) for p, sq in rewrites]))
    return draw(st.sampled_from([1, 2])), members


def recipe_forms(members):
    """Fresh forms of an ``isometric_families`` recipe: a rewrite (i, j,
    None) multiplies slot i by slot j, and (i, j, k) multiplies it by the
    square of pool element k."""
    ctx = FieldContext(3)
    pool = [ctx.element(terms) for terms in SHARING_POOL]
    forms = []
    for order, rewrites in members:
        slots = [pool[k] for k in order]
        for i, j, square in rewrites:
            slots[i] = slots[i] * (slots[j] if square is None else pool[square] * pool[square])
        forms.append(BilinearPfister(ctx, slots))
    return forms


class TestGrouping:
    """The grouping of common_factor, by the annihilator tests of the
    anisotropy lemma against the representatives' pure spaces, against
    the equality grouping it replaced: the same groups, the same witness byte for byte, and no
    form spanned but the representatives."""

    def check(self, m, make_forms):
        want = groups_by_equality(make_forms())
        forms = make_forms()
        spans = []
        real = SqSubspace.from_poly_rows
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                SqSubspace,
                "from_poly_rows",
                classmethod(lambda cls, *args: spans.append(1) or real(*args)),
            )
            got = bilinear._groups(forms)
        assert got == want
        reps = got[0]
        spanned = [i in reps for i in range(len(forms))]
        # one span per representative, and none for a form that joins
        assert len(spans) == len(reps)
        assert [f._pure is not None for f in forms] == spanned
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bilinear, "_groups", groups_by_equality)
            reference = witness_text(m, make_forms())
        forms = make_forms()
        assert witness_text(m, forms) == reference
        # the rounds span no pure space of a form that joined a group
        assert [f._pure is not None for f in forms] == spanned

    @pytest.mark.parametrize("corpus_seed", [20260814, 20261017])
    def test_sharing_corpora(self, corpus_seed):
        corpus = _workloads().SharingWorkload(pflab, 1, corpus_seed).corpus
        assert len(corpus) == 60

        def fresh(triples):
            ctx = FieldContext(3)
            pool = [ctx.element(terms) for terms in SHARING_POOL]
            return lambda: [BilinearPfister(ctx, [pool[i] for i in t]) for t in triples]

        for m, triples in corpus:
            self.check(m, fresh(triples))

    def test_golden_isometric_forms(self):
        # three distinct pure spaces among nine forms, and two of them with
        # the same pivots
        assert bilinear._groups(isometric_forms()) == ([0, 4, 8], [0, 0, 0, 0, 1, 1, 1, 0, 2])
        for m in (1, 2):
            self.check(m, isometric_forms)

    @given(family=isometric_families())
    def test_isometric_families(self, family):
        m, members = family
        self.check(m, lambda: recipe_forms(members))

    def test_isotropic_form_after_isometric_pair(self, ctx2):
        # the isotropic <<a1, a1>> has the fold of the pair's group, but its
        # product a1^2, a square, lies outside the pair's pure space: it
        # joins no group, is spanned and refused by name
        a1, a2 = ctx2.gens
        isotropic = BilinearPfister(ctx2, (a1, a1))

        def family():
            return [BilinearPfister(ctx2, (a1, a2)), BilinearPfister(ctx2, (a2, a1)), isotropic]

        for m in (1, 5):
            with pytest.raises(IsotropicInput, match=r"^form <<a1, a1>>_b is isotropic$"):
                common_factor(m, family())
        # unequal folds and a bad m come after the isotropic form
        with pytest.raises(IsotropicInput, match="<<a1, a1>>_b"):
            common_factor(5, family() + [BilinearPfister(ctx2, (a1,))])
        # and the first isotropic form in input order is the one named
        twisted = BilinearPfister(ctx2, (a2, a2))
        with pytest.raises(IsotropicInput, match="<<a2, a2>>_b"):
            common_factor(1, family()[:2] + [twisted, isotropic])

    def test_other_fold_is_not_tried(self, ctx2, monkeypatch):
        # a form is tested only against representatives of its own fold;
        # one of another fold starts a group, and the folds are refused
        # after every form is grouped
        a1, a2 = ctx2.gens
        tried = []
        real = SqSubspace._annihilates
        monkeypatch.setattr(
            SqSubspace, "_annihilates", lambda W, row: tried.append(W) or real(W, row)
        )
        forms = [BilinearPfister(ctx2, (a1, a2)), BilinearPfister(ctx2, (a1 * a2,))]
        assert bilinear._groups(forms) == ([0, 1], [0, 1])
        assert tried == []
        with pytest.raises(ValueError, match="equal fold"):
            common_factor(1, forms)


class TestNextSlot:
    def test_partial_basis_converted_once(self, ctx3, monkeypatch):
        # 29 candidates are tried here, and the last one comes from the
        # exact fallback space
        a1, a2, a3 = ctx3.gens
        form = BilinearPfister(ctx3, (ctx3.one + a1 * a2, a1, a1 * a2 + a3))
        U = SqSubspace.span(ctx3, [ctx3.one, ctx3.one + a3 + a1 * a3])
        W = form.pure_value_space()
        calls = {"elements": 0, "_admissible": 0, "_stable_subspace": 0}

        def counted(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            return wrapper

        monkeypatch.setattr(SqSubspace, "elements", counted("elements", SqSubspace.elements))
        for name in ("_admissible", "_stable_subspace"):
            monkeypatch.setattr(bilinear, name, counted(name, getattr(bilinear, name)))
        found = bilinear._next_slot(W, [_poly_row(u) for u in U.elements()])
        assert found is not None and found[0] not in U
        assert calls["_admissible"] > 3 and calls["_stable_subspace"] == 1
        # at most one conversion each for U, W and the fallback space; the
        # row search itself converts none of them
        assert calls["elements"] <= 3

    def test_elements_cached(self, ctx3):
        W = BilinearPfister(ctx3, ctx3.gens).pure_value_space()
        assert W.elements() is W.elements()
        assert W.elements() == tuple(from_dense(ctx3, row) for row in W.rows)

    def test_any_basis_of_partial_space(self, ctx3):
        # the slot's products and the reduced basis span the same U, so the
        # search picks the same slot; this U needs the exact fallback
        a1, a2, a3 = ctx3.gens
        form = BilinearPfister(ctx3, (ctx3.one + a1 * a2, a1, a1 * a2 + a3))
        W = form.pure_value_space()
        slots = (ctx3.one + a3 + a1 * a3,)
        products = bilinear._products(ctx3, slots)
        U = SqSubspace.span(ctx3, products)
        assert products != list(U.elements())
        found = bilinear._next_slot(W, _product_rows(ctx3, slots))
        assert found is not None
        assert found[0] == bilinear._next_slot(W, [_poly_row(u) for u in U.elements()])[0]


def stable_subspace_by_residues(u_basis, W):
    """Reference for bilinear._stable_subspace: the left kernel of the
    2^n x (dim U * 2^n) matrix whose row g stacks the residues of
    a^g * u modulo W, for every u in u_basis."""
    ctx = W.ctx
    rows = []
    for g in ctx.patterns:
        mono = ctx.monomial(g)
        row = []
        for u in u_basis:
            row.extend(reduce_row(W, dense(mono * u)))
        rows.append(row)
    kernel = left_kernel_reference(ctx, rows)
    return SqSubspace.span(ctx, [from_dense(ctx, z) for z in kernel])


def stable_subspace_two_step(u_rows, W):
    """Reference for bilinear._stable_subspace: the two-step path it
    replaced, the left kernel of the matrix whose row g holds the dot
    products of a^g * u with W's annihilator rows, spanned again by
    ``from_poly_rows`` for the reduced basis."""
    ctx = W.ctx
    rows = []
    for g in range(len(ctx.patterns)):
        prods = [field._row_mul(ctx, {g: ctx._one_poly}, r) for r in u_rows]
        dots = (linalg._dot(prod, a) for prod in prods for a in W.annihilator)
        rows.append({k: p for k, p in enumerate(dots) if p.terms})
    return SqSubspace.from_poly_rows(ctx, linalg.left_kernel(ctx, rows))


def _subspaces(ctx, most):
    """Spans of 1..most polynomial generators.  Their reduced bases still
    carry fractions; with fraction generators some n=3 draws keep the
    reference's left kernel busy for minutes (see test_fraction_draw)."""
    gens = nonzero_polys(ctx, max_degree=2, max_terms=3).map(
        lambda p: FieldElement(ctx, p, ctx._one_poly)
    )
    return st.lists(gens, min_size=1, max_size=most).map(lambda g: SqSubspace.span(ctx, g))


def _targets(ctx, most):
    """Spans of _subspaces that miss 1, the precondition of
    bilinear._next_slot, which the pure space of an anisotropic form
    meets."""
    return _subspaces(ctx, most).filter(lambda W: not W.contains_one())


def admissible_by_elements(delta, U, u_basis, W):
    """Reference for bilinear._admissible: the element test, delta outside
    U and every product delta * u built as a field element and tested
    for membership in W."""
    if delta.is_zero:
        return False
    if delta in U:
        return False
    return all((delta * u) in W for u in u_basis)


def next_slot_by_elements(U, W, u_basis):
    """Reference for bilinear._next_slot: the same candidates in the same
    order, built as field elements.  The fallback space is
    bilinear._stable_subspace of the elements' rows, which TestStableSubspace
    checks against the residue-matrix reference; the reference itself
    takes minutes on some of these spaces."""
    basis = W.elements()
    for cand in basis:
        if admissible_by_elements(cand, U, u_basis, W):
            return cand.lowest_terms()
    for a, b in itertools.combinations(basis, 2):
        cand = a + b
        if admissible_by_elements(cand, U, u_basis, W):
            return cand.lowest_terms()
    for cand in bilinear._stable_subspace([_poly_row(u) for u in u_basis], W).elements():
        if admissible_by_elements(cand, U, u_basis, W):
            return cand.lowest_terms()
    return None


class TestRowSearch:
    """The row search of bilinear._next_slot against the element search,
    and the one-row conversion it reads its slot off with."""

    @staticmethod
    def check(slots, W):
        ctx = W.ctx
        u_basis = bilinear._products(ctx, slots)
        U = SqSubspace.span(ctx, u_basis)
        found = bilinear._next_slot(W, _product_rows(ctx, slots))
        want = next_slot_by_elements(U, W, u_basis)
        if want is None:
            assert found is None
        else:
            # both in lowest terms, which are unique over GF(2)
            got = found[0]
            assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms)

    @given(st.lists(polynomial_slots(CTX2), min_size=1, max_size=2), _targets(CTX2, 3))
    def test_n2(self, slots, W):
        self.check(slots, W)

    @given(st.lists(polynomial_slots(CTX3), min_size=1, max_size=2), _targets(CTX3, 6))
    def test_n3(self, slots, W):
        self.check(slots, W)

    def test_fallback_instance(self, monkeypatch):
        # every search of corpus 20260814's instance 19, one of which takes
        # its slot from the fallback space; random targets rarely get there
        # cheaply, since the fallback space's canonical basis is costly
        forms = fallback_forms()
        searches = []
        fallbacks = []
        real_next, real_stable = bilinear._next_slot, bilinear._stable_subspace

        def recorded(W, u_rows):
            found = real_next(W, u_rows)
            # the search spans no U, so it is spanned here
            slot = None if found is None else found[0]
            searches.append((SqSubspace.from_poly_rows(W.ctx, u_rows), W, slot))
            return found

        def counted(u_rows, W):
            fallbacks.append(len(searches))
            return real_stable(u_rows, W)

        monkeypatch.setattr(bilinear, "_next_slot", recorded)
        monkeypatch.setattr(bilinear, "_stable_subspace", counted)
        assert common_factor(2, forms) is not None
        monkeypatch.undo()
        assert len(fallbacks) == 1 and searches[fallbacks[0]][2] is not None
        for U, W, slot in searches:
            want = next_slot_by_elements(U, W, U.elements())
            assert (slot.num.terms, slot.den.terms) == (want.num.terms, want.den.terms)

    @given(_subspaces(CTX3, 6))
    def test_row_conversion(self, W):
        ctx = W.ctx
        rows = [linalg._sparse(polys) for polys in W._eliminated]
        for i, row in enumerate(rows):
            got = _row_element(ctx, row, W._last)
            assert got == W.elements()[i] == from_dense(ctx, W.rows[i])
        for (i, a), (j, b) in itertools.combinations(enumerate(W._eliminated), 2):
            pair = linalg._sparse([x + y for x, y in zip(a, b)])
            assert _row_element(ctx, pair, W._last) == W.elements()[i] + W.elements()[j]


class TestAdmissible:
    """Every verdict of bilinear._admissible in a _next_slot search against
    admissible_by_elements, which always tests delta outside U.  Every
    target W misses 1, the search's precondition, so U is never spanned,
    and delta * U inside W alone puts delta outside U.  Each candidate is
    read off its row with scale 1, its element times a square, which
    changes neither verdict."""

    @staticmethod
    def check(slots, W):
        ctx = W.ctx
        u_basis = bilinear._products(ctx, slots)
        U = SqSubspace.span(ctx, u_basis)
        verdicts, spans = [], []
        real_admissible, real_span = bilinear._admissible, SqSubspace.from_poly_rows

        def recorded(row, *args):
            verdict = real_admissible(row, *args)
            verdicts.append((row, verdict))
            return verdict

        def counted(cls, *args):
            spans.append(1)
            return real_span(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bilinear, "_admissible", recorded)
            mp.setattr(SqSubspace, "from_poly_rows", classmethod(counted))
            bilinear._next_slot(W, _product_rows(ctx, slots))
        assert verdicts
        assert spans == []
        for row, verdict in verdicts:
            delta = _row_element(ctx, row, ctx._one_poly) if row else ctx.zero
            # an accepted candidate comes back as its slot and product rows
            assert (verdict is not None) == admissible_by_elements(delta, U, u_basis, W)

    @given(st.lists(polynomial_slots(CTX2), min_size=1, max_size=2), _targets(CTX2, 3))
    def test_any_target_n2(self, slots, W):
        self.check(slots, W)

    @given(st.lists(polynomial_slots(CTX3), min_size=1, max_size=2), _targets(CTX3, 5))
    def test_any_target_n3(self, slots, W):
        self.check(slots, W)

    @staticmethod
    def anisotropic(ctx):
        # multilinear slots: with degree-2 slots some draws take minutes,
        # in the gcd of an accepted slot's lowest terms
        n = ctx.n
        slots = nonzero_polys(ctx, max_degree=1, max_terms=2).map(
            lambda p: FieldElement(ctx, p, ctx._one_poly)
        )
        forms = st.lists(slots, min_size=n, max_size=n).map(
            lambda slots: BilinearPfister(ctx, slots)
        )
        return forms.filter(BilinearPfister.is_anisotropic)

    @given(anisotropic(CTX2))
    def test_pure_target_n2(self, form):
        self.check(form.slots[:1], form.pure_value_space())

    @given(anisotropic(CTX3), st.integers(1, 2))
    def test_pure_target_n3(self, form, k):
        self.check(form.slots[:k], form.pure_value_space())

    def test_head_slot_rejected_by_its_products(self, ctx3):
        # a1 lies in U = F^2(a1) and in W, and 1 does not lie in W: no
        # test "delta outside U" is made, and a1 * a1, a square, leaves W
        a1, a2, a3 = ctx3.gens
        W = BilinearPfister(ctx3, (a1, a2, a3)).pure_value_space()
        u_rows = _product_rows(ctx3, (a1,))
        assert a1 in W and a1 in SqSubspace.from_poly_rows(ctx3, u_rows)
        assert ctx3.one not in W
        row = _poly_row(a1)
        screen = bilinear._Screen(u_rows, W)
        one = ctx3._one_poly
        assert screen.rejects(row)
        assert not bilinear._admissible(row, one, screen, u_rows, W)
        # at a point where every value is 0 the exact test rejects it alone
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(field._Point, "value", lambda self, p: 0)
            zero = bilinear._Screen(u_rows, W)
            assert not zero.rejects(row)
            assert not bilinear._admissible(row, one, zero, u_rows, W)
        assert not W._annihilates(field._row_mul(ctx3, row, row))


class TestStableSubspace:
    """{delta : delta * U <= W} through W's annihilator rows against the
    residue-matrix reference, compared as canonical subspaces."""

    @staticmethod
    def check(U, W):
        u_basis = U.elements()
        u_rows = [_poly_row(u) for u in u_basis]
        got = bilinear._stable_subspace(u_rows, W)
        assert got == stable_subspace_by_residues(u_basis, W)
        assert_same_null_space(got, stable_subspace_two_step(u_rows, W))
        for delta in got.elements():
            assert all((delta * u) in W for u in u_basis)
        return got

    def test_next_slot_form(self, ctx3):
        a1, a2, a3 = ctx3.gens
        form = BilinearPfister(ctx3, (ctx3.one + a1 * a2, a1, a1 * a2 + a3))
        U = SqSubspace.span(ctx3, [ctx3.one, ctx3.one + a3 + a1 * a3])
        assert not self.check(U, form.pure_value_space()).is_zero

    def test_whole_space_target(self, ctx2):
        # W = F has no annihilator rows, so every delta is stable
        whole = SqSubspace.span(ctx2, [ctx2.monomial(d) for d in ctx2.patterns])
        assert whole.annihilator == ()
        assert self.check(SqSubspace.span(ctx2, [ctx2.gens[0]]), whole) == whole

    @given(_subspaces(CTX2, 2), _subspaces(CTX2, 3))
    def test_n2(self, U, W):
        self.check(U, W)

    @given(_subspaces(CTX3, 2), _subspaces(CTX3, 6))
    def test_n3(self, U, W):
        self.check(U, W)

    def test_fraction_draw(self):
        # a draw with fraction generators that kept the fraction-row left
        # kernel busy for minutes; the check multiplies rows, since the
        # products delta * u as field elements take far longer
        ctx = FieldContext(3)
        a1, a2, a3 = ctx.gens
        one = ctx.one
        u_gens = [a1, (a1 * a2 * a3 + a1 * a2) / (a2 * a3 + one)]
        w_gens = [
            (a1 + a2) / (a1 * a2 + a1),
            (a1 + a2 * a3) / (a1 * a2),
            (a1 * a3 + a1) / (a1 * a2 + a2 * a3),
            (a1 + a2) / (a1 * a3 + a2),
            (a1 * a2 * a3 + a3) / (a1 * a2 * a3 + a2),
            (a1 + a2 * a3) / (a1 * a3 + a2),
        ]
        W = SqSubspace.span(ctx, w_gens)
        U = SqSubspace.span(ctx, u_gens)
        got = bilinear._stable_subspace([_poly_row(u) for u in U.elements()], W)
        assert got.dim == 4
        # each eliminated basis row is delta's row up to a nonzero scale
        for row in got._eliminated:
            for u in u_gens:
                assert W._annihilates(field._row_mul(ctx, linalg._sparse(row), _poly_row(u)))


class TestFamily:
    def test_n2_exact(self, ctx2):
        a1, a2 = ctx2.gens
        family = build_no_common_slot_family(2)
        assert [f.slots for f in family] == [
            (a1, a2),
            (a2, ctx2.one + a1),
            (a1, ctx2.one + a2),
            (a2, ctx2.one + a1 * a2),
        ]

    def test_n2_anisotropic(self):
        assert all(f.is_anisotropic() for f in build_no_common_slot_family(2))

    def test_n3_pure_bases(self, ctx3):
        family = build_no_common_slot_family(3)
        assert len(family) == 8
        monomials = {
            e: ctx3.monomial(e)
            for e in itertools.product((0, 1), repeat=3)
        }
        for k in range(1, 8):
            d = tuple((k >> i) & 1 for i in range(3))
            claimed = [m for e, m in monomials.items() if any(e) and e != d]
            claimed.append(ctx3.one + monomials[d])
            assert family[k].pure_value_space() == SqSubspace.span(ctx3, claimed)

    def test_bad_rank(self):
        with pytest.raises(BadRank):
            build_no_common_slot_family(1)

    def test_leave_one_out_sharpness(self):
        family = build_no_common_slot_family(2)
        by_subfamily = [
            common_slot_space(family[:k] + family[k + 1 :]).dim for k in range(4)
        ]
        by_verify = verify_no_common_slot_family(2)["leave_one_out_dims"]
        for dims in (by_subfamily, by_verify):
            assert len(dims) == 4
            assert all(dim >= 1 for dim in dims)

    def test_verify_evidence_layout(self):
        evidence = verify_no_common_slot_family(3)
        assert list(evidence) == [
            "checks",
            "family_size",
            "common_slot_space_dim",
            "leave_one_out_dims",
        ]
        assert list(evidence["checks"]) == [
            "all_anisotropic",
            "claimed_pure_bases",
            "pairwise_intersections",
            "no_common_slot",
            "sharp_at_all_but_one",
        ]
        assert all(evidence["checks"].values())
        assert evidence["family_size"] == 8
        assert evidence["common_slot_space_dim"] == 0
        assert evidence["leave_one_out_dims"] == [1] * 8

    def test_members_certified_without_pure_spaces(self, monkeypatch):
        # each member's claim is proved on its product rows, by one
        # annihilator test each and the anisotropy lemma, so no member's
        # pure value space is ever spanned
        def refuse(self):
            raise AssertionError("pure_value_space called")

        monkeypatch.setattr(BilinearPfister, "pure_value_space", refuse)
        assert verify_no_common_slot_family(4) == GOLDEN_N4_EVIDENCE

    def test_member_check_builds_no_products(self, monkeypatch):
        # each member's product rows come from its slots' rows: no product
        # is built as a field element, and no space is spanned
        def refuse(self, other):
            raise AssertionError("a slot product was built as a field element")

        checked = []
        real = bilinear._member_spans_claim

        def guarded(form, ann):
            checked.append(ann)
            with monkeypatch.context() as m:
                m.setattr(FieldElement, "__mul__", refuse)
                m.setattr(FieldElement, "__rmul__", refuse)
                return real(form, ann)

        # one call each for member 0 and member 1 (R), on their annihilator
        # masks e_0 and e_0 + e_1; every other member is R transported
        anns = [1, 3]
        monkeypatch.setattr(bilinear, "_member_spans_claim", guarded)
        spans = count_spans(monkeypatch)
        assert verify_no_common_slot_family(4) == GOLDEN_N4_EVIDENCE
        assert checked == anns and spans == []

    def test_no_gf2_elimination(self):
        # the GF(2) side is read off the annihilator masks, and no module of
        # the package has a GF(2) rank routine left to call
        for info in pkgutil.iter_modules(pflab.__path__):
            if info.name == "__main__":
                continue
            module = importlib.import_module(f"pflab.{info.name}")
            assert not hasattr(module, "gf2_rank"), info.name
        assert verify_no_common_slot_family(4) == GOLDEN_N4_EVIDENCE

    @pytest.mark.parametrize("anns", [[1, 3, 3, 9], [1, 3, 5, 6], [0, 3, 5, 9]])
    def test_annihilators_need_distinct_leading_bits(self, anns):
        # a repeated mask, two masks with one leading bit, or the zero mask,
        # which has none, breaks the rule every rank rests on
        with pytest.raises(IdentityFailed, match="leading bits"):
            bilinear._gf2_family_evidence(anns)

    def test_claim_off_its_hyperplane_raises(self, monkeypatch):
        # member 5 replaced by member 3: its products span member 3's
        # hyperplane, which member 5's annihilator e_0 + e_5 does not cut
        # out, and its slots are not R's image under member 5's map
        real = bilinear.build_no_common_slot_family

        def with_member_off_its_hyperplane(n):
            family = real(n)
            family[5] = family[3]
            return family

        monkeypatch.setattr(
            bilinear, "build_no_common_slot_family", with_member_off_its_hyperplane
        )
        with pytest.raises(IdentityFailed, match=r"member 5\b"):
            verify_no_common_slot_family(3)

    def test_member_short_of_its_claim_raises(self, monkeypatch):
        # member 1, R = <<a2, a3, 1 + a1>>, without its slot 1 + a1: the
        # products a2, a3, a2*a3 lie in its hyperplane, which misses 1,
        # but span only 3 of its 7 dimensions; the slot count refuses it
        real = bilinear.build_no_common_slot_family

        def with_member_short(n):
            family = real(n)
            family[1] = BilinearPfister(family[0].ctx, family[1].slots[:-1])
            return family

        monkeypatch.setattr(bilinear, "build_no_common_slot_family", with_member_short)
        with pytest.raises(IdentityFailed, match="member 1's products"):
            verify_no_common_slot_family(3)

    def test_claim_holding_1_refused(self):
        # the zero mask cuts out the whole space, which holds 1: member 0's
        # products lie in it but span only a hyperplane, and bit 0 of the
        # mask refuses it
        member = build_no_common_slot_family(3)[0]
        assert bilinear._member_spans_claim(member, 1)
        assert not bilinear._member_spans_claim(member, 0)

    def test_isotropic_member_raises(self, monkeypatch):
        # all_anisotropic never reads false: an isotropic member's products
        # miss its claim, which stops the certificate before any evidence
        # is returned
        real = bilinear.build_no_common_slot_family

        def with_isotropic_member(n):
            family = real(n)
            a1 = family[0].ctx.gens[0]
            family[-1] = BilinearPfister(family[0].ctx, (a1,) * n)
            return family

        monkeypatch.setattr(bilinear, "build_no_common_slot_family", with_isotropic_member)
        with pytest.raises(IdentityFailed):
            verify_no_common_slot_family(3)


def common_slots_by_intersection(family, indices):
    """The --subset evidence from ``common_slot_space``, the general
    intersection of the chosen members' spanned pure spaces: the
    reference for ``bilinear._subset_evidence``."""
    space = common_slot_space([family[i] for i in indices])
    return {
        "forms": [str(i) + ": " + repr(family[i]) for i in indices],
        "common_slot_space_dim": space.dim,
        "common_slots": [str(e) for e in space.elements()],
    }


class TestSubsetEvidence:
    """``--subset`` reads the common slot space of the chosen members off
    the masks that ``_proved_family`` proves, in closed form."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_subset_agrees_with_intersection(self, n):
        family = build_no_common_slot_family(n)
        members = range(2**n)
        for size in range(1, 2**n + 1):
            for indices in itertools.combinations(members, size):
                expected = common_slots_by_intersection(family, indices)
                assert bilinear._subset_evidence(n, list(indices)) == expected, indices

    @pytest.mark.parametrize("n, draws", [(4, 60), (5, 15)])
    def test_random_subsets_agree_with_intersection(self, n, draws):
        # drawn with replacement, so indices repeat and come in any order;
        # both with and without member 0
        rng = random.Random(20 + n)
        family = build_no_common_slot_family(n)
        subsets = [
            [rng.randrange(2**n) for _ in range(rng.randint(1, 2**n + 4))] for _ in range(draws)
        ]
        assert any(len(set(s)) < len(s) for s in subsets)
        assert any(0 in s for s in subsets) and any(0 not in s for s in subsets)
        for indices in subsets:
            evidence = bilinear._subset_evidence(n, indices)
            assert evidence == common_slots_by_intersection(family, indices), indices
            assert evidence["common_slot_space_dim"] == 2**n - len(set(indices))

    def test_builds_no_span(self, monkeypatch):
        # the members are proved as --verify proves them, two spanned by
        # annihilator tests alone, so no pure space is spanned
        spans = count_spans(monkeypatch)
        evidence = bilinear._subset_evidence(6, list(range(64)))
        assert evidence["common_slot_space_dim"] == 0 and evidence["common_slots"] == []
        assert spans == []

    def test_member_outside_subset_is_proved(self, monkeypatch):
        # member 5 replaced by member 3 fails its transport even when the
        # subset names neither: every member is proved, as by --verify
        real = bilinear.build_no_common_slot_family

        def with_member_off_its_hyperplane(n):
            family = real(n)
            family[5] = family[3]
            return family

        monkeypatch.setattr(
            bilinear, "build_no_common_slot_family", with_member_off_its_hyperplane
        )
        with pytest.raises(IdentityFailed, match=r"member 5\b"):
            bilinear._subset_evidence(3, [0, 1])

    def test_dimension_rests_on_leading_bit_rule(self, monkeypatch):
        # masks that break the leading-bit rule of _gf2_family_evidence
        # stop the subset before any basis is read off them
        real = bilinear._proved_family

        def with_repeated_mask(n):
            family, anns = real(n)
            return family, anns[:-1] + anns[-2:-1]

        monkeypatch.setattr(bilinear, "_proved_family", with_repeated_mask)
        with pytest.raises(IdentityFailed, match="leading bits"):
            bilinear._subset_evidence(3, [0, 1])


def substituted(elem, cols):
    """elem under the ring map a_j -> a^cols[j], by field arithmetic: each
    term a^t goes to the product of the generators' images to the t_j."""
    ctx = elem.ctx
    images = [ctx.monomial(col) for col in cols]

    def mapped(poly):
        acc = ctx.zero
        for t in poly.terms:
            term = ctx.one
            for image, e in zip(images, t):
                term = term * image**e
            acc = acc + term
        return acc

    return mapped(elem.num) / mapped(elem.den)


def leibniz_det(rows):
    """The determinant as the signed sum over all permutations."""
    size = len(rows)
    total = 0
    for perm in itertools.permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def dense_columns(n, moved):
    """All n columns of the matrix that ``_monomial_map`` gives by its
    moved columns: the given column for each key j, e_j for every other j."""
    unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    return [tuple(moved[j]) if j in moved else unit[j] for j in range(n)]


def int_det_dense(rows):
    """The exact determinant of a square integer matrix, by Bareiss's
    fraction-free elimination over all of it: the reference for
    ``bilinear._int_det``, which eliminates only the moved minor."""
    m = [list(r) for r in rows]
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


def transported_dense(cols, slots):
    """The stored (num.terms, den.terms) pairs of the slots' images under
    a^t -> a^(M t), M given by all its columns and applied to every term
    as a dense product: the reference for ``bilinear._transported``."""

    def image(t):
        out = [0] * len(t)
        for j, e in enumerate(t):
            if e:
                for i, c in enumerate(cols[j]):
                    out[i] += e * c
        return tuple(out)

    return {
        (frozenset(map(image, s.num.terms)), frozenset(map(image, s.den.terms))) for s in slots
    }


def fraction_slots(ctx):
    """Slots at n=3 with several terms in num and den."""
    a1, a2, a3 = ctx.gens
    one = ctx.one
    return [(a1 + a2 * a3) / (one + a1**2 * a3), a2**3 / (a1 + a3), one + a1 * a2 * a3**2]


class TestFamilyTransport:
    """Members 2..2^n - 1 are certified as images of member 1 under
    unimodular monomial maps, against the per-member F-level check and
    field-arithmetic substitution."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_every_member_spans_its_claim(self, n):
        # the per-member certificate the transport replaced: each member's
        # products span the hyperplane annihilated by e_0 + e_k
        for k, form in enumerate(build_no_common_slot_family(n)):
            assert bilinear._member_spans_claim(form, 1 | 1 << k), k

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_two_members_spanned(self, monkeypatch, n):
        checked = []
        real = bilinear._member_spans_claim

        def counted(form, ann):
            checked.append(ann)
            return real(form, ann)

        monkeypatch.setattr(bilinear, "_member_spans_claim", counted)
        evidence = verify_no_common_slot_family(n)
        assert checked == [1, 3]
        assert evidence["family_size"] == 2**n

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_maps_agree_with_substitution(self, n):
        # member k's slots, as field elements, are member 1's slots under
        # a_j -> a^(M e_j), and _transported's stored pairs are those images
        family = build_no_common_slot_family(n)
        ctx = family[0].ctx
        for k, (d, lead) in enumerate(bilinear._twists(ctx)[1:], 2):
            moved = bilinear._monomial_map(ctx, d, lead)
            cols = dense_columns(n, moved)
            by_field = {substituted(s, cols) for s in family[1].slots}
            assert by_field == set(family[k].slots)
            transported = {
                FieldElement(ctx, Poly(num, n), Poly(den, n))
                for num, den in bilinear._transported(moved, family[1].slots)
            }
            assert transported == by_field

    def test_transport_of_fractions(self):
        # on slots with several terms in num and den the term-by-term map
        # is the field's substitution, for every member's map at n=3
        ctx = CTX3
        slots = fraction_slots(ctx)
        for d, lead in bilinear._twists(ctx):
            moved = bilinear._monomial_map(ctx, d, lead)
            transported = {
                FieldElement(ctx, Poly(num, 3), Poly(den, 3))
                for num, den in bilinear._transported(moved, slots)
            }
            assert transported == {substituted(s, dense_columns(3, moved)) for s in slots}

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_maps_unimodular(self, n):
        # det M = +-1, M e_1 = d over the integers, and M mod 2 permutes
        # the 2-basis patterns
        ctx = FieldContext(n)
        for d, lead in bilinear._twists(ctx):
            moved = bilinear._monomial_map(ctx, d, lead)
            cols = dense_columns(n, moved)
            assert bilinear._int_det(moved) in (1, -1)
            assert cols[0] == d
            mod2 = {
                tuple(sum(e * col[i] for e, col in zip(p, cols)) % 2 for i in range(n))
                for p in ctx.patterns
            }
            assert len(mod2) == 2**n

    def test_int_det_against_leibniz(self):
        # a dense matrix is the map that moves every column; _int_det reads
        # the columns as rows, and the transpose has the same determinant
        rng = random.Random(20261020)
        for size in range(1, 6):
            for _ in range(40):
                entries = (-3, -1, 0, 0, 0, 1, 2)
                rows = [[rng.choice(entries) for _ in range(size)] for _ in range(size)]
                assert bilinear._int_det(dict(enumerate(rows))) == leibniz_det(rows), rows
                assert int_det_dense(rows) == leibniz_det(rows), rows
        # a zero first pivot, a singular matrix and a pivot other than +-1
        for rows in ([[0, 1], [1, 0]], [[1, 2], [2, 4]], [[2, 1, 0], [1, 1, 0], [0, 0, 3]]):
            assert bilinear._int_det(dict(enumerate(rows))) == leibniz_det(rows)
            assert int_det_dense(rows) == leibniz_det(rows)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_member_maps_agree_with_dense(self, n):
        # every member's map, by its moved columns, against the dense
        # determinant and the dense image of every term of R's slots
        ctx = FieldContext(n)
        slots = build_no_common_slot_family(n)[1].slots
        for d, lead in bilinear._twists(ctx):
            moved = bilinear._monomial_map(ctx, d, lead)
            assert len(moved) == (1 if lead == 0 else 2)
            cols = dense_columns(n, moved)
            assert bilinear._int_det(moved) == int_det_dense(cols)
            assert bilinear._transported(moved, slots) == transported_dense(cols, slots)

    def test_random_maps_agree_with_dense(self):
        # maps that are the identity outside a random set of columns, with
        # entries from -2..2, on the fraction slots at n=3 and on R's slots
        # at n=5; the determinants 0, +-1 and +-2 all occur
        rng = random.Random(20261021)
        dets = set()
        for n, slots in ((3, fraction_slots(CTX3)), (5, build_no_common_slot_family(5)[1].slots)):
            for _ in range(300):
                keys = rng.sample(range(n), rng.randint(1, n))
                moved = {j: tuple(rng.choice((-2, -1, 0, 1, 2)) for _ in range(n)) for j in keys}
                cols = dense_columns(n, moved)
                det = bilinear._int_det(moved)
                assert det == int_det_dense(cols) == leibniz_det(cols), moved
                dets.add(det)
                assert bilinear._transported(moved, slots) == transported_dense(cols, slots)
        assert {0, 1, -1, 2, -2} <= dets

    def test_fraction_slots_agree_with_dense(self):
        ctx = CTX3
        slots = fraction_slots(ctx)
        for d, lead in bilinear._twists(ctx):
            moved = bilinear._monomial_map(ctx, d, lead)
            cols = dense_columns(3, moved)
            assert bilinear._transported(moved, slots) == transported_dense(cols, slots)

    def test_unmoved_terms_keep_their_set(self):
        # R = <<a2, a3, 1 + a1>> under member 2's map, which moves columns
        # 1 and 2: a3 and every denominator are their own images, kept as
        # the same frozenset objects
        ctx = CTX3
        slots = build_no_common_slot_family(3)[1].slots
        d, lead = bilinear._twists(ctx)[1]
        moved = bilinear._monomial_map(ctx, d, lead)
        assert sorted(moved) == [0, 1]
        images = bilinear._transported(moved, slots)
        kept = {id(s.num.terms) for s in slots if not any(t[0] or t[1] for t in s.num.terms)}
        assert kept and kept <= {id(num) for num, _ in images}
        dens = {id(den) for _, den in images}
        assert dens <= {id(s.den.terms) for s in slots}

    def test_twist_off_by_a_square_raises(self, monkeypatch):
        # member 6 (d = a2*a3, lead a2) with the twist 1 + a1^2*a2*a3: the
        # same 2-basis pattern mod 2, but its claim is y_0 = a1 * y_d, not
        # y_0 = y_d, so its products miss member 6's hyperplane and the
        # transport refuses it
        real = bilinear.build_no_common_slot_family

        def with_twist_off(n):
            family = real(n)
            ctx = family[0].ctx
            slots = family[6].slots[:-1] + (ctx.one + ctx.monomial((2, 1, 1)),)
            family[6] = BilinearPfister(ctx, slots)
            return family

        monkeypatch.setattr(bilinear, "build_no_common_slot_family", with_twist_off)
        assert not bilinear._member_spans_claim(with_twist_off(3)[6], 1 | 1 << 6)
        with pytest.raises(IdentityFailed, match="member 6 is not the image of member 1"):
            verify_no_common_slot_family(3)

    def test_member_with_a_repeated_slot_raises(self, monkeypatch):
        # member 6 with its first slot repeated: the same set of slots as
        # R's image, but an isotropic (n + 1)-fold form
        real = bilinear.build_no_common_slot_family

        def with_slot_repeated(n):
            family = real(n)
            family[6] = BilinearPfister(family[0].ctx, family[6].slots + family[6].slots[:1])
            return family

        monkeypatch.setattr(bilinear, "build_no_common_slot_family", with_slot_repeated)
        assert not with_slot_repeated(3)[6].is_anisotropic()
        with pytest.raises(IdentityFailed, match="member 6 is not the image of member 1"):
            verify_no_common_slot_family(3)

    def test_broken_representative_raises(self, monkeypatch):
        # member 1, R, with the twist 1 + a1^3: the pattern of 1 + a1 mod 2,
        # but not its claim; R is spanned before anything is transported
        real = bilinear.build_no_common_slot_family

        def with_r_broken(n):
            family = real(n)
            ctx = family[0].ctx
            slots = family[1].slots[:-1] + (ctx.one + ctx.monomial((3, 0, 0)),)
            family[1] = BilinearPfister(ctx, slots)
            return family

        monkeypatch.setattr(bilinear, "build_no_common_slot_family", with_r_broken)
        with pytest.raises(IdentityFailed, match="member 1's products"):
            verify_no_common_slot_family(3)

    def test_map_of_determinant_two_raises(self, monkeypatch):
        # member 6's map with its last column doubled: det 2 in absolute
        # value, so not an automorphism of F, and the member is refused
        real = bilinear._monomial_map
        # _twists lists members 1 .. 2^n - 1
        d6, lead6 = bilinear._twists(CTX3)[5]

        def doubled(ctx, d, lead):
            moved = real(ctx, d, lead)
            if (d, lead) == (d6, lead6):
                # a third moved column, 2 e_n
                cols = dense_columns(ctx.n, moved)
                moved[ctx.n - 1] = tuple(2 * c for c in cols[-1])
            return moved

        monkeypatch.setattr(bilinear, "_monomial_map", doubled)
        with pytest.raises(IdentityFailed, match=r"member 6's monomial map has determinant -?2\b"):
            verify_no_common_slot_family(3)


class TestFamilyDescent:
    """The evidence that verify_no_common_slot_family reads off the
    annihilator masks against the same facts computed by F-level pure
    spaces and intersections."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_agrees_with_f_path(self, n):
        evidence = verify_no_common_slot_family(n)
        family = build_no_common_slot_family(n)
        ctx = family[0].ctx
        # the same report from F-level spaces: the pure spaces against the
        # claims, the dims from common_slot_space of the family and of each
        # subfamily without one member, and each pairwise meet from an
        # intersection
        full = common_slot_space(family)
        left_out = [common_slot_space(family[:k] + family[k + 1 :]) for k in range(2**n)]
        claims = [SqSubspace.span(ctx, claimed_pure_generators(ctx, k)) for k in range(2**n)]
        base = family[0].pure_value_space()
        f_path = {
            "checks": {
                "all_anisotropic": all(f.is_anisotropic() for f in family),
                "claimed_pure_bases": all(
                    f.pure_value_space() == claim for f, claim in zip(family, claims)
                ),
                "pairwise_intersections": all(
                    base.intersection(pure) == SqSubspace.span(ctx, others)
                    for _, _, pure, others, _ in _family_claims(n)
                ),
                "no_common_slot": full.is_zero,
                "sharp_at_all_but_one": not any(s.is_zero for s in left_out),
            },
            "family_size": len(family),
            "common_slot_space_dim": full.dim,
            "leave_one_out_dims": [s.dim for s in left_out],
        }
        assert f_path == evidence

    def test_member_off_its_claim(self, monkeypatch, capsys):
        # a member whose products miss its claim stops the certificate: no
        # report is built from it
        real = bilinear.build_no_common_slot_family

        def with_member_off_claim(n):
            # member 7 replaced by an anisotropic copy of member 0
            family = real(n)
            family[-1] = BilinearPfister(family[0].ctx, family[0].ctx.gens)
            return family

        monkeypatch.setattr(bilinear, "build_no_common_slot_family", with_member_off_claim)
        with pytest.raises(IdentityFailed, match="member 7"):
            verify_no_common_slot_family(3)
        assert main(["bilinear-family", "--n", "3", "--verify"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "ERROR"
        assert report["evidence"]["error_type"] == "IdentityFailed"


def claimed_pure_generators(ctx, k):
    """The claimed pure basis of member k (bit vector d = ctx.patterns[k])
    of build_no_common_slot_family as field elements, the nontrivial
    monomials other than a^d, then 1 + a^d; member 0 has all nontrivial
    monomials."""
    d = ctx.patterns[k]
    gens = [ctx.monomial(e) for e in ctx.patterns[1:] if e != d]
    if k:
        gens.append(ctx.one + ctx.monomial(d))
    return gens


def _family_claims(n):
    """(ctx, P_0, P_k, others, a^d) for member k (bit vector d) of the
    no-common-slot family, where the span of others, the nontrivial
    monomials other than a^d, is P_0 & P_k."""
    family = build_no_common_slot_family(n)
    ctx = family[0].ctx
    base = family[0].pure_value_space()
    for k in range(1, 2**n):
        d = tuple((k >> i) & 1 for i in range(n))
        others = [
            ctx.monomial(e) for e in itertools.product((0, 1), repeat=n) if any(e) and e != d
        ]
        yield ctx, base, family[k].pure_value_space(), others, ctx.monomial(d)


class TestPairwiseCheck:
    """Each claimed pairwise meet against a kernel intersection: the claim
    holds, and a claim one monomial short or over does not."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_agrees_with_intersection(self, n):
        for k, (ctx, base, pure, others, excluded) in enumerate(_family_claims(n)):
            meet = base.intersection(pure)
            claims = {
                "exact": others,
                "one dropped": others[:k % len(others)] + others[k % len(others) + 1 :],
                "one added": others + [excluded],
            }
            for name, gens in claims.items():
                claimed = SqSubspace.span(ctx, gens)
                assert (meet == claimed) == (name == "exact")


def _sharing_family(ctx3):
    """Five anisotropic forms from the criterion-2 pool, all with slot a1;
    their common slot space has dimension 6, one leave-one-out space 7."""
    a1, a2, a3 = ctx3.gens
    pool = [a2, a3, a1 * a2, a1 * a3, a2 * a3, ctx3.one + a1, ctx3.one + a2 * a3]
    pairs = itertools.combinations(pool, 2)
    forms = [BilinearPfister(ctx3, (a1,) + pair) for pair in pairs]
    return [f for f in forms if f.is_anisotropic()][:5]


class TestLeaveOneOutSpaces:
    """common_slot_space of a family and of each subfamily without one
    member, compared as canonical subspaces, not only by dimension."""

    def leave_one_out(self, family):
        return [common_slot_space(family[:k] + family[k + 1 :]) for k in range(len(family))]

    @pytest.mark.parametrize("n", [2, 3])
    def test_no_common_slot_family(self, n):
        family = build_no_common_slot_family(n)
        assert common_slot_space(family).is_zero
        left_out = self.leave_one_out(family)
        assert all(space.dim == 1 for space in left_out)
        # without member 0 every coordinate equals coordinate 0: the space
        # is spanned by the all-ones row, the sum of 1 and every monomial
        ctx = family[0].ctx
        ones = sum((ctx.monomial(e) for e in ctx.patterns), ctx.zero)
        assert left_out[0] == SqSubspace.span(ctx, [ones])

    def test_sharing_family(self, ctx3):
        family = _sharing_family(ctx3)
        full = common_slot_space(family)
        assert ctx3.gens[0] in full
        assert full.dim == 6
        left_out = self.leave_one_out(family)
        assert sorted(space.dim for space in left_out) == [6, 6, 6, 6, 7]

    def test_two_forms(self):
        # leaving one of two forms out leaves the other's pure space
        family = build_no_common_slot_family(2)[:2]
        assert self.leave_one_out(family) == [
            family[1].pure_value_space(),
            family[0].pure_value_space(),
        ]

    def test_isotropic_member_rejected(self, ctx2):
        a1, _ = ctx2.gens
        family = build_no_common_slot_family(2) + [BilinearPfister(ctx2, (a1, a1))]
        for k in range(len(family) - 1):
            with pytest.raises(IsotropicInput):
                common_slot_space(family[:k] + family[k + 1 :])

    def test_context_mismatch(self, ctx2, ctx3, b0):
        family = [b0, b0, BilinearPfister(ctx3, ctx3.gens[:2])]
        for k in range(2):
            with pytest.raises(ContextMismatch):
                common_slot_space(family[:k] + family[k + 1 :])
