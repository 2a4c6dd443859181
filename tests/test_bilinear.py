"""Bilinear Pfister forms: value spaces, slots, isometry, factor extraction."""

import itertools
import json
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
    PreconditionFailed,
    SqSubspace,
    ZeroSlot,
    build_no_common_slot_family,
    common_factor,
    common_slot_space,
    factor_out,
    leave_one_out_slot_spaces,
    verify_no_common_slot_family,
)
from pflab import bilinear, field, linalg
from pflab.cli import _read_forms, main
from pflab.errors import BadRank
from pflab.field import _from_dense, _poly_row, _product_rows, _row_element
from conftest import CTX2, CTX3, nonzero_elements, nonzero_polys
from test_linalg import (
    assert_same_null_space,
    assert_same_space,
    left_kernel_reference,
    reduce_row,
    span_by_frobenius_rows,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_N4 = GOLDEN / "bilinear-family-n4-verify.json"
GOLDEN_N4_EVIDENCE = json.loads(GOLDEN_N4.read_text())["evidence"]


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
            assert len(form.diagonal()) == 2**n


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
        products = form.diagonal()
        assert_same_space(form.full_value_space(), span_by_frobenius_rows(ctx, products))
        assert_same_space(form.pure_value_space(), span_by_frobenius_rows(ctx, products[1:]))
        rho, complement = slots[: split % len(slots)], slots[split % len(slots) :]
        mixed = bilinear._mixed_pure_space(ctx, rho, complement)
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
            got = bilinear._mixed_pure_space(ctx3, witness.rho.slots, comp)
            assert_same_space(got, mixed_by_products(ctx3, witness.rho.slots, comp))


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

    def test_wrong_complement_rejected(self, ctx2, b0):
        a1, _ = ctx2.gens
        with pytest.raises(PreconditionFailed):
            factor_out(a1, None, b0, [a1, a1])

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


class TestCommonFactor:
    @pytest.mark.parametrize("index", [19, 45])
    def test_heavy_instances_keep_operands_small(self, ctx3, monkeypatch, index):
        # the heaviest instances of corpus 20260814: a round-1 slot that is
        # not in lowest terms made round 2 multiply bulky polynomials
        m, forms = sharing_instance(ctx3, 20260814, index)
        packed = []
        real = field._packed_mul

        def counted(f, g):
            out = real(f, g)
            if out is not None:
                packed.append(len(out.terms))
            return out

        monkeypatch.setattr(field, "_packed_mul", counted)
        witness = common_factor(m, forms)
        assert m == 2 and witness is not None
        assert packed == []
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

        def wrong_last(U, W, u_rows):
            # at m=2 the two rho slots are in place and one slot is missing;
            # any element of U repeats a value, so the list is isotropic
            return U.elements()[-1] if U.dim == 4 else real(U, W, u_rows)

        monkeypatch.setattr(bilinear, "_next_slot", wrong_last)
        with pytest.raises(CompletionNotFound, match="exact certification"):
            common_factor(2, two_fold_family(ctx3))

    @pytest.mark.parametrize("m", [1, 2])
    def test_short_specialization_takes_exact_span(self, ctx3, monkeypatch, m):
        # a point at which every rank falls short: each certification then
        # eliminates its product rows exactly, one span more per form and
        # round, and the witness is the same
        spans = []
        real_span = SqSubspace.from_poly_rows

        def counted(cls, *args):
            spans.append(1)
            return real_span(*args)

        def run():
            forms = two_fold_family(ctx3)
            for f in forms:
                f.pure_value_space()
            spans.clear()
            return common_factor(m, forms).to_json(), len(spans)

        monkeypatch.setattr(SqSubspace, "from_poly_rows", classmethod(counted))
        want, plain = run()
        monkeypatch.setattr(linalg, "_rank_at_point", lambda ctx, rows: 0)
        got, short = run()
        assert got == want
        assert short - plain == m * 3

    def test_product_outside_pure_space(self, ctx2, b0, monkeypatch):
        a1, a2 = ctx2.gens
        ranks = []
        real = linalg._rank_at_point
        monkeypatch.setattr(
            linalg, "_rank_at_point", lambda ctx, rows: ranks.append(1) or real(ctx, rows)
        )
        # 1 + a2 is a product outside D(b0') = span(a1, a2, a1*a2)
        with pytest.raises(CompletionNotFound, match="exact certification"):
            bilinear._complete((a1, ctx2.one + a2), b0)
        assert ranks == []
        assert bilinear._complete((a1, a2), b0) == (a1, a2)
        assert ranks == [1]

    @pytest.mark.parametrize("m, most", [(1, 17), (2, 28)])
    def test_each_factorization_spanned_once(self, ctx3, monkeypatch, m, most):
        # fresh forms: the count includes their anisotropy and pure spaces
        forms = two_fold_family(ctx3)
        calls = []
        depth = [0]
        for name in ("span", "from_rows", "from_poly_rows"):
            real = getattr(SqSubspace, name)

            def counted(cls, *args, _real=real):
                # span and from_rows end in from_poly_rows: one elimination
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
        slot = bilinear._next_slot(U, W, [_poly_row(u) for u in U.elements()])
        assert slot is not None and slot not in U
        assert calls["_admissible"] > 3 and calls["_stable_subspace"] == 1
        # at most one conversion each for U, W and the fallback space; the
        # row search itself converts none of them
        assert calls["elements"] <= 3

    def test_elements_cached(self, ctx3):
        W = BilinearPfister(ctx3, ctx3.gens).pure_value_space()
        assert W.elements() is W.elements()
        assert W.elements() == tuple(_from_dense(ctx3, row) for row in W.rows)

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
        slot = bilinear._next_slot(U, W, _product_rows(ctx3, slots))
        assert slot is not None
        assert slot == bilinear._next_slot(U, W, [_poly_row(u) for u in U.elements()])


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
            row.extend(reduce_row(W, (mono * u).frobenius_decompose().dense()))
        rows.append(row)
    kernel = left_kernel_reference(ctx, rows)
    return SqSubspace.span(ctx, [_from_dense(ctx, z) for z in kernel])


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
        got = bilinear._next_slot(U, W, _product_rows(ctx, slots))
        want = next_slot_by_elements(U, W, u_basis)
        if want is None:
            assert got is None
        else:
            # both in lowest terms, which are unique over GF(2)
            assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms)

    @given(st.lists(polynomial_slots(CTX2), min_size=1, max_size=2), _subspaces(CTX2, 3))
    def test_n2(self, slots, W):
        self.check(slots, W)

    @given(st.lists(polynomial_slots(CTX3), min_size=1, max_size=2), _subspaces(CTX3, 6))
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

        def recorded(U, W, u_rows):
            slot = real_next(U, W, u_rows)
            searches.append((U, W, slot))
            return slot

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
            assert got == W.elements()[i] == _from_dense(ctx, W.rows[i])
        for (i, a), (j, b) in itertools.combinations(enumerate(W._eliminated), 2):
            pair = linalg._sparse([x + y for x, y in zip(a, b)])
            assert _row_element(ctx, pair, W._last) == W.elements()[i] + W.elements()[j]


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
        by_prefix_suffix = [s.dim for s in leave_one_out_slot_spaces(family)[1]]
        by_verify = verify_no_common_slot_family(2)["leave_one_out_dims"]
        for dims in (by_subfamily, by_prefix_suffix, by_verify):
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
        # each member's claim is proved by is_span_of on its products, so
        # no member's pure value space is ever spanned
        def refuse(self):
            raise AssertionError("pure_value_space called")

        monkeypatch.setattr(BilinearPfister, "pure_value_space", refuse)
        assert verify_no_common_slot_family(4) == GOLDEN_N4_EVIDENCE

    def test_member_check_builds_no_products(self, monkeypatch):
        # each member's product rows come from its slots' rows: no product
        # is built as a field element while the rank at the point decides
        def refuse(self, other):
            raise AssertionError("a slot product was built as a field element")

        checked = []
        real = bilinear._member_spans_claim

        def guarded(form, k):
            checked.append(k)
            with monkeypatch.context() as m:
                m.setattr(FieldElement, "__mul__", refuse)
                m.setattr(FieldElement, "__rmul__", refuse)
                return real(form, k)

        monkeypatch.setattr(bilinear, "_member_spans_claim", guarded)
        assert verify_no_common_slot_family(4) == GOLDEN_N4_EVIDENCE
        assert checked == list(range(16))

    def test_short_specialization_keeps_report(self, monkeypatch):
        # with every rank at the point falling short, is_span_of spans the
        # products exactly, and the report is the same
        monkeypatch.setattr(linalg, "_rank_at_point", lambda ctx, rows: 0)
        assert verify_no_common_slot_family(4) == GOLDEN_N4_EVIDENCE

    def test_claims_spanned_only_when_rank_falls_short(self, monkeypatch):
        # at the point no claim is spanned over F; with every rank falling
        # short each member spans its products and its claim, two spans
        spans = []
        real_span = SqSubspace.span

        def counted(cls, *args):
            spans.append(1)
            return real_span(*args)

        monkeypatch.setattr(SqSubspace, "span", classmethod(counted))
        assert verify_no_common_slot_family(4) == GOLDEN_N4_EVIDENCE
        assert spans == []
        monkeypatch.setattr(linalg, "_rank_at_point", lambda ctx, rows: 0)
        assert verify_no_common_slot_family(3)["checks"]["claimed_pure_bases"]
        assert len(spans) == 2 * 8

    def test_claim_off_its_hyperplane_raises(self, monkeypatch):
        real = bilinear._claimed_masks
        monkeypatch.setattr(bilinear, "_claimed_masks", lambda ctx, k: real(ctx, k)[:-1])
        with pytest.raises(IdentityFailed):
            verify_no_common_slot_family(3)

    def test_isotropic_member_raises(self, monkeypatch):
        # all_anisotropic never reads false: an isotropic member stops the
        # certificate before any evidence is returned
        real = bilinear.build_no_common_slot_family

        def with_isotropic_member(n):
            family = real(n)
            a1 = family[0].ctx.gens[0]
            family[-1] = BilinearPfister(family[0].ctx, (a1,) * n)
            return family

        monkeypatch.setattr(bilinear, "build_no_common_slot_family", with_isotropic_member)
        with pytest.raises(IsotropicInput):
            verify_no_common_slot_family(3)


class TestFamilyDescent:
    """The GF(2) evidence of verify_no_common_slot_family against the same
    facts computed by F-level intersections and left kernels."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_agrees_with_f_path(self, n):
        evidence = verify_no_common_slot_family(n)
        family = build_no_common_slot_family(n)
        ctx = family[0].ctx
        # the F path's report, which verify builds only when a claim fails:
        # its dims come from leave_one_out_slot_spaces, its pairwise check
        # from _meet_is
        claims = [bilinear._claimed_pure_generators(ctx, k) for k in range(2**n)]
        f_path = bilinear._f_family_evidence(family, claims)
        f_path["checks"]["claimed_pure_bases"] = True
        assert f_path == evidence
        assert evidence["common_slot_space_dim"] == common_slot_space(family).dim
        meets = [
            bilinear._meet_is(base, pure, SqSubspace.span(ctx, others))
            for _, base, pure, others, _ in _family_claims(n)
        ]
        assert meets == [True] * (2**n - 1)

    def test_member_off_its_claim(self, monkeypatch, capsys):
        real = bilinear.build_no_common_slot_family

        def with_member_off_claim(n):
            # member 7 replaced by an anisotropic copy of member 0
            family = real(n)
            family[-1] = BilinearPfister(family[0].ctx, family[0].ctx.gens)
            return family

        monkeypatch.setattr(bilinear, "build_no_common_slot_family", with_member_off_claim)
        evidence = verify_no_common_slot_family(3)
        assert evidence["checks"] == {
            "all_anisotropic": True,
            "claimed_pure_bases": False,
            "pairwise_intersections": False,
            "no_common_slot": False,
            "sharp_at_all_but_one": True,
        }
        assert evidence["common_slot_space_dim"] == 1
        assert evidence["leave_one_out_dims"] == [1, 2, 2, 2, 2, 2, 2, 1]
        assert main(["bilinear-family", "--n", "3", "--verify"]) == 1
        assert json.loads(capsys.readouterr().out)["verdict"] == "NOT_VALID"

    def test_masks_need_binary_coordinates(self, ctx2):
        a1, a2 = ctx2.gens
        assert gf2_mask(ctx2.one + a1 * a2) == 0b1001
        # a1^3 = a1^2 * a1 has the coordinate a1 at column a1
        with pytest.raises(PreconditionFailed):
            gf2_mask(a1**3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_claimed_masks_match_generators(self, n):
        # the masks are read off the patterns, the generators built as
        # field elements; both must describe the same claim
        ctx = FieldContext(n)
        for k in range(2**n):
            gens = bilinear._claimed_pure_generators(ctx, k)
            assert bilinear._claimed_masks(ctx, k) == [gf2_mask(g) for g in gens]


def gf2_mask(g):
    """Reference for bilinear._claimed_masks: g's 2-basis row as a GF(2)
    bitmask, bit j for column j, from its Frobenius decomposition."""
    ctx = g.ctx
    mask = 0
    for j, c in enumerate(g.frobenius_decompose().dense()):
        if not c:
            continue
        if c != ctx.one:
            raise PreconditionFailed(f"{g} has a 2-basis coordinate other than 0 or 1")
        mask |= 1 << j
    return mask


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
    """The containment-plus-dimension check against a kernel intersection."""

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
                assert bilinear._meet_is(base, pure, claimed) == (name == "exact")


class TestIntersectionRows:
    """Intersections keep primitive polynomial spanners, so exponents stay
    bounded along the prefix and suffix chains."""

    @staticmethod
    def largest_exponent(space):
        largest = 0
        for row in space.spanners:
            entries = list(row.values())
            assert entries and all(p.terms for p in entries)
            content = zip(*(p.monomial_content() for p in entries))
            assert not any(min(col) for col in content)
            largest = max(largest, *(max(t) for p in entries for t in p.terms))
        return largest

    def test_no_common_slot_family_n4(self):
        family = build_no_common_slot_family(4)
        _, left_out = leave_one_out_slot_spaces(family)
        chain = [family[0].pure_value_space()]
        for form in family[1:]:
            chain.append(chain[-1].intersection(form.pure_value_space()))
        # measured: 0 in the returned spaces and 1 along the chain; the
        # unreduced rows reached exponents near 2^40
        assert max(self.largest_exponent(space) for space in left_out + chain[1:]) < 16


def _sharing_family(ctx3):
    """Five anisotropic forms from the criterion-2 pool, all with slot a1;
    their common slot space has dimension 6, one leave-one-out space 7."""
    a1, a2, a3 = ctx3.gens
    pool = [a2, a3, a1 * a2, a1 * a3, a2 * a3, ctx3.one + a1, ctx3.one + a2 * a3]
    pairs = itertools.combinations(pool, 2)
    forms = [BilinearPfister(ctx3, (a1,) + pair) for pair in pairs]
    return [f for f in forms if f.is_anisotropic()][:5]


class TestLeaveOneOutSpaces:
    """The prefix/suffix spaces against common_slot_space of each subfamily,
    compared as canonical subspaces, not only by dimension."""

    def check_against_subfamilies(self, family):
        full, left_out = leave_one_out_slot_spaces(family)
        assert full == common_slot_space(family)
        assert len(left_out) == len(family)
        for k, space in enumerate(left_out):
            assert space == common_slot_space(family[:k] + family[k + 1 :])
        return full, left_out

    @pytest.mark.parametrize("n", [2, 3])
    def test_no_common_slot_family(self, n):
        full, left_out = self.check_against_subfamilies(build_no_common_slot_family(n))
        assert full.is_zero
        assert all(space.dim == 1 for space in left_out)

    def test_sharing_family(self, ctx3):
        full, left_out = self.check_against_subfamilies(_sharing_family(ctx3))
        assert ctx3.gens[0] in full
        assert full.dim == 6
        assert sorted(space.dim for space in left_out) == [6, 6, 6, 6, 7]

    def test_two_forms(self):
        family = build_no_common_slot_family(2)[:2]
        full, left_out = self.check_against_subfamilies(family)
        assert left_out == [family[1].pure_value_space(), family[0].pure_value_space()]

    def test_isotropic_member_rejected(self, ctx2):
        a1, _ = ctx2.gens
        family = build_no_common_slot_family(2) + [BilinearPfister(ctx2, (a1, a1))]
        with pytest.raises(IsotropicInput):
            leave_one_out_slot_spaces(family)

    def test_context_mismatch(self, ctx2, ctx3, b0):
        with pytest.raises(ContextMismatch):
            leave_one_out_slot_spaces([b0, BilinearPfister(ctx3, ctx3.gens[:2])])

    @pytest.mark.parametrize("size", [0, 1])
    def test_fewer_than_two_forms(self, b0, size):
        with pytest.raises(EmptyInput):
            leave_one_out_slot_spaces([b0] * size)
