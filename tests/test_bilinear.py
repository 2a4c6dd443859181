"""Bilinear Pfister forms: value spaces, slots, isometry, factor extraction."""

import itertools
import random

import pytest

from pflab import (
    BilinearPfister,
    CompletionNotFound,
    ContextMismatch,
    EmptyInput,
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
from pflab import bilinear
from pflab.errors import BadRank


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


class TestAnisotropy:
    def test_examples(self, ctx2, b0):
        a1, a2 = ctx2.gens
        assert b0.is_anisotropic()
        assert not BilinearPfister(ctx2, (a1, a1)).is_anisotropic()
        # 1 + a1 + (1+a1) = 0 is an F^2-dependence among the slot products
        assert not BilinearPfister(ctx2, (a1, ctx2.one + a1)).is_anisotropic()
        assert BilinearPfister(ctx2, (ctx2.one + a1, a2)).is_anisotropic()


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


class TestCommonFactor:
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

        def wrong_last(U, W):
            # at m=2 the two rho slots are in place and one slot is missing;
            # any element of U repeats a value, so the list is isotropic
            return U.elements()[-1] if U.dim == 4 else real(U, W)

        monkeypatch.setattr(bilinear, "_next_slot", wrong_last)
        with pytest.raises(CompletionNotFound, match="exact certification"):
            common_factor(2, two_fold_family(ctx3))

    @pytest.mark.parametrize("m, most", [(1, 17), (2, 28)])
    def test_each_factorization_spanned_once(self, ctx3, monkeypatch, m, most):
        # fresh forms: the count includes their anisotropy and pure spaces
        forms = two_fold_family(ctx3)
        calls = []
        for name in ("span", "from_rows"):
            real = getattr(SqSubspace, name)

            def counted(cls, *args, _real=real):
                calls.append(1)
                return _real(*args)

            monkeypatch.setattr(SqSubspace, name, classmethod(counted))
        assert common_factor(m, forms) is not None
        assert len(calls) <= most

    def test_m_bounds(self, ctx2, b0):
        with pytest.raises(ValueError):
            common_factor(0, [b0])
        with pytest.raises(ValueError):
            common_factor(2, [b0])

    def test_isotropic_rejected(self, ctx2):
        a1, _ = ctx2.gens
        with pytest.raises(IsotropicInput):
            common_factor(1, [BilinearPfister(ctx2, (a1, a1))])

    def test_witness_json(self, ctx2):
        family = build_no_common_slot_family(2)
        witness = common_factor(1, family[:3])
        data = witness.to_json()
        assert set(data) == {"rho", "complements", "check_log"}


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
            entries = [c for c in row if c]
            assert entries
            assert all(c.den.terms == {(0,) * space.ctx.n} for c in entries)
            content = zip(*(c.num.monomial_content() for c in entries))
            assert not any(min(col) for col in content)
            largest = max(largest, *(max(t) for c in entries for t in c.num.terms))
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
