"""Squared-coefficient subspaces: spans, membership witnesses, intersections."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pflab import EliminationInvariant, PflabError, Poly, SqSubspace, representation_over
from pflab import linalg
from conftest import CTX2, CTX3, elements


def span2(ctx2, *gens):
    return SqSubspace.span(ctx2, list(gens))


class TestSpan:
    def test_dependent_generator(self, ctx2):
        a1, a2 = ctx2.gens
        assert span2(ctx2, a1, a2, a1 + a2).dim == 2

    def test_independent_monomials(self, ctx2):
        a1, a2 = ctx2.gens
        assert span2(ctx2, a1, a2, a1 * a2).dim == 3

    def test_empty(self, ctx2):
        s = SqSubspace.span(ctx2, [])
        assert s.dim == 0 and s.is_zero

    def test_zero_generators_dropped(self, ctx2):
        a1, _ = ctx2.gens
        assert span2(ctx2, ctx2.zero, a1, ctx2.zero).dim == 1

    def test_basis_is_canonical(self, ctx2):
        a1, a2 = ctx2.gens
        # F^2-multiples, sums and reordering do not change the reduced basis
        s = span2(ctx2, a1, a1 * a2, a1 * a1 * a2)
        t = span2(ctx2, a1 * a1 * a2, a1**3, a1 * a2 + a2 + a1)
        assert s == t
        assert [str(e) for e in s.elements()] == ["a1", "a2", "a1*a2"]

    def test_square_scaling_invariance(self, ctx2):
        a1, a2 = ctx2.gens
        c = (ctx2.one + a1 * a2) / a2
        assert span2(ctx2, a1 * c * c) == span2(ctx2, a1)


class TestMember:
    def test_sum_of_generators(self, ctx2):
        a1, a2 = ctx2.gens
        s = span2(ctx2, a1, a2, a1 * a2)
        assert s.coordinates_of(a1 + a2) == (ctx2.one, ctx2.one, ctx2.zero)
        assert a1 + a2 in s

    def test_independent_monomial_missing(self, ctx2):
        a1, a2 = ctx2.gens
        s = span2(ctx2, a1, a2)
        assert s.coordinates_of(a1 * a2) is None
        assert a1 * a2 not in s

    def test_square_multiple_witness(self, ctx2):
        a1, a2 = ctx2.gens
        s = span2(ctx2, a1, a1 * a2, a1 * a1 * a2)
        # a2 = (1/a1)^2 * a1^2 a2 is in the span; the reduced basis is
        # [a1, a2, a1*a2], so its coordinates there are (0, 1, 0)
        coords = s.coordinates_of(a2)
        assert coords == (ctx2.zero, ctx2.one, ctx2.zero)
        combo = sum(
            (c * c * g for c, g in zip(coords, s.elements())), ctx2.zero
        )
        assert combo == a2

    def test_witness_over_original_generators(self, ctx2):
        a1, a2 = ctx2.gens
        gens = [a1, a1 * a2, a1 * a1 * a2]
        coeffs = representation_over(ctx2, gens, a2)
        assert coeffs == (ctx2.zero, ctx2.zero, a1**-1)
        combo = sum((c * c * g for c, g in zip(coeffs, gens)), ctx2.zero)
        assert combo == a2

    def test_zero_is_member(self, ctx2):
        a1, _ = ctx2.gens
        s = span2(ctx2, a1)
        assert s.coordinates_of(ctx2.zero) == (ctx2.zero,)

    @given(
        coeffs=st.lists(elements(CTX2, max_degree=2), min_size=3, max_size=3),
    )
    def test_combinations_are_members(self, ctx2, coeffs):
        a1, a2 = ctx2.gens
        gens = [a1, a2, a1 * a2]
        s = SqSubspace.span(ctx2, gens)
        f = sum((c * c * g for c, g in zip(coeffs, gens)), ctx2.zero)
        got = s.coordinates_of(f)
        assert got is not None
        back = sum((c * c * g for c, g in zip(got, s.elements())), ctx2.zero)
        assert back == f


class TestIntersection:
    def test_forced_common_line(self, ctx2):
        a1, a2 = ctx2.gens
        inter = span2(ctx2, a1, a2).intersection(span2(ctx2, a1, a1 * a2))
        assert inter == span2(ctx2, a1)

    def test_idempotent(self, ctx2):
        a1, a2 = ctx2.gens
        s = span2(ctx2, a1, ctx2.one + a2)
        assert s.intersection(s) == s

    def test_pure_space_overlap(self, ctx2):
        a1, a2 = ctx2.gens
        s1 = span2(ctx2, a1, a2, a1 * a2)
        s2 = span2(ctx2, a2, a1 * a2, ctx2.one + a1)
        assert s1.intersection(s2) == span2(ctx2, a2, a1 * a2)

    def test_intersection_inside_both(self, ctx2):
        a1, a2 = ctx2.gens
        s1 = span2(ctx2, a1, a2)
        s2 = span2(ctx2, a1 + a2, a1 * a2)
        inter = s1.intersection(s2)
        assert s1.contains_subspace(inter)
        assert s2.contains_subspace(inter)


class TestEliminationInvariant:
    def test_lost_pivot_normalization_is_typed(self, ctx2, monkeypatch):
        real = linalg._bareiss_jordan

        def stub(ctx, rows, search_cols):
            rank, pivots, _ = real(ctx, rows, search_cols)
            # a final pivot that no pivot entry can equal
            return rank, pivots, Poly(frozenset({(9, 9)}), ctx.n)

        monkeypatch.setattr(linalg, "_bareiss_jordan", stub)
        a1, a2 = ctx2.gens
        with pytest.raises(EliminationInvariant, match="pivot normalization") as info:
            span2(ctx2, a1, a2)
        assert isinstance(info.value, PflabError)
        assert isinstance(info.value, RuntimeError)


def random_space(ctx, rng_elements):
    return SqSubspace.span(ctx, rng_elements)


class TestDimFormula:
    @given(
        g1=st.lists(elements(CTX2, max_degree=2), min_size=0, max_size=3),
        g2=st.lists(elements(CTX2, max_degree=2), min_size=0, max_size=3),
    )
    def test_modular_law_n2(self, ctx2, g1, g2):
        s1 = SqSubspace.span(ctx2, g1)
        s2 = SqSubspace.span(ctx2, g2)
        inter = s1.intersection(s2)
        total = s1.sum_with(s2)
        assert inter.dim + total.dim == s1.dim + s2.dim

    @given(
        g1=st.lists(elements(CTX3, max_degree=1, max_terms=2), min_size=1, max_size=4),
        g2=st.lists(elements(CTX3, max_degree=1, max_terms=2), min_size=1, max_size=4),
    )
    def test_modular_law_n3(self, ctx3, g1, g2):
        s1 = SqSubspace.span(ctx3, g1)
        s2 = SqSubspace.span(ctx3, g2)
        assert (
            s1.intersection(s2).dim + s1.sum_with(s2).dim == s1.dim + s2.dim
        )


class TestSerialization:
    def test_rows_shape(self, ctx2):
        a1, a2 = ctx2.gens
        s = span2(ctx2, a1, a2)
        data = s.to_json()
        assert len(data) == 2  # one serialized row per basis element
        assert SqSubspace.from_rows(ctx2, s.rows) == s
