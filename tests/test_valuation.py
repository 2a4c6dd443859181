"""Monomial valuation, parity classes, and the dominant-term hypothesis."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pflab import (
    ParitySet,
    ValuationOfZero,
    build_quadratic_family,
    dominant_term_hypothesis,
    parity,
    parity_sums,
    val,
)
from conftest import CTX2, nonzero_elements


def gf2_rank(vectors):
    """Rank over GF(2) of 0/1 vectors, each packed as an int bitmask: the
    reference that independence read as distinct ``parity_sums`` is
    checked against."""
    basis = {}  # leading bit length -> reduced vector
    for vec in vectors:
        x = 0
        for b in vec:
            x = (x << 1) | (b & 1)
        while x:
            h = x.bit_length()
            if h not in basis:
                basis[h] = x
                break
            x ^= basis[h]
    return len(basis)


def span(n, parities):
    """The GF(2)-span of parity classes, grown one class at a time."""
    classes = {(0,) * n}
    for p in parities:
        classes |= {tuple(a ^ b for a, b in zip(c, p)) for c in classes}
    return ParitySet(n, frozenset(classes))


def xor_sum(classes, width):
    """The sum of parity classes of the given width, one class at a time."""
    total = (0,) * width
    for p in classes:
        total = tuple(a ^ b for a, b in zip(total, p))
    return total


def independent(parities):
    """Independence as the certificate reads it: distinct subset sums."""
    return len(set(parity_sums(parities))) == 2 ** len(parities)


@st.composite
def parity_lists(draw):
    # k runs past n, so dependent lists of every kind come up: zero
    # classes, repeated classes and more classes than the group's rank
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, n + 2))
    return draw(st.lists(st.tuples(*[st.integers(0, 1)] * n), min_size=k, max_size=k))


class TestVal:
    def test_generators(self, ctx2):
        a1, a2 = ctx2.gens
        assert val(a1) == (-1, 0)
        assert val(a2) == (0, -1)

    def test_polynomial_leading_term(self, ctx2):
        a1, a2 = ctx2.gens
        assert val(a1**3 + a2) == (-3, 0)
        assert val(ctx2.one + a1) == (-1, 0)

    def test_quotient(self, ctx2):
        a1, a2 = ctx2.gens
        assert val((a1**3 + a2) / a1) == (-2, 0)
        assert val(ctx2.one / a2) == (0, 1)

    def test_zero_rejected(self, ctx2):
        with pytest.raises(ValuationOfZero):
            val(ctx2.zero)
        with pytest.raises(ValuationOfZero):
            parity(ctx2.zero)

    def test_multiplicative(self, ctx2):
        rng = random.Random(7)
        from pflab.sampling import random_nonzero_element

        for _ in range(1000):
            f = random_nonzero_element(rng, ctx2)
            g = random_nonzero_element(rng, ctx2)
            fv, gv = val(f), val(g)
            assert val(f * g) == tuple(a + b for a, b in zip(fv, gv))

    @given(f=nonzero_elements(CTX2), g=nonzero_elements(CTX2))
    def test_multiplicative_property(self, f, g):
        assert val(f * g) == tuple(a + b for a, b in zip(val(f), val(g)))


class TestParity:
    def test_examples(self, ctx2):
        a1, a2 = ctx2.gens
        assert parity(a1) == (1, 0)
        assert parity(a1 * a1) == (0, 0)
        assert parity(a1 * a2) == (1, 1)
        assert parity((a1**3 + a2) / a1) == (0, 0)

    @given(c=nonzero_elements(CTX2), f=nonzero_elements(CTX2))
    def test_square_invariance(self, c, f):
        assert parity(c * c * f) == parity(f)


class TestDominantTermHypothesis:
    def test_generators_pass(self, ctx2):
        a1, a2 = ctx2.gens
        assert dominant_term_hypothesis([a1, a2])

    def test_dependent_parities_fail(self, ctx2):
        a1, _ = ctx2.gens
        assert not dominant_term_hypothesis([a1, a1**3])

    def test_even_parity_fails(self, ctx2):
        a1, a2 = ctx2.gens
        assert not dominant_term_hypothesis([a1**2, a2])

    def test_unit_plus_generator_passes(self, ctx2):
        a1, a2 = ctx2.gens
        # val(1 + a1) = (-1, 0): negative, parity (1, 0)
        assert dominant_term_hypothesis([ctx2.one + a1, a2])

    def test_nonnegative_value_fails(self, ctx2):
        a1, a2 = ctx2.gens
        assert not dominant_term_hypothesis([ctx2.one, a2])
        assert not dominant_term_hypothesis([ctx2.one / a1, a2])

    def test_zero_slot_fails(self, ctx2):
        assert not dominant_term_hypothesis([ctx2.zero, ctx2.gens[0]])


class TestGf2Rank:
    # the reference rank against independence read as distinct sums
    def test_basic(self):
        assert gf2_rank([(0, 1), (1, 0)]) == 2
        assert gf2_rank([(0, 1), (1, 0), (1, 1)]) == 2
        assert gf2_rank([]) == 0
        assert gf2_rank([(0, 0)]) == 0
        assert independent([(0, 1), (1, 0)])
        assert not independent([(0, 1), (1, 0), (1, 1)])
        assert independent([])
        assert not independent([(0, 0)])

    def test_order_independence(self):
        # low-weight vector first used to fool a min-reduction based rank
        vectors = [(0, 0, 1), (1, 1, 0), (1, 1, 1)]
        assert gf2_rank(vectors) == 2
        assert gf2_rank(list(reversed(vectors))) == 2
        assert not independent(vectors)
        assert not independent(list(reversed(vectors)))

    @given(parities=parity_lists())
    def test_distinct_sums_match_rank(self, parities):
        assert independent(parities) == (gf2_rank(parities) == len(parities))

    def test_dependent_kinds(self):
        # a zero class, a repeated class, and k > n
        for parities in ([(1, 0), (0, 0)], [(1, 1), (1, 1)], [(1, 0), (0, 1), (1, 0)]):
            assert gf2_rank(parities) < len(parities)
            assert not independent(parities)


class TestParitySums:
    def test_examples(self, ctx2):
        # the last class is the lowest bit of the index
        a1, a2 = ctx2.gens
        assert parity_sums([parity(a1), parity(a2)]) == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert parity_sums([parity(a1)]) == ((0, 0), (1, 0))
        assert parity_sums([]) == ((),)

    @given(parities=parity_lists())
    def test_sums_are_the_span(self, parities):
        # index e is the sum of the classes that the bits of e pick out
        k = len(parities)
        sums = parity_sums(parities)
        assert len(sums) == 2**k
        for e, total in enumerate(sums):
            picked = [p for i, p in enumerate(parities) if e >> (k - 1 - i) & 1]
            assert total == xor_sum(picked, len(total))
        if parities:
            assert set(sums) == span(len(parities[0]), parities).classes

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_parity_image_is_the_span(self, n):
        for form in build_quadratic_family(n):
            slot_parities = [parity(s) for s in form.slot_list()]
            assert form.parity_image() == span(n, slot_parities)


class TestParitySet:
    def test_full_and_of(self):
        full = ParitySet.of(2, itertools.product((0, 1), repeat=2))
        assert len(full.classes) == 4
        sub = ParitySet.of(2, [(0, 0), (1, 1)])
        assert (0, 0) in sub and (1, 0) not in sub

    def test_intersection(self):
        s1 = ParitySet.of(2, [(0, 0), (1, 0)])
        s2 = ParitySet.of(2, [(0, 0), (0, 1)])
        assert (s1 & s2).classes == frozenset({(0, 0)})

    def test_zero_only(self):
        assert ParitySet.of(2, [(0, 0)]).is_zero_only
        assert not ParitySet.of(2, [(0, 0), (1, 0)]).is_zero_only

    def test_to_json_sorted(self):
        s = ParitySet.of(2, [(1, 1), (0, 0)])
        assert s.to_json() == [[0, 0], [1, 1]]
