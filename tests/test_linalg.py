"""Squared-coefficient subspaces: spans, membership witnesses, intersections."""

import functools
import os
import subprocess
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pflab import (
    EliminationInvariant,
    FieldElement,
    NotDivisible,
    PflabError,
    Poly,
    SqSubspace,
)
from pflab import field, linalg
from pflab.field import _poly_row
from conftest import CTX2, CTX3, cleared, dense, elements, nonzero_polys, polys, span_rows


def span2(ctx2, *gens):
    return SqSubspace.span(ctx2, list(gens))


def contains_subspace(s, t):
    """Whether space t lies in space s: s's annihilator test of each of
    t's eliminated rows, with no field element built."""
    return all(s._annihilates(linalg._sparse(polys)) for polys in t._eliminated)


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
        assert SqSubspace.from_poly_rows(ctx2, [{}]).is_zero

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


def left_kernel_reference(ctx, rows):
    """Reference for linalg.left_kernel on dense rows of field elements:
    each row cleared, an identity block appended, the augmented matrix
    eliminated, and each kernel row's scale folded back in."""
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    aug = []
    scales = []
    for i, row in enumerate(rows):
        polys, scale = cleared(ctx, row)
        scales.append(scale)
        aug.append(polys + [ctx._one_poly if j == i else ctx._zero_poly for j in range(m)])
    rank, _, _ = linalg._bareiss_jordan(ctx, aug, ncols)
    return [
        [
            FieldElement(ctx, x * s, ctx._one_poly) if x.terms else ctx.zero
            for x, s in zip(row[ncols:], scales)
        ]
        for row in aug[rank:]
    ]


def reduce(space, row):
    """Reference for membership: a dense coordinate row reduced against
    the reduced basis; returns the coefficient taken at each pivot and the
    remainder.

    The basis has the identity at its pivots and 0 at each other's, so
    the coefficients are the row's own entries there, and the remainder
    is row + sum c_i * basis_i (signs vanish in characteristic 2).  Each
    basis entry is e_ij / last and the row is p / P over its common
    denominator (``cleared``), so each remainder entry is the one fraction
    (p_j * last + sum_i p_(pc_i) * e_ij) / (P * last): no denominator
    compounds from one basis row to the next, as a row-by-row update
    over fractions would."""
    ctx, last = space.ctx, space._last
    polys, scale = cleared(ctx, row)
    coeffs = [row[pc] for pc in space.pivots]
    rem = []
    for j, p in enumerate(polys):
        num = p * last
        for brow, pc in zip(space._eliminated, space.pivots):
            num = num + polys[pc] * brow[j]
        rem.append(FieldElement(ctx, num, scale * last))
    return coeffs, rem


def reduce_row(space, row):
    """Remainder of a dense coordinate row after elimination against the
    reduced basis."""
    return reduce(space, row)[1]


def span_by_frobenius_rows(ctx, generators):
    """Reference for SqSubspace.span: each generator's dense row of
    Frobenius coordinates, cleared to polynomials by multiplying with
    every distinct denominator in it, then the same elimination and
    read-off.  Returns (rows, pivots) of the reduced basis."""
    rows = [cleared(ctx, dense(g))[0] for g in generators if g]
    rank, pivots, last = linalg._bareiss_jordan(ctx, rows, len(ctx.patterns))
    basis = [
        tuple(FieldElement(ctx, e, last) if e.terms else ctx.zero for e in row)
        for row in rows[:rank]
    ]
    return basis, pivots


def assert_same_space(space, reference):
    want, want_pivots = reference
    assert list(space.pivots) == want_pivots
    # compared outside the assert, so a failure does not print the rows
    rows_match = list(space.rows) == want
    assert rows_match


class TestRowPath:
    """SqSubspace.span and from_poly_rows, on the elements' sparse rows,
    against the dense Frobenius rows they replaced, compared as canonical
    spaces."""

    @staticmethod
    def check(ctx, gens, scales):
        reference = span_by_frobenius_rows(ctx, gens)
        assert_same_space(SqSubspace.span(ctx, gens), reference)
        # any nonzero polynomial scale per row leaves the span alone
        rows = [
            {j: p * s for j, p in _poly_row(g).items()} for g, s in zip(gens, scales) if g
        ]
        assert_same_space(SqSubspace.from_poly_rows(ctx, rows), reference)

    @given(
        gens=st.lists(elements(CTX2, max_degree=2, max_terms=3), max_size=5),
        scales=st.lists(nonzero_polys(CTX2, max_degree=2, max_terms=2), min_size=5, max_size=5),
    )
    def test_fractions_n2(self, ctx2, gens, scales):
        self.check(ctx2, gens, scales)

    @given(
        gens=st.lists(elements(CTX3, max_degree=2, max_terms=3), max_size=5),
        scales=st.lists(nonzero_polys(CTX3, max_degree=1, max_terms=2), min_size=5, max_size=5),
    )
    def test_fractions_n3(self, ctx3, gens, scales):
        self.check(ctx3, gens, scales)


class TestEquality:
    """SqSubspace.__eq__, the eliminated rows cross-multiplied by the
    other space's last, against a comparison of the canonical rows of
    field elements; equal spaces hash equal."""

    @staticmethod
    def check(ctx, gens, others, scales, order):
        space = SqSubspace.span(ctx, gens)
        # the same space from the generators permuted, each row rescaled,
        # and from the generators with square multiples of them added: the
        # eliminations run otherwise and may end in another last
        rows = [{j: p * s for j, p in _poly_row(g).items()} for g, s in zip(gens, scales) if g]
        permuted = SqSubspace.from_poly_rows(ctx, [rows[i] for i in order if i < len(rows)])
        squares = [c * c * g for g, c in zip(gens, others)]
        candidates = [
            permuted,
            SqSubspace.span(ctx, squares + gens),
            SqSubspace.span(ctx, others),
            SqSubspace.span(ctx, gens + others),
        ]
        assert permuted == space and candidates[1] == space
        for x in candidates:
            want = x.pivots == space.pivots and x.rows == space.rows
            assert (space == x) == want and (x == space) == want
            if want:
                assert hash(x) == hash(space)

    @given(
        gens=st.lists(elements(CTX2, max_degree=2, max_terms=3), max_size=4),
        others=st.lists(elements(CTX2, max_degree=2, max_terms=3), max_size=3),
        scales=st.lists(nonzero_polys(CTX2, max_degree=2, max_terms=2), min_size=4, max_size=4),
        order=st.permutations(range(4)),
    )
    def test_n2(self, ctx2, gens, others, scales, order):
        self.check(ctx2, gens, others, scales, order)

    @given(
        gens=st.lists(elements(CTX3, max_degree=2, max_terms=3), max_size=4),
        others=st.lists(elements(CTX3, max_degree=1, max_terms=2), max_size=3),
        scales=st.lists(nonzero_polys(CTX3, max_degree=1, max_terms=2), min_size=4, max_size=4),
        order=st.permutations(range(4)),
    )
    def test_n3(self, ctx3, gens, others, scales, order):
        self.check(ctx3, gens, others, scales, order)

    def test_other_last(self, ctx3):
        # one space from two eliminations that end in different final
        # pivots: equal, with no canonical row built
        a1, a2, a3 = ctx3.gens
        gens = [a1 + a2, a3 / (ctx3.one + a1)]
        space = SqSubspace.span(ctx3, gens)
        scaled = SqSubspace.span(ctx3, [(ctx3.one + a2) ** 2 * g for g in reversed(gens)])
        assert space._last != scaled._last
        assert space == scaled and scaled._rows is None and space._rows is None
        assert hash(space) == hash(scaled)
        assert space != SqSubspace.span(ctx3, gens[:1]) != SqSubspace.zero(ctx3)
        assert SqSubspace.zero(ctx3) == SqSubspace.span(ctx3, [])


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

    def test_witness_reads_the_row_at_the_pivots(self, ctx3, monkeypatch):
        # one row per call, read at the pivots: no coordinate outside them
        # is built as a field element
        a1, a2, a3 = ctx3.gens
        s = SqSubspace.span(ctx3, [a1, a2 / (ctx3.one + a3)])
        f = (a1 + a3) ** 2 * a1 + a2 / (ctx3.one + a3)

        def refuse(self):
            raise AssertionError("frobenius_decompose called")

        monkeypatch.setattr(FieldElement, "frobenius_decompose", refuse)
        coords = s.coordinates_of(f)
        assert coords is not None and len(coords) == 2
        assert sum((c * c * g for c, g in zip(coords, s.elements())), ctx3.zero) == f
        assert s.coordinates_of(f + a3) is None

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

    @given(
        gens=st.lists(elements(CTX2, max_degree=2, max_terms=3), min_size=1, max_size=3),
        coeffs=st.lists(elements(CTX2, max_degree=2, max_terms=3), min_size=3, max_size=3),
        noise=st.one_of(st.none(), elements(CTX2, max_degree=2, max_terms=3)),
    )
    def test_coordinates_agree_with_reduce_row(self, ctx2, gens, coeffs, noise):
        # members are built as combinations; noise usually moves f out
        s = SqSubspace.span(ctx2, gens)
        f = sum((c * c * g for c, g in zip(coeffs, gens)), noise or ctx2.zero)
        got = s.coordinates_of(f)
        want, remainder = reduce(s, dense(f))
        assert (got is None) == any(remainder)
        if got is not None:
            assert got == tuple(want)
            back = sum((c * c * g for c, g in zip(got, s.elements())), ctx2.zero)
            assert back == f


def _spans_maybe_with_one(ctx, most):
    """Spans of up to most fraction generators, to which a nonzero square
    is sometimes added: it puts 1 in the span, since squares are F^2."""
    gens = st.lists(elements(ctx, max_degree=2, max_terms=3), max_size=most)
    square = st.one_of(st.none(), elements(ctx, max_degree=1, max_terms=2).filter(bool))
    return st.builds(
        lambda g, c: SqSubspace.span(ctx, g + ([c * c] if c else [])), gens, square
    )


class TestContainsOne:
    """SqSubspace.contains_one, column 0 of the annihilator rows, against
    the membership test of the element 1."""

    @given(space=_spans_maybe_with_one(CTX2, 3))
    def test_n2(self, space):
        assert space.contains_one() == (CTX2.one in space)

    @given(space=_spans_maybe_with_one(CTX3, 4))
    def test_n3(self, space):
        assert space.contains_one() == (CTX3.one in space)

    @pytest.mark.parametrize("ctx", [CTX2, CTX3], ids=["n2", "n3"])
    def test_extremes(self, ctx):
        zero = SqSubspace.zero(ctx)
        assert not zero.contains_one() and ctx.one not in zero
        whole = SqSubspace.span(ctx, [ctx.monomial(d) for d in ctx.patterns])
        assert whole.annihilator == ()
        assert whole.contains_one() and ctx.one in whole


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
        assert contains_subspace(s1, inter)
        assert contains_subspace(s2, inter)


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

    def test_inexact_division_is_typed(self, ctx2, monkeypatch):
        def stub(f, g):
            raise NotDivisible("not divisible")

        monkeypatch.setattr(linalg, "_divexact", stub)
        a1, a2 = ctx2.gens
        one, zero = ctx2.one, ctx2.zero
        # the first pivot is a1, so the second sweep divides by it
        rows = [(a1, a2, zero, zero), (a2, a1, one, zero), (one, a1, a2, one)]
        with pytest.raises(EliminationInvariant, match="not divisible") as info:
            span_rows(ctx2, rows)
        assert isinstance(info.value.__cause__, NotDivisible)

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda pivots, ncols: [p + 1 for p in pivots], id="shifted"),
            pytest.param(lambda pivots, ncols: [*pivots[:-1], ncols], id="outside"),
            pytest.param(lambda pivots, ncols: pivots[::-1], id="descending"),
        ],
    )
    def test_corrupt_pivots_are_typed(self, ctx2, monkeypatch, corrupt):
        real = linalg._bareiss_jordan

        def stub(ctx, rows, search_cols):
            rank, pivots, last = real(ctx, rows, search_cols)
            return rank, corrupt(pivots, search_cols), last

        monkeypatch.setattr(linalg, "_bareiss_jordan", stub)
        one, zero = ctx2._one_poly, ctx2._zero_poly
        a1 = ctx2.gens[0].num
        # two rows with pivots 0 and 1 once the columns are reversed, and a
        # nonzero entry right of each, so a shifted pivot reads it as a
        # nonzero entry left of its own column
        rows = [[one, zero, a1, one], [zero, one, one, zero]]
        with pytest.raises(PflabError):
            SqSubspace.null_space(ctx2, rows)


def null_space_reference(ctx, rows):
    """Reference for SqSubspace.null_space: the two-step path it replaced,
    the forward read-off of ``_null_vectors`` spanned again by
    ``from_poly_rows`` for the reduced basis."""
    ncols = len(ctx.patterns)
    stacked = [list(r) for r in rows]
    _, pivots, last = linalg._bareiss_jordan(ctx, stacked, ncols)
    vecs = linalg._null_vectors(ctx, stacked, pivots, last, ncols)
    return SqSubspace.from_poly_rows(ctx, [linalg._sparse(v) for v in vecs])


def assert_is_null_space(ctx, got, rows):
    """got is the null space of the polynomial rows: each of its rows has
    dot product 0 with every one of them, exactly, so it lies inside, and
    got.dim + rank(rows) = 2^n, the rank read off one forward
    ``_bareiss_jordan``, so it fills it.  The same fact as
    ``null_space_reference``, with no second elimination."""
    assert all(linalg._annihilated(linalg._sparse(r), rows) for r in got._eliminated)
    rank, _, _ = linalg._bareiss_jordan(ctx, [list(r) for r in rows], len(ctx.patterns))
    assert got.dim + rank == len(ctx.patterns)


def assert_same_null_space(got, want):
    assert got.pivots == want.pivots
    # compared outside the assert, so a failure does not print the rows
    rows_match = got.rows == want.rows
    assert rows_match


@st.composite
def poly_matrices(draw, ctx, max_rows):
    """Dense polynomial matrices over the 2^n columns with whole zero rows
    and columns, many ones, and up to max_rows rows, or triangular ones of
    full rank up to a column permutation, so that the null space runs from
    the whole space down to zero."""
    ncols = len(ctx.patterns)
    zero, one = ctx._zero_poly, ctx._one_poly
    entry = st.one_of(st.sampled_from([zero, zero, one]), polys(ctx, max_degree=2, max_terms=2))
    if draw(st.integers(0, 4)) == 0:
        perm = draw(st.permutations(range(ncols)))
        rows = [[draw(entry) for _ in range(ncols)] for _ in range(ncols)]
        for i, row in enumerate(rows):
            for k in range(i):
                row[perm[k]] = zero
            row[perm[i]] = draw(nonzero_polys(ctx, max_degree=2, max_terms=2))
        return rows
    dead = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols - 1))
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        if draw(st.integers(0, 4)) == 0:
            rows.append([zero] * ncols)
        else:
            rows.append([zero if j in dead else draw(entry) for j in range(ncols)])
    return rows


def _identity(ctx):
    ncols = len(ctx.patterns)
    return [[ctx._one_poly if i == j else ctx._zero_poly for j in range(ncols)] for i in range(ncols)]


class TestNullSpace:
    """SqSubspace.null_space, read off one elimination of the reversed
    columns, against the forward read-off spanned again."""

    @given(rows=poly_matrices(CTX2, max_rows=5))
    @example(rows=[])
    @example(rows=[[CTX2._zero_poly] * 4] * 2)
    @example(rows=_identity(CTX2))
    def test_n2(self, ctx2, rows):
        self.check(ctx2, rows)

    @given(rows=poly_matrices(CTX3, max_rows=9))
    @example(rows=[])
    @example(rows=_identity(CTX3))
    def test_n3(self, ctx3, rows):
        self.check(ctx3, rows)

    @staticmethod
    def check(ctx, rows):
        got = SqSubspace.null_space(ctx, rows)
        assert_same_null_space(got, null_space_reference(ctx, rows))
        # every eliminated row is last times a reduced row, in the space
        for polys_ in got._eliminated:
            assert all(not linalg._dot(linalg._sparse(polys_), r).terms for r in rows)
        assert all(polys_[pc] == got._last for polys_, pc in zip(got._eliminated, got.pivots))

    def test_extremes(self, ctx2):
        assert SqSubspace.null_space(ctx2, _identity(ctx2)).is_zero
        whole = SqSubspace.null_space(ctx2, [])
        assert whole.dim == 4 and whole.annihilator == ()


def bareiss_jordan_reference(ctx, rows, search_cols):
    """Reference for linalg._bareiss_jordan: the eager sweep it replaced,
    which rescales every other row by p / prev at every pivot p that
    differs from the previous one, prev.  Divides through
    ``linalg._divexact``, so a patch there counts both kernels."""
    prev = ctx._one_poly
    pivots = []
    r = 0
    nrows = len(rows)
    for col in range(search_cols):
        pr = next((i for i in range(r, nrows) if rows[i][col].terms), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        p = prow[col]
        trivial = prev.is_one()
        same = p.terms == prev.terms
        for i in range(nrows):
            if i == r:
                continue
            c = rows[i][col]
            if not c.terms and same:
                continue
            new = []
            for a, b in zip(rows[i], prow):
                if not c.terms or not b.terms:
                    if not a.terms or same:
                        new.append(a)
                        continue
                    t = p * a
                elif a.terms:
                    t = p * a + c * b
                else:
                    t = c * b
                new.append(t if trivial or not t.terms else linalg._divexact(t, prev))
            rows[i] = new
        pivots.append(col)
        prev = p
        r += 1
        if r == nrows:
            break
    return r, pivots, prev


@st.composite
def kernel_inputs(draw, ctx, max_rows):
    """(rows, search_cols) for _bareiss_jordan: the matrices of
    ``poly_matrices``, either searched over a drawn prefix of the columns
    or followed by an identity block that is not searched, the shape
    ``left_kernel_reference`` eliminates."""
    rows = draw(poly_matrices(ctx, max_rows))
    ncols = len(ctx.patterns)
    if draw(st.booleans()):
        zero, one = ctx._zero_poly, ctx._one_poly
        m = len(rows)
        rows = [row + [one if j == i else zero for j in range(m)] for i, row in enumerate(rows)]
        return rows, ncols
    return rows, draw(st.integers(0, ncols))


def peels(rows, search_cols):
    """Whether _bareiss_jordan peels a row of this input: a row whose only
    nonzero entry lies in a searched column."""
    for row in rows:
        support = [j for j, p in enumerate(row) if p.terms]
        if len(support) == 1 and support[0] < search_cols:
            return True
    return False


class TestLazyRescale:
    """_bareiss_jordan, which brings a skipped row up to the current pivot
    only when it is next used, against the eager sweep: the rank, the
    pivots and the final pivot always, and row for row on an input with
    no row to peel, where the peel leaves the sweep the whole matrix."""

    @given(inputs=kernel_inputs(CTX2, max_rows=5))
    @example(inputs=([], 4))
    @example(inputs=([[CTX2._zero_poly] * 4] * 3, 4))
    @example(inputs=(_identity(CTX2), 2))
    def test_n2(self, ctx2, inputs):
        self.check(ctx2, *inputs)

    @given(inputs=kernel_inputs(CTX3, max_rows=6))
    @example(inputs=([], 8))
    @example(inputs=(_identity(CTX3), 8))
    def test_n3(self, ctx3, inputs):
        self.check(ctx3, *inputs)

    @staticmethod
    def check(ctx, rows, search_cols):
        got_rows = [list(r) for r in rows]
        want_rows = [list(r) for r in rows]
        got = linalg._bareiss_jordan(ctx, got_rows, search_cols)
        want = bareiss_jordan_reference(ctx, want_rows, search_cols)
        assert got[:2] == want[:2]
        if not peels(rows, search_cols):
            assert got == want
            # every row, the rows past the rank too, left dense in place
            assert got_rows == want_rows
        # the same reduced rows in the searched columns, cross-multiplied
        # by the two final pivots
        rank, _, last = got
        want_last = want[2]
        for g, w in zip(got_rows[:rank], want_rows):
            for x, y in zip(g[:search_cols], w):
                assert (x * want_last).terms == (y * last).terms

    def test_fewer_divisions_when_pivots_differ(self, ctx2, monkeypatch):
        a1, a2 = (g.num for g in ctx2.gens)
        one, zero = ctx2._one_poly, ctx2._zero_poly
        # pivots a1, a2, a1 + 1, a2 + 1: every step rescales the rows the
        # eager sweep passes over.  Each row has a second entry, in a fifth
        # column that is not searched, so no row is peeled
        rows = [
            [a1, zero, zero, zero, one],
            [zero, a2, zero, zero, one],
            [zero, zero, a1 + one, zero, one],
            [zero, zero, zero, a2 + one, one],
            [one, one, one, one, zero],
        ]
        assert not peels(rows, 4)
        calls = []
        real = linalg._divexact
        monkeypatch.setattr(linalg, "_divexact", lambda f, g: calls.append(1) or real(f, g))
        got_rows = [list(r) for r in rows]
        got = linalg._bareiss_jordan(ctx2, got_rows, 4)
        lazy = len(calls)
        calls.clear()
        want_rows = [list(r) for r in rows]
        want = bareiss_jordan_reference(ctx2, want_rows, 4)
        assert got == want and got_rows == want_rows
        assert got[1] == [0, 1, 2, 3]
        assert lazy < len(calls)


@st.composite
def peel_inputs(draw, ctx, max_rows):
    """(rows, search_cols, block) for _bareiss_jordan with single-entry
    rows planted among the rows of ``poly_matrices``: up to two of them in
    one column, a chain of two-entry rows that the peel takes one after
    another, from a single-entry row at its head, and zero rows, shuffled.
    The rows are searched over all columns or a drawn prefix of them, or
    followed by the identity block of ``left_kernel_reference`` (block
    True), which is not searched and gives every row a second entry."""
    rows = draw(poly_matrices(ctx, max_rows))
    ncols = len(ctx.patterns)
    zero = ctx._zero_poly
    entry = st.one_of(st.just(ctx._one_poly), nonzero_polys(ctx, max_degree=2, max_terms=2))

    def planted(*cols):
        row = [zero] * ncols
        for j in cols:
            row[j] = draw(entry)
        return row

    for j in draw(st.lists(st.integers(0, ncols - 1), min_size=1, max_size=3)):
        rows += [planted(j) for _ in range(draw(st.integers(1, 2)))]
    chain = draw(st.lists(st.integers(0, ncols - 1), max_size=4, unique=True))
    rows += [planted(j, k) for j, k in zip(chain, chain[1:])]
    rows += [planted(j) for j in chain[:1]]
    rows += [[zero] * ncols for _ in range(draw(st.integers(0, 2)))]
    rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
    if draw(st.booleans()):
        one, m = ctx._one_poly, len(rows)
        rows = [row + [one if j == i else zero for j in range(m)] for i, row in enumerate(rows)]
        return rows, ncols, True
    return rows, draw(st.one_of(st.just(ncols), st.integers(0, ncols - 1))), False


def _cascade(ctx):
    """Rows whose peel runs through columns 0 to 3 one after another, with
    a second single-entry row in column 0, a zero row, and a row that the
    peel leaves to the sweep."""
    a1, a2 = (g.num for g in ctx.gens[:2])
    one, zero = ctx._one_poly, ctx._zero_poly
    return [
        [zero, zero, a2, one + a1, zero, zero, zero, zero],
        [a1, zero, zero, zero, zero, zero, zero, zero],
        [zero] * 8,
        [one, a2, zero, zero, zero, zero, zero, zero],
        [a2, zero, zero, zero, zero, zero, zero, zero],
        [zero, a1 * a2, one, zero, zero, zero, zero, zero],
        [zero, zero, zero, a1, a1, one, one + a2, zero],
    ]


class TestPeel:
    """_bareiss_jordan on inputs with single-entry rows, which it peels
    before the sweep, against ``textbook_rref``."""

    @given(inputs=peel_inputs(CTX2, max_rows=4))
    def test_n2(self, ctx2, inputs):
        self.check(ctx2, *inputs)

    @given(inputs=peel_inputs(CTX3, max_rows=5))
    @example(inputs=(_cascade(CTX3), 8, False))
    @example(inputs=(_cascade(CTX3), 3, False))
    def test_n3(self, ctx3, inputs):
        self.check(ctx3, *inputs)

    @staticmethod
    def check(ctx, rows, search_cols, block):
        past = assert_reduced(ctx, rows, search_cols)
        if block:
            # every row has its entry in the block, so nothing is peeled,
            # and the rows past the rank, the left kernel that
            # left_kernel_reference reads off them, are the eager sweep's
            assert not peels(rows, search_cols)
            want_rows = [list(r) for r in rows]
            rank, _, _ = bareiss_jordan_reference(ctx, want_rows, search_cols)
            assert past == want_rows[rank:]

    def test_cascade_peels_every_column(self, ctx3):
        rows = _cascade(ctx3)
        got_rows = [list(r) for r in rows]
        rank, pivots, last = linalg._bareiss_jordan(ctx3, got_rows, 8)
        # columns 0 to 3 peeled, the last row swept with its column 3
        # cleared, its leading entry the one pivot of the sweep; the peeled
        # rows are last times unit rows, and the zero row and the second
        # row of column 0, emptied, follow the rank
        zero = ctx3._zero_poly
        assert (rank, pivots, last) == (5, [0, 1, 2, 3, 4], rows[6][4])
        units = [[last if j == i else zero for j in range(8)] for i in range(4)]
        assert got_rows[:4] == units
        assert got_rows[4] == [zero] * 4 + rows[6][4:]
        assert got_rows[5:] == [[zero] * 8] * 2

    def test_monomial_span_makes_no_product(self, ctx3, monkeypatch):
        # a monomial's row has one entry, so the peel takes every row of a
        # span of monomials: no product, no division, and last is 1.  The
        # repeated column (a1, a1^3) empties its second row
        a1, a2, a3 = (g.num for g in ctx3.gens)
        monomials = [a1, a2 * a2, a1 * a2 * a3, a1 * a1 * a1, a3, a1 * a3]
        rows = [_poly_row(FieldElement(ctx3, m, ctx3._one_poly)) for m in monomials]

        def refuse(*args):
            raise AssertionError("the peel multiplied or divided")

        monkeypatch.setattr(Poly, "__mul__", refuse)
        monkeypatch.setattr(linalg, "_divexact", refuse)
        space = SqSubspace.from_poly_rows(ctx3, rows)
        monkeypatch.undo()
        assert space._last.is_one()
        assert space.dim == 5
        assert [str(e) for e in space.elements()] == ["1", "a1", "a3", "a1*a3", "a1*a2*a3"]


def textbook_rref(rows):
    """Plain Gauss-Jordan over field fractions: pivot rows scaled to 1,
    every other row cleared in the pivot column."""
    rows = [list(r) for r in rows if any(r)]
    pivots = []
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        p = rows[r][col]
        rows[r] = [e / p for e in rows[r]]
        for i, row in enumerate(rows):
            c = row[col]
            if i != r and c:
                rows[i] = [a - c * b for a, b in zip(row, rows[r])]
        pivots.append(col)
    return [tuple(r) for r in rows[: len(pivots)]], pivots


def assert_reduced(ctx, rows, search_cols):
    """_bareiss_jordan against ``textbook_rref`` over fractions: the rank
    and pivots are the textbook pivots, each row up to the rank divided by
    last is its reduced row, every pivot entry is last, and every row past
    the rank is 0 in the searched columns.  Returns the rows past the rank.

    The reference is the textbook form of the rows cut to the searched
    columns, and the rows are compared there: cutting the columns maps the
    span onto the span of the cut rows, with the same pivots and reduced
    rows.  Past the searched columns a row may hold any vector of the span
    that is 0 in every searched column, as a row of
    ``left_kernel_reference``'s identity block does."""
    got_rows = [list(r) for r in rows]
    rank, pivots, last = linalg._bareiss_jordan(ctx, got_rows, search_cols)
    one = ctx._one_poly
    cut = [
        [FieldElement(ctx, p, one) if p.terms else ctx.zero for p in r[:search_cols]] for r in rows
    ]
    want, want_pivots = textbook_rref(cut)
    assert (rank, pivots) == (len(want_pivots), want_pivots)
    assert len(got_rows) == len(rows)
    for row, pc, reduced in zip(got_rows, pivots, want):
        assert row[pc] == last
        # compared outside the assert, as in check_rref
        got = [FieldElement(ctx, p, last) if p.terms else ctx.zero for p in row[:search_cols]]
        row_matches = got == list(reduced)
        assert row_matches
    for row in got_rows[rank:]:
        assert not any(p.terms for p in row[:search_cols])
    return got_rows[rank:]


@st.composite
def sparse_matrices(draw, ctx, max_rows=6):
    """Coordinate matrices with many zeros and ones, whole zero columns,
    and rows repeated up to a scalar, so that unit and repeated pivots
    and the skipped updates of the elimination all occur."""
    a1, a2 = ctx.gens[:2]
    pool = [ctx.zero] * 4 + [ctx.one] * 3 + [a1, a2, a1 * a2, ctx.one + a1, a1 / (ctx.one + a2)]
    entry = st.one_of(st.sampled_from(pool), elements(ctx, max_degree=2, max_terms=2))
    ncols = len(ctx.patterns)
    dead = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols - 1))
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        if rows and draw(st.integers(0, 3)) == 0:
            scale = draw(st.sampled_from(pool[4:]))
            rows.append(tuple(scale * e for e in draw(st.sampled_from(rows))))
        else:
            rows.append(tuple(ctx.zero if j in dead else draw(entry) for j in range(ncols)))
    return rows


class TestAgainstTextbookElimination:
    """The fraction-free kernel against plain Gauss-Jordan over fractions."""

    @given(rows=sparse_matrices(CTX2))
    def test_rref_n2(self, ctx2, rows):
        self.check_rref(ctx2, rows)

    @given(rows=sparse_matrices(CTX3, max_rows=4))
    def test_rref_n3(self, ctx3, rows):
        self.check_rref(ctx3, rows)

    def check_rref(self, ctx, rows):
        space = span_rows(ctx, rows)
        got = space.rows
        want, want_pivots = textbook_rref(rows)
        assert len(got) == len(want)
        assert list(space.pivots) == want_pivots
        # compared outside the assert: a failure report would print the
        # unreduced textbook fractions, and printing reduces them by gcd
        rows_match = all(g == w for g, w in zip(got, want))
        assert rows_match

    @given(rows=sparse_matrices(CTX2))
    def test_left_kernel_n2(self, ctx2, rows):
        # each column cleared of its own denominators: polynomial rows with
        # the same left kernel
        ncols = len(ctx2.patterns)
        columns = [cleared(ctx2, [row[j] for row in rows])[0] for j in range(ncols)]
        poly_rows = [
            {j: col[i] for j, col in enumerate(columns) if col[i].terms} for i in range(len(rows))
        ]
        one = ctx2._one_poly
        kernel = [
            [FieldElement(ctx2, x[i], one) if i in x else ctx2.zero for i in range(len(rows))]
            for x in linalg.left_kernel(ctx2, poly_rows)
        ]
        rank = len(textbook_rref(rows)[1])
        assert len(kernel) == len(rows) - rank
        for x in kernel:
            for col in range(ncols):
                assert sum((c * row[col] for c, row in zip(x, rows)), ctx2.zero).is_zero
        # the same kernel as the reference: equal reduced echelon forms,
        # compared outside the assert as in check_rref
        got, want = textbook_rref(kernel), textbook_rref(left_kernel_reference(ctx2, rows))
        assert got[1] == want[1]
        rows_match = all(g == w for g, w in zip(got[0], want[0]))
        assert rows_match

    @given(r1=sparse_matrices(CTX2, max_rows=4), r2=sparse_matrices(CTX2, max_rows=4))
    def test_intersection_n2(self, ctx2, r1, r2):
        s1 = span_rows(ctx2, r1)
        s2 = span_rows(ctx2, r2)
        inter = s1.intersection(s2)
        assert contains_subspace(s1, inter) and contains_subspace(s2, inter)
        total = span_rows(ctx2, list(r1) + list(r2))
        assert inter.dim + total.dim == s1.dim + s2.dim


def kernel_intersection(s1, s2):
    """Reference: the pairwise intersection by a left kernel of the stacked
    canonical rows, the method the annihilator intersection replaced.  A
    kernel vector x has x * stacked = 0, so its first block combines the
    first space's rows into a row that lies in both spaces."""
    ctx = s1.ctx
    if s1.is_zero or s2.is_zero:
        return SqSubspace.zero(ctx)
    first = list(s1.rows)
    stacked = first + list(s2.rows)
    vecs = []
    for combo in left_kernel_reference(ctx, stacked):
        row = [ctx.zero] * len(ctx.patterns)
        for c, brow in zip(combo, first):
            if c:
                row = [a + c * b for a, b in zip(row, brow)]
        vecs.append(row)
    return span_rows(ctx, vecs)


class TestAnnihilatorIntersection:
    """The k-way intersection through annihilators against the kernel
    reference folded over pairs, compared row for row."""

    @given(mats=st.lists(sparse_matrices(CTX2, max_rows=4), min_size=1, max_size=4))
    def test_k_way_n2(self, ctx2, mats):
        self.check(ctx2, mats)

    @given(mats=st.lists(sparse_matrices(CTX3, max_rows=3), min_size=1, max_size=3))
    def test_k_way_n3(self, ctx3, mats):
        self.check(ctx3, mats)

    def check(self, ctx, mats):
        spaces = [span_rows(ctx, rows) for rows in mats]
        got = spaces[0].intersection(*spaces[1:])
        want = functools.reduce(kernel_intersection, spaces)
        assert got.pivots == want.pivots
        rows_match = got.rows == want.rows
        assert rows_match
        stacked = [a for s in spaces for a in s.annihilator]
        assert_is_null_space(ctx, got, stacked)

    def test_full_space_is_neutral(self, ctx2):
        a1, a2 = ctx2.gens
        full = span2(ctx2, ctx2.one, a1, a2, a1 * a2)
        assert full.annihilator == ()
        s = span2(ctx2, a1, ctx2.one + a2)
        assert full.intersection(s, full) == s
        assert full.intersection(full) == full


class TestAnnihilator:
    @given(rows=sparse_matrices(CTX2))
    def test_shape_n2(self, ctx2, rows):
        s = span_rows(ctx2, rows)
        assert len(s.annihilator) == len(ctx2.patterns) - s.dim
        for a in s.annihilator:
            contents = zip(*(p.monomial_content() for p in a if p.terms))
            assert not any(min(col) for col in contents)
        for row in s.rows:
            assert s._annihilates(linalg._sparse(cleared(ctx2, row)[0]))
        assert contains_subspace(s, s)

    @given(
        rows=sparse_matrices(CTX2),
        f=elements(CTX2, max_degree=2, max_terms=3),
        coeffs=st.lists(elements(CTX2, max_degree=1, max_terms=2), min_size=4, max_size=4),
    )
    def test_membership_agrees_with_reduce_n2(self, ctx2, rows, f, coeffs):
        s = span_rows(ctx2, rows)
        # a member built from the basis, and an element that is usually outside
        member = sum((c * c * g for c, g in zip(coeffs, s.elements())), ctx2.zero)
        for x in (member, f, member + f):
            remainder = reduce_row(s, dense(x))
            assert (x in s) == (not any(remainder))
        assert member in s

    @given(rows=sparse_matrices(CTX3, max_rows=4), f=elements(CTX3, max_degree=2, max_terms=3))
    def test_membership_agrees_with_reduce_n3(self, ctx3, rows, f):
        s = span_rows(ctx3, rows)
        remainder = reduce_row(s, dense(f))
        assert (f in s) == (not any(remainder))

    @given(r1=sparse_matrices(CTX2, max_rows=4), r2=sparse_matrices(CTX2, max_rows=4))
    def test_contains_subspace_agrees_with_reduce_n2(self, ctx2, r1, r2):
        s1 = span_rows(ctx2, r1)
        s2 = span_rows(ctx2, r2)
        by_reduce = all(not any(reduce_row(s1, row)) for row in s2.rows)
        assert contains_subspace(s1, s2) == by_reduce


class TestPoint:
    """The fixed point of ``field._Point`` and its GF(2^16) tables."""

    def test_tables_are_a_logarithm(self):
        exp, log = field._gf_tables()
        order = field._GF_ORDER
        assert sorted(exp[:order]) == list(range(1, order + 1))
        assert exp[order:] == exp[:order]
        assert all(exp[log[x]] == x for x in range(1, order + 1))

    @staticmethod
    def tables_built_after(statement):
        """How many tables a fresh interpreter holds after the statement."""
        code = f"import pflab.field as f; {statement}; print(f._gf_tables.cache_info().currsize)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        return int(out.stdout)

    def test_tables_not_built_at_import(self):
        # a fresh interpreter imports the package without building them
        assert self.tables_built_after("pass") == 0

    def test_family_certificate_builds_no_tables(self):
        # the family certificate reads its spans off the anisotropy lemma
        # and searches no slot, so it takes no value at the point
        statement = "import pflab.bilinear as b; b.verify_no_common_slot_family(6)"
        assert self.tables_built_after(statement) == 0


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
        total = SqSubspace.span(ctx2, g1 + g2)
        assert inter.dim + total.dim == s1.dim + s2.dim

    @given(
        g1=st.lists(elements(CTX3, max_degree=1, max_terms=2), min_size=1, max_size=4),
        g2=st.lists(elements(CTX3, max_degree=1, max_terms=2), min_size=1, max_size=4),
    )
    def test_modular_law_n3(self, ctx3, g1, g2):
        s1 = SqSubspace.span(ctx3, g1)
        s2 = SqSubspace.span(ctx3, g2)
        assert (
            s1.intersection(s2).dim + SqSubspace.span(ctx3, g1 + g2).dim == s1.dim + s2.dim
        )


class TestSerialization:
    def test_rows_shape(self, ctx2):
        a1, a2 = ctx2.gens
        s = span2(ctx2, a1, a2)
        data = s.to_json()
        assert len(data) == 2  # one serialized row per basis element
        assert span_rows(ctx2, s.rows) == s


class TestLazyRows:
    """SqSubspace.rows, the field elements of the reduced basis, is built
    on first read; the work on the way to a certificate builds none."""

    def test_no_field_elements_until_rows_are_read(self, ctx3, monkeypatch):
        a1, a2, a3 = ctx3.gens
        one = ctx3.one
        gens = [a1 + a2 * a3, a1 * a2 / (one + a3), a3, a1 * a3 + a2]
        other = [a1 + a2 * a3, a2, a1 * a2 * a3]
        outside = a1 * a2 * a3
        made = []
        real = FieldElement.__init__

        def counted(self, *args):
            made.append(1)
            real(self, *args)

        monkeypatch.setattr(FieldElement, "__init__", counted)
        s = SqSubspace.from_poly_rows(ctx3, [_poly_row(g) for g in gens])
        t = SqSubspace.span(ctx3, other)
        inter = s.intersection(t)
        back = SqSubspace.null_space(ctx3, s.annihilator)
        assert (s.dim, t.dim, inter.dim, back.dim) == (4, 3, 1, 4)
        assert not s.is_zero and t.annihilator
        assert all(g in s for g in gens) and outside not in s
        assert contains_subspace(s, inter) and contains_subspace(t, inter)
        assert made == []
        monkeypatch.undo()
        # the rows read later are those of an eager construction
        want, pivots = span_by_frobenius_rows(ctx3, gens)
        assert list(s.pivots) == pivots
        rows_match = list(s.rows) == want
        assert rows_match
        # rows scaled by 1 + a1 end with another final pivot last, and the
        # same reduced rows all the same
        k = one.num + a1.num
        scaled = SqSubspace.from_poly_rows(
            ctx3, [{j: p * k for j, p in _poly_row(g).items()} for g in gens]
        )
        assert scaled._last != s._last
        assert scaled == s and hash(scaled) == hash(s)
        assert back == s and hash(back) == hash(s)
        assert s.to_json() == [
            [[list(d), c.to_json()] for d, c in zip(ctx3.patterns, row) if c] for row in want
        ]
