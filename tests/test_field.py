"""Field arithmetic, squares, and the Frobenius coordinate decomposition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pflab import (
    ContextMismatch,
    DivisionByZero,
    FieldContext,
    FieldElement,
    NotASquare,
    NotDivisible,
    PflabError,
    Poly,
)
from pflab import field
from conftest import CTX2, CTX3, elements, nonzero_elements, polys


@pytest.fixture
def gens2(ctx2):
    return ctx2.gens


class TestArithmetic:
    def test_char_two_cancellation(self, ctx2, gens2):
        a1, a2 = gens2
        assert a1 + a1 == ctx2.zero
        assert not (a1 + a1)

    def test_frobenius_additive(self, gens2):
        a1, a2 = gens2
        assert (a1 + a2) ** 2 == a1**2 + a2**2

    def test_division_round_trip(self, gens2):
        a1, a2 = gens2
        f = (a1**3 + a2) / a1
        assert f * a1 == a1**3 + a2

    def test_divide_by_zero(self, ctx2, gens2):
        a1, _ = gens2
        with pytest.raises(DivisionByZero):
            a1 / ctx2.zero
        with pytest.raises(DivisionByZero):
            FieldElement(ctx2, ctx2._one_poly, ctx2._zero_poly)

    def test_int_coercion(self, ctx2, gens2):
        a1, _ = gens2
        assert a1 + 1 == a1 + ctx2.one
        assert a1 * 0 == ctx2.zero
        assert 1 + a1 == a1 + 1
        assert a1 + 2 == a1  # even ints vanish

    def test_negative_power(self, gens2):
        a1, _ = gens2
        assert a1**-1 * a1 == a1.ctx.one
        assert a1**-2 == (a1**2) ** -1

    def test_pow_zero(self, ctx2, gens2):
        a1, _ = gens2
        assert a1**0 == ctx2.one

    def test_context_mismatch(self, ctx2, ctx3):
        with pytest.raises(ContextMismatch):
            ctx2.gens[0] + ctx3.gens[0]
        with pytest.raises(ContextMismatch):
            ctx2.gens[0] == ctx3.gens[0]

    @given(f=elements(CTX2), g=elements(CTX2))
    def test_add_commutes(self, f, g):
        assert f + g == g + f

    @given(f=elements(CTX2), g=elements(CTX2), h=elements(CTX2))
    def test_mul_distributes(self, f, g, h):
        assert f * (g + h) == f * g + f * h

    @given(f=nonzero_elements(CTX2), g=nonzero_elements(CTX2))
    def test_division_inverts(self, f, g):
        assert (f / g) * g == f


class TestEquality:
    def test_cross_multiplication(self, ctx2, gens2):
        a1, a2 = gens2
        # a1/a2 == a1^2/(a1 a2) without any gcd reduction at build time
        left = a1 / a2
        right = (a1 * a1) / (a1 * a2)
        assert left == right
        assert hash(left) == hash(right)
        assert str(left) == str(right)

    @given(f=elements(CTX2), g=nonzero_elements(CTX2))
    def test_unreduced_forms_agree(self, f, g):
        blown = FieldElement(f.ctx, f.num * g.num, f.den * g.num)
        assert blown == f
        assert hash(blown) == hash(f)

    @given(f=elements(CTX2), g=elements(CTX2), h=elements(CTX2))
    def test_equality_respects_addition(self, f, g, h):
        if f == g:
            assert f + h == g + h


class TestSquares:
    def test_is_square_examples(self, ctx2, gens2):
        a1, a2 = gens2
        assert (a1**2).is_square()
        assert not a1.is_square()
        assert ((a1**2 + a2**2) / a2**4).is_square()
        assert ctx2.zero.is_square()

    def test_sqrt_examples(self, ctx2, gens2):
        a1, a2 = gens2
        assert (a1**2).sqrt() == a1
        assert (a1**2 + a2**2).sqrt() == a1 + a2
        assert ((a1**2 + a2**2) / a2**4).sqrt() == (a1 + a2) / a2**2
        with pytest.raises(NotASquare):
            a1.sqrt()

    @given(f=elements(CTX2))
    def test_sqrt_of_square(self, f):
        assert (f * f).is_square()
        assert (f * f).sqrt() == f

    @given(f=elements(CTX2), g=elements(CTX2))
    def test_sqrt_additive(self, f, g):
        assert (f * f + g * g).sqrt() == f + g


class TestFrobeniusDecompose:
    def test_one(self, ctx2):
        dec = ctx2.one.frobenius_decompose()
        assert dec.coords == {(0, 0): ctx2.one}

    def test_generator(self, ctx2, gens2):
        a1, _ = gens2
        dec = a1.frobenius_decompose()
        assert dec.coords == {(1, 0): ctx2.one}

    def test_mixed_fraction(self, ctx2, gens2):
        a1, a2 = gens2
        f = (a1**3 + a2) / a1
        dec = f.frobenius_decompose()
        assert set(dec.coords) == {(0, 0), (1, 1)}
        assert dec.coords[(0, 0)] == a1
        assert dec.coords[(1, 1)] == a1**-1
        assert dec.reconstruct() == f

    def test_zero(self, ctx2):
        assert ctx2.zero.frobenius_decompose().coords == {}

    @given(f=elements(CTX2))
    def test_round_trip(self, f):
        dec = f.frobenius_decompose()
        assert dec.reconstruct() == f

    @given(f=elements(CTX2))
    def test_uniqueness_via_reconstruction(self, f):
        # sum of c_d^2 a^d with the c_d read back must be f itself, and a
        # square element must decompose onto the trivial pattern alone
        sq = f * f
        dec = sq.frobenius_decompose()
        nontrivial = {d for d, c in dec.coords.items() if any(d) and c}
        assert nontrivial == set()


class TestSerialization:
    def test_poly_term_order(self, ctx2, gens2):
        a1, a2 = gens2
        f = a1**3 + a2
        assert f.to_json() == {"num": [[3, 0], [0, 1]], "den": [[0, 0]]}

    def test_round_trip(self, ctx2, gens2):
        a1, a2 = gens2
        f = (a1**3 + a2) / (a1 * a2 + ctx2.one)
        assert FieldElement.from_json(ctx2, f.to_json()) == f

    @given(f=elements(CTX2))
    def test_json_round_trip(self, f):
        assert FieldElement.from_json(f.ctx, f.to_json()) == f

    @pytest.mark.parametrize(
        "data",
        [
            {"num": [[True, False]], "den": [[False, False]]},
            {"num": [[1, 0]], "den": [[0, True]]},
        ],
    )
    def test_boolean_exponent_refused(self, ctx2, data):
        # JSON true and false are Python ints; read as 1 and 0 they would
        # turn the first into a1
        with pytest.raises(ValueError, match="integer exponent lists"):
            FieldElement.from_json(ctx2, data)

    def test_str_format(self, ctx2, gens2):
        a1, a2 = gens2
        assert str((a1**3 + a2) / a1) == "a1^3+a2 / a1"
        assert str(a1 * a2) == "a1*a2"
        assert str(ctx2.zero) == "0"
        assert str(ctx2.one + a1) == "a1+1"


class TestCanonical:
    @given(num=polys(CTX3))
    def test_denominator_one_takes_no_gcd(self, num):
        # over the denominator 1 the stored pair is already in lowest terms
        calls = []
        real = field._gcd
        f = FieldElement(CTX3, num, CTX3._one_poly)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(field, "_gcd", lambda a, b: calls.append(1) or real(a, b))
            got = f.canonical()
            assert f.lowest_terms() is f
        assert calls == []
        assert got[0] is f.num and got[1] is f.den

    def test_fraction_is_still_reduced(self, ctx2, gens2, monkeypatch):
        a1, a2 = gens2
        one = ctx2.one
        calls = []
        real = field._gcd
        monkeypatch.setattr(field, "_gcd", lambda a, b: calls.append(1) or real(a, b))
        # (a1 + a2)(1 + a1) / ((1 + a1)(1 + a2)), stored as that product
        f = FieldElement(ctx2, ((a1 + a2) * (one + a1)).num, ((one + a1) * (one + a2)).num)
        reduced = f.lowest_terms()
        assert calls
        assert reduced is not f
        assert (reduced.num, reduced.den) == ((a1 + a2).num, (one + a2).num)
        assert reduced.canonical() == (reduced.num, reduced.den)


class TestPoly:
    @pytest.mark.parametrize(
        "f, g",
        [
            # a1 + a2 by a1
            (Poly.of([(1, 0), (0, 1)], 2), Poly.of([(1, 0)], 2)),
            # (1 + a1 + ... + a1^6)(1 + a2 + ... + a2^6) has 49 terms and
            # the value 1 at a1 = 1, so 1 + a1 does not divide it
            (
                Poly.of([(i, j) for i in range(7) for j in range(7)], 2),
                Poly.of([(0, 0), (1, 0)], 2),
            ),
        ],
        ids=["small", "bulky"],
    )
    def test_inexact_division_is_typed_on_the_set_path(self, f, g):
        with pytest.raises(NotDivisible) as info:
            field._divexact(f, g)
        assert isinstance(info.value, PflabError)
        assert isinstance(info.value, ValueError)

    @settings(max_examples=25)
    @given(data=st.data(), n=st.integers(2, 3))
    def test_bulky_operands_on_the_set_path(self, data, n):
        # 40 to 60 terms a factor: products of more than 1024 operand-term
        # pairs and dividends of more than 48 terms, sizes no corpus or
        # CLI run reaches
        bulky = st.frozensets(
            st.tuples(*[st.integers(0, 9)] * n), min_size=40, max_size=60
        ).map(lambda t: Poly(t, n))
        f = data.draw(bulky)
        g = data.draw(bulky)
        h = f * g
        assert h == Poly.of(
            (tuple(map(int.__add__, s, t)) for s in f.terms for t in g.terms), n
        )
        assert field._divexact(h, g) == f
        with pytest.raises(NotDivisible):
            field._divexact(h + Poly.of([(0,) * n], n), g)

    def test_cancellation_in_of(self, ctx2):
        p = Poly.of([(1, 0), (1, 0), (0, 1)], 2)
        assert p.terms == frozenset({(0, 1)})

    def test_monomial_arith(self, ctx2, gens2):
        a1, a2 = gens2
        assert str(a1 * a1 * a2) == "a1^2*a2"

    def test_context_validation(self):
        with pytest.raises(ValueError):
            FieldContext(0)
