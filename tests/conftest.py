import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from pflab import FieldContext, FieldElement, Poly, SqSubspace
from pflab.field import _divexact

settings.register_profile(
    "pflab",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("pflab")

CTX2 = FieldContext(2)
CTX3 = FieldContext(3)


@pytest.fixture(scope="session")
def ctx2():
    return CTX2


@pytest.fixture(scope="session")
def ctx3():
    return CTX3


def polys(ctx, max_degree=3, max_terms=4):
    monomial = st.tuples(*([st.integers(0, max_degree)] * ctx.n))
    return st.frozensets(monomial, max_size=max_terms).map(lambda t: Poly(t, ctx.n))


def nonzero_polys(ctx, max_degree=3, max_terms=4):
    return polys(ctx, max_degree, max_terms).filter(bool)


def elements(ctx, max_degree=3, max_terms=4):
    return st.builds(
        lambda num, den: FieldElement(ctx, num, den),
        polys(ctx, max_degree, max_terms),
        nonzero_polys(ctx, max_degree, max_terms),
    )


def nonzero_elements(ctx, max_degree=3, max_terms=4):
    return elements(ctx, max_degree, max_terms).filter(bool)


def dense(f):
    """f's 2-basis coordinates c_d, f = sum c_d^2 * a^d, as a dense row in
    the context's column order."""
    dec = f.frobenius_decompose()
    zero = f.ctx.zero
    return tuple(dec.get(d, zero) for d in f.ctx.patterns)


def cleared(ctx, row):
    """A fraction row scaled to polynomial entries; returns (polys, scale).

    Multiplying a row by a common multiple of its denominators does not
    move its span.  Denominators that differ by a monomial factor, as the
    entries of one element's coordinate row do once each has cancelled
    its own, share one factor of the scale: their monomial-free part times
    the largest of their monomials.  The clearing the polynomial row path
    replaced, kept as the references' way into the elimination."""
    factors = {}  # monomial-free denominator -> (it, largest monomial)
    for e in row:
        if not e:
            continue
        m = e.den.monomial_content()
        core = e.den.shift(m)
        _, seen = factors.get(core.terms, (core, m))
        factors[core.terms] = (core, tuple(map(max, seen, m)))
    scale = ctx._one_poly
    for core, m in factors.values():
        scale = scale * core * Poly(frozenset((m,)), ctx.n)
    polys = [e.num * _divexact(scale, e.den) if e else ctx._zero_poly for e in row]
    return polys, scale


def _two_basis_sum(ctx, row):
    """(N, P) with sum c_d^2 * a^d = N / P^2 for a dense coordinate row:
    P the common denominator of its entries (``cleared``) and
    N = sum (c_d * P)^2 * a^d, a polynomial."""
    polys, scale = cleared(ctx, row)
    num = ctx._zero_poly
    for p, d in zip(polys, ctx.patterns):
        num = num + p.square() * Poly(frozenset((d,)), ctx.n)
    return num, scale


def from_dense(ctx, row):
    """Reference for the 2-basis identity: the element sum c_d^2 * a^d of
    a dense coordinate row, summed over the row's common denominator."""
    num, scale = _two_basis_sum(ctx, row)
    return FieldElement(ctx, num, scale.square())


def span_rows(ctx, rows):
    """The F-span of dense coordinate rows of field elements: the F^2-span
    of the elements sum c_d^2 * a^d, each times P^2, P its row's common
    denominator.  P^2 is a nonzero square, so it moves no span, and the
    scaled element is the polynomial N whose row is the cleared row."""
    return SqSubspace.span(
        ctx, [FieldElement(ctx, _two_basis_sum(ctx, row)[0], ctx._one_poly) for row in rows]
    )
