"""Exact arithmetic in F = GF(2)(a1, ..., an).

Elements are fractions of sparse polynomials over GF(2).  A polynomial
is stored as a frozenset of exponent tuples: presence encodes the
coefficient 1, addition is symmetric difference, and multiplication is
pairwise exponent addition with mod-2 cancellation.  Squaring is the
Frobenius map, which in characteristic 2 is additive, so every f in F
decomposes uniquely as

    f = sum over d in {0,1}^n of  c_d^2 * a^d

with a^d = prod a_i^(d_i) ranging over the 2-basis monomials and
c_d in F.  ``_poly_row`` computes that decomposition as a sparse row of
polynomials, the c_d times f's denominator, and ``_row_element`` turns
such a row back into an element; the pair is the bridge from F^2-linear
structure in F to plain linear algebra over F (see linalg).
``FieldElement.frobenius_decompose`` reads the c_d themselves off the row.

Substituting a point of GF(2^16)^n for the a_i is a ring homomorphism
GF(2)[a] -> GF(2^16), so a polynomial with a nonzero value there is
nonzero.  ``_Point`` fixes one such point per n, with the exp and log
tables of GF(2^16) (``_gf_tables``), and ``bilinear._next_slot`` screens
its slot candidates there before their exact test.

Fractions are not kept in lowest terms during arithmetic.  Equality is
cross-multiplicative, so correctness never depends on reduction; a
``canonical`` pass runs before printing, hashing and serialization so
equal elements print and hash identically.  ``lowest_terms`` stores an
element as that pair, for an operand that many products will carry.
Its gcd (``_gcd``) reads the variables each operand uses: operands of
different variables reduce to gcds of coefficients in the variables
they share, operands of one variable take Euclid on bit-packed GF(2)[x],
and only operands of the same two or more variables take a
pseudo-remainder sequence.
"""

from __future__ import annotations

from array import array
from functools import cache
from operator import mul
from typing import Iterable, Sequence

from .errors import ContextMismatch, DivisionByZero, NotASquare, NotDivisible

__all__ = ["FieldContext", "Poly", "FieldElement"]


class FieldContext:
    """The ambient field GF(2)(a1, ..., an); n is fixed at construction.

    Contexts compare by n.  Mixing elements of contexts with different n
    raises ContextMismatch.
    """

    __slots__ = ("n", "_patterns", "_columns", "_zero_poly", "_one_poly", "_zero", "_one", "_gens")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one variable")
        self.n = n
        # binary-counting order with the first variable least significant:
        # 1, a1, a2, a1*a2, a3, ...  Family enumeration and every canonical
        # "first basis element" choice downstream inherit this order.
        self._patterns = tuple(
            tuple((k >> i) & 1 for i in range(n)) for k in range(2**n)
        )
        # pattern -> its column, the index k it was built from
        self._columns = {d: k for k, d in enumerate(self._patterns)}
        origin = (0,) * n
        self._zero_poly = Poly(frozenset(), n)
        self._one_poly = Poly(frozenset((origin,)), n)
        self._zero = FieldElement(self, self._zero_poly, self._one_poly)
        self._one = FieldElement(self, self._one_poly, self._one_poly)
        self._gens = tuple(
            self.monomial(tuple(1 if j == i else 0 for j in range(n))) for i in range(n)
        )

    def __eq__(self, other):
        return isinstance(other, FieldContext) and other.n == self.n

    def __hash__(self):
        return hash(("FieldContext", self.n))

    def __repr__(self):
        return f"FieldContext(n={self.n})"

    @property
    def patterns(self) -> tuple[tuple[int, ...], ...]:
        """All of {0,1}^n in binary-counting order, first variable = LSB."""
        return self._patterns

    @property
    def zero(self) -> FieldElement:
        return self._zero

    @property
    def one(self) -> FieldElement:
        return self._one

    @property
    def gens(self) -> tuple[FieldElement, ...]:
        """The variables a1, ..., an (gens[0] prints as ``a1``)."""
        return self._gens

    def monomial(self, exponents: Iterable[int]) -> FieldElement:
        exps = tuple(exponents)
        if len(exps) != self.n or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent vector {exps!r} for n={self.n}")
        return FieldElement(self, Poly(frozenset((exps,)), self.n), self._one_poly)

    def element(self, num_terms: Iterable[Iterable[int]], den_terms=None) -> FieldElement:
        """Build an element from exponent-tuple iterables (den defaults to 1)."""
        num = Poly.of((tuple(t) for t in num_terms), self.n)
        if den_terms is None:
            den = self._one_poly
        else:
            den = Poly.of((tuple(t) for t in den_terms), self.n)
        return FieldElement(self, num, den)


def _check_ctx(a: FieldContext, b: FieldContext) -> None:
    if a.n != b.n:
        raise ContextMismatch(f"cannot mix GF(2)(a1..a{a.n}) with GF(2)(a1..a{b.n})")


class Poly:
    """Sparse polynomial over GF(2): a frozenset of exponent tuples.

    The representation is already canonical, so equality and hashing are
    structural.
    """

    __slots__ = ("terms", "n")

    def __init__(self, terms: frozenset, n: int):
        self.terms = terms
        self.n = n

    @classmethod
    def of(cls, terms: Iterable[tuple[int, ...]], n: int) -> Poly:
        """Build from an iterable of exponent tuples, cancelling duplicates mod 2."""
        acc: set = set()
        for t in terms:
            if len(t) != n or any(e < 0 for e in t):
                raise ValueError(f"bad exponent vector {t!r} for n={n}")
            acc.symmetric_difference_update((t,))
        return cls(frozenset(acc), n)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and other.terms == self.terms

    def __hash__(self):
        return hash(self.terms)

    def __add__(self, other: Poly) -> Poly:
        return Poly(self.terms ^ other.terms, self.n)

    __sub__ = __add__  # char 2

    def __mul__(self, other: Poly) -> Poly:
        if not self.terms or not other.terms:
            return Poly(frozenset(), self.n)
        if len(other.terms) < len(self.terms):
            self, other = other, self
        acc: set = set()
        toggle = acc.symmetric_difference_update
        for m1 in self.terms:
            toggle({tuple(map(int.__add__, m1, m2)) for m2 in other.terms})
        return Poly(frozenset(acc), self.n)

    def square(self) -> Poly:
        # Frobenius: (sum m)^2 = sum m^2, no cross terms in char 2
        return Poly(frozenset(tuple(2 * e for e in m) for m in self.terms), self.n)

    def is_one(self) -> bool:
        return len(self.terms) == 1 and not any(next(iter(self.terms)))

    def is_square(self) -> bool:
        return all(e % 2 == 0 for m in self.terms for e in m)

    def sqrt(self) -> Poly:
        if not self.is_square():
            raise NotASquare(f"{self!r} is not a square in GF(2)[a1..a{self.n}]")
        return Poly(frozenset(tuple(e // 2 for e in m) for m in self.terms), self.n)

    def monomial_content(self) -> tuple[int, ...]:
        """Componentwise minimum exponent over all terms (zero poly -> zeros)."""
        if not self.terms:
            return (0,) * self.n
        return tuple(min(col) for col in zip(*self.terms))

    def shift(self, m: tuple[int, ...]) -> Poly:
        """Divide by the monomial a^m (every term must dominate m)."""
        return Poly(frozenset(tuple(e - f for e, f in zip(t, m)) for t in self.terms), self.n)

    def max_degrees(self) -> tuple[int, ...]:
        if not self.terms:
            return (0,) * self.n
        return tuple(max(col) for col in zip(*self.terms))

    def sorted_terms(self) -> list[tuple[int, ...]]:
        """Terms in descending lex order (leading monomial first)."""
        return sorted(self.terms, reverse=True)

    def __repr__(self):
        return f"Poly({_poly_str(self)})"


def _poly_str(p: Poly) -> str:
    if not p.terms:
        return "0"
    parts = []
    for m in p.sorted_terms():
        factors = []
        for i, e in enumerate(m):
            if e == 1:
                factors.append(f"a{i + 1}")
            elif e > 1:
                factors.append(f"a{i + 1}^{e}")
        parts.append("*".join(factors) if factors else "1")
    return "+".join(parts)


# ---------------------------------------------------------------------------
# a fixed point of GF(2^16)^n
# ---------------------------------------------------------------------------

_GF_ORDER = 2**16 - 1  # multiplicative group of GF(2^16)
_GF_MODULUS = 0x1100B  # x^16 + x^12 + x^3 + x + 1, primitive: x generates the group
# a_i is evaluated at x^(7919 * i); 7919 is prime to the group order, so
# the coordinates are pairwise distinct
_POINT_LOG_STEP = 7919


@cache
def _gf_tables() -> tuple[array, array]:
    """exp and log tables of GF(2^16), built on first use (about 0.4 MB).

    exp holds two periods, so exp[log a + log b] needs no reduction."""
    exp = array("H", bytes(4 * _GF_ORDER))
    log = array("H", bytes(2 * (_GF_ORDER + 1)))
    x = 1
    for i in range(_GF_ORDER):
        exp[i] = exp[i + _GF_ORDER] = x
        log[x] = i
        x <<= 1
        if x >> 16:
            x ^= _GF_MODULUS
    return exp, log


class _Point:
    """The fixed point of GF(2^16)^n at which ``bilinear._next_slot``
    screens its slot candidates: each a_i is x^(7919 * i), x the generator
    of GF(2^16)^*.  One is made per n (``_point``), and the tables are
    built with the first, so a run that searches no slot builds none."""

    __slots__ = ("exp", "log", "_logs")

    def __init__(self, n: int):
        self.exp, self.log = _gf_tables()
        self._logs = [_POINT_LOG_STEP * (i + 1) for i in range(n)]

    def monomial_log(self, t: tuple[int, ...]) -> int:
        """The log of the monomial a^t at the point."""
        return sum(map(mul, t, self._logs)) % _GF_ORDER

    def value(self, p: Poly) -> int:
        """The value of p at the point."""
        exp, monomial_log = self.exp, self.monomial_log
        v = 0
        for t in p.terms:
            v ^= exp[monomial_log(t)]
        return v


@cache
def _point(n: int) -> _Point:
    """The point of GF(2^16)^n, made on first use."""
    return _Point(n)


# ---------------------------------------------------------------------------
# exact division (the gcd below, FieldElement.canonical, and linalg's
# _caught_up and _bareiss_jordan) and the gcd over GF(2)
# (FieldElement.canonical)
# ---------------------------------------------------------------------------


def _divexact(f: Poly, g: Poly) -> Poly:
    """Exact division f/g; raises NotDivisible if g does not divide f."""
    if not g.terms:
        raise ZeroDivisionError("polynomial division by zero")
    out: set = set()
    cur = set(f.terms)
    lg = max(g.terms)
    while cur:
        lf = max(cur)
        q = tuple(a - b for a, b in zip(lf, lg))
        if any(e < 0 for e in q):
            raise NotDivisible("not divisible")
        out.add(q)
        for m in g.terms:
            t = tuple(map(int.__add__, q, m))
            if t in cur:
                cur.remove(t)
            else:
                cur.add(t)
    return Poly(frozenset(out), f.n)


def _split(f: Poly, v: int) -> dict[int, Poly]:
    """View f as univariate in variable v with coefficients free of v."""
    parts: dict[int, set] = {}
    for m in f.terms:
        coef = m[:v] + (0,) + m[v + 1 :]
        parts.setdefault(m[v], set()).add(coef)
    return {d: Poly(frozenset(s), f.n) for d, s in parts.items()}


def _join(parts: dict[int, Poly], v: int, n: int) -> Poly:
    acc: set = set()
    for d, coef in parts.items():
        for m in coef.terms:
            acc.add(m[:v] + (d,) + m[v + 1 :])
    return Poly(frozenset(acc), n)


def _prem(f: Poly, g: Poly, v: int) -> Poly:
    """Pseudo-remainder of f by g w.r.t. variable v (both of positive v-degree)."""
    gp = _split(g, v)
    dg = max(gp)
    lc = gp[dg]
    r = f
    while r:
        rp = _split(r, v)
        dr = max(rp)
        if dr < dg:
            break
        lead = _join({dr - dg: rp[dr]}, v, f.n)
        r = lc * r + lead * g  # same leading v-term on both sides: cancels
    return r


def _primitive(f: Poly, v: int) -> Poly:
    cont = _content_of(_split(f, v).values())
    return f if cont.is_one() else _divexact(f, cont)


def _support(p: Poly) -> int:
    """The variables p uses, as a bitmask: bit i for a_(i+1)."""
    return sum(1 << i for i, d in enumerate(p.max_degrees()) if d)


def _coefficients(f: Poly, shared: int) -> list[Poly]:
    """f's coefficients as a polynomial in the variables outside the
    bitmask shared, each a polynomial in shared's variables only; [f]
    when f uses no other variable."""
    if _support(f) == shared:
        return [f]
    inside = [(shared >> i) & 1 for i in range(f.n)]
    parts: dict[tuple[int, ...], set] = {}
    for t in f.terms:
        key = tuple([0 if k else e for e, k in zip(t, inside)])
        parts.setdefault(key, set()).add(tuple([e if k else 0 for e, k in zip(t, inside)]))
    return [Poly(frozenset(s), f.n) for s in parts.values()]


def _gcd_univariate(f: Poly, g: Poly, v: int) -> Poly:
    """The gcd of two nonzero polynomials in the one variable a_(v+1), by
    Euclid on GF(2)[x]: each polynomial is an int whose bit k is the
    coefficient of x^k, and reduction is shift and XOR."""
    a = sum(1 << t[v] for t in f.terms)
    b = sum(1 << t[v] for t in g.terms)
    while b:
        db = b.bit_length()
        while (da := a.bit_length()) >= db:
            a ^= b << (da - db)
        a, b = b, a
    zero = (0,) * f.n
    return Poly(
        frozenset(zero[:v] + (k,) + zero[v + 1 :] for k in range(a.bit_length()) if (a >> k) & 1),
        f.n,
    )


def _gcd(f: Poly, g: Poly) -> Poly:
    """Greatest common divisor in GF(2)[a1..an]; unique (the only unit is 1).

    The common monomial factor is split off first.  A divisor of a
    polynomial uses no variable the polynomial lacks, so when the two
    cores use different variables, their gcd is the gcd of all their
    coefficients over the variables they do not share, each a polynomial
    in the shared variables only (``_coefficients``), and 1 when they
    share none.  Cores in the same one variable take Euclid on GF(2)[x]
    (``_gcd_univariate``).  Only cores in the same two or more variables
    reach the pseudo-remainder sequence in their first variable, whose
    contents are gcds in fewer variables, taken here again.
    """
    if not f.terms:
        return g
    if not g.terms:
        return f
    mf, mg = f.monomial_content(), g.monomial_content()
    m = tuple(map(min, mf, mg))
    f0, g0 = f.shift(mf), g.shift(mg)
    mono = Poly(frozenset((m,)), f.n)
    if f0.terms == g0.terms or len(f0.terms) == 1 or len(g0.terms) == 1:
        # after stripping, a single term is the monomial 1
        core = f0 if f0.terms == g0.terms else Poly(frozenset(((0,) * f.n,)), f.n)
        return mono * core
    sf, sg = _support(f0), _support(g0)
    if sf != sg:
        shared = sf & sg
        if not shared:
            return mono
        return mono * _content_of(_coefficients(f0, shared) + _coefficients(g0, shared))
    if not sf & (sf - 1):
        return mono * _gcd_univariate(f0, g0, sf.bit_length() - 1)
    v = (sf & -sf).bit_length() - 1  # the first variable both use
    fparts, gparts = _split(f0, v), _split(g0, v)
    cont_f = _content_of(fparts.values())
    cont_g = _content_of(gparts.values())
    c = _gcd(cont_f, cont_g)
    fp = f0 if cont_f.is_one() else _divexact(f0, cont_f)
    gp = g0 if cont_g.is_one() else _divexact(g0, cont_g)
    one = Poly(frozenset(((0,) * f.n,)), f.n)

    def vdeg(p: Poly) -> int:
        return max((t[v] for t in p.terms), default=-1)

    if vdeg(fp) < vdeg(gp):
        fp, gp = gp, fp
    while True:
        if vdeg(gp) == 0:
            # a v-free common divisor divides the v-content of fp, which is 1
            pp = gp if gp == fp else one
            break
        r = _prem(fp, gp, v)
        if not r:
            pp = gp
            break
        fp, gp = gp, _primitive(r, v)
    return mono * c * pp


def _content_of(coefs: Iterable[Poly]) -> Poly:
    """The gcd of nonzero polynomials, smallest first, stopping at 1."""
    cont, *rest = sorted(coefs, key=lambda p: len(p.terms))
    for c in rest:
        if cont.is_one():
            break
        cont = _gcd(cont, c)
    return cont


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------


class FieldElement:
    """A fraction num/den of GF(2) polynomials, den nonzero.

    The constructor only applies cheap normalizations (zero numerator,
    num == den, common monomial factor); ``canonical()`` produces and
    caches lowest terms.
    """

    __slots__ = ("ctx", "num", "den", "_canon")

    def __init__(self, ctx: FieldContext, num: Poly, den: Poly):
        if not den.terms:
            raise DivisionByZero("zero denominator")
        if not num.terms:
            den = ctx._one_poly
        elif num.terms == den.terms:
            num = den = ctx._one_poly
        elif not den.is_one():
            # over den = 1 the only common monomial factor is 1
            mn, md = num.monomial_content(), den.monomial_content()
            m = tuple(map(min, mn, md))
            if any(m):
                num, den = num.shift(m), den.shift(m)
        self.ctx = ctx
        self.num = num
        self.den = den
        self._canon = None

    # -- basic structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num.terms

    def __bool__(self):
        return bool(self.num.terms)

    def canonical(self) -> tuple[Poly, Poly]:
        """Lowest-terms (num, den); computed once and cached.  Over the
        denominator 1 the stored pair already is, and no gcd is taken."""
        if self._canon is None:
            g = self.den if self.den.is_one() else _gcd(self.num, self.den)
            if g.is_one():
                self._canon = (self.num, self.den)
            else:
                self._canon = (_divexact(self.num, g), _divexact(self.den, g))
        return self._canon

    def lowest_terms(self) -> FieldElement:
        """The same element stored as its lowest-terms pair, which is also
        its cached ``canonical()``; self when it is already stored so."""
        num, den = self.canonical()
        if num is self.num and den is self.den:
            return self
        out = FieldElement(self.ctx, num, den)
        out._canon = (out.num, out.den)
        return out

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        _check_ctx(self.ctx, other.ctx)
        if self.num.terms == other.num.terms and self.den.terms == other.den.terms:
            return True
        return (self.num * other.den).terms == (other.num * self.den).terms

    def __hash__(self):
        n, d = self.canonical()
        return hash((n.terms, d.terms))

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            _check_ctx(self.ctx, other.ctx)
            return other
        if isinstance(other, int):
            return self.ctx.one if other % 2 else self.ctx.zero
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den.terms == other.den.terms:
            return FieldElement(self.ctx, self.num + other.num, self.den)
        return FieldElement(
            self.ctx,
            self.num * other.den + other.num * self.den,
            self.den * other.den,
        )

    __radd__ = __add__
    __sub__ = __add__  # char 2
    __rsub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.num.terms or not other.num.terms:
            return self.ctx.zero
        return FieldElement(self.ctx, self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num.terms:
            raise DivisionByZero("division by zero field element")
        if not self.num.terms:
            return self.ctx.zero
        return FieldElement(self.ctx, self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if k < 0:
            if self.is_zero:
                raise DivisionByZero("negative power of zero")
            return FieldElement(self.ctx, self.den, self.num) ** (-k)
        out = self.ctx.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base.square()
            k >>= 1
        return out

    def square(self) -> FieldElement:
        return FieldElement(self.ctx, self.num.square(), self.den.square())

    # -- Frobenius structure --------------------------------------------------

    def is_square(self) -> bool:
        """0 counts as a square."""
        return (self.num * self.den).is_square()

    def sqrt(self) -> FieldElement:
        # f = num*den / den^2, so sqrt(f) = sqrt(num*den)/den when it exists
        g = self.num * self.den
        if not g.is_square():
            raise NotASquare(f"{self} is not a square")
        return FieldElement(self.ctx, g.sqrt(), self.den)

    def frobenius_decompose(self) -> dict[tuple[int, ...], FieldElement]:
        """The nonzero coordinates {d: c_d} of f = sum c_d^2 * a^d, d in
        {0,1}^n: ``_poly_row``'s entries over the denominator.  No
        certificate calls it; perfbench's tracer hooks it by this name."""
        ctx, den = self.ctx, self.den
        return {ctx._patterns[j]: FieldElement(ctx, s, den) for j, s in _poly_row(self).items()}

    # -- presentation ----------------------------------------------------------

    def __str__(self):
        n, d = self.canonical()
        if d.is_one():
            return _poly_str(n)
        return f"{_poly_str(n)} / {_poly_str(d)}"

    def __repr__(self):
        return f"<{self} in GF(2)(a1..a{self.ctx.n})>"

    def to_json(self):
        n, d = self.canonical()
        return {
            "num": [list(t) for t in n.sorted_terms()],
            "den": [list(t) for t in d.sorted_terms()],
        }

    @classmethod
    def from_json(cls, ctx: FieldContext, data) -> FieldElement:
        if not isinstance(data, dict) or "num" not in data or "den" not in data:
            raise ValueError("field element JSON must have 'num' and 'den'")
        for key in ("num", "den"):
            terms = data[key]
            # a JSON true or false is a Python int too; it is not an exponent
            if not isinstance(terms, list) or not all(
                isinstance(t, list)
                and all(isinstance(e, int) and not isinstance(e, bool) for e in t)
                for t in terms
            ):
                raise ValueError(
                    f"field element '{key}' must be a list of integer exponent lists"
                )
        return ctx.element(data["num"], data["den"])


def _poly_row(f: FieldElement) -> dict[int, Poly]:
    """f's sparse 2-basis row times its denominator: column j -> s_d for
    every nonzero s_d, j the index of d in the context's pattern order,
    with f = sum (s_d / den)^2 * a^d.

    f = (num * den) / den^2, and splitting num * den's terms by the
    parity pattern d of their exponents gives num * den = sum a^d * s_d^2.
    """
    buckets: dict[tuple[int, ...], set] = {}
    g = f.num if f.den.is_one() else f.num * f.den
    for t in g.terms:
        d = tuple([e & 1 for e in t])
        buckets.setdefault(d, set()).add(tuple([e >> 1 for e in t]))
    columns, n = f.ctx._columns, f.ctx.n
    return {columns[d]: Poly(frozenset(h), n) for d, h in buckets.items()}


def _row_element(ctx: FieldContext, row: dict[int, Poly], scale: Poly) -> FieldElement:
    """The element whose sparse 2-basis row, times the nonzero scale, is
    row: (sum e_j^2 * a^(d_j)) / scale^2, d_j the pattern of column j.
    The terms of distinct columns differ in their exponents' parities, so
    nothing cancels.  The inverse of ``_poly_row`` up to the scale."""
    patterns = ctx._patterns
    terms = set()
    for j, e in row.items():
        d = patterns[j]
        terms.update(tuple([2 * x + b for x, b in zip(t, d)]) for t in e.terms)
    return FieldElement(ctx, Poly(frozenset(terms), ctx.n), scale.square())


def _row_mul(ctx: FieldContext, r1: dict[int, Poly], r2: dict[int, Poly]) -> dict[int, Poly]:
    """The sparse 2-basis row of x*y from the rows of x and y.

    With x = sum x_c^2 * a^c and y = sum y_e^2 * a^e, and a^c * a^e =
    a^(c & e)^2 * a^(c ^ e) for 0/1 patterns,

        x * y = sum (x_c * y_e * a^(c & e))^2 * a^(c ^ e).

    Columns index the patterns by their bits, so c & e and c ^ e are int
    operations on the columns.  An entry equal to 1 is not multiplied.
    The row is scaled by the product of the two rows' scales.
    """
    one = ctx._one_poly.terms
    patterns = ctx._patterns
    acc: dict[int, set] = {}
    for c, x in r1.items():
        for e, y in r2.items():
            if x.terms == one:
                t = y.terms
            elif y.terms == one:
                t = x.terms
            else:
                t = (x * y).terms
            m = c & e
            if m:
                shift = patterns[m]
                t = {tuple(map(int.__add__, u, shift)) for u in t}
            acc.setdefault(c ^ e, set()).symmetric_difference_update(t)
    return {j: Poly(frozenset(s), ctx.n) for j, s in acc.items() if s}


def _shifted_dots(ctx: FieldContext, y: dict[int, Poly], ann: dict[int, Poly]) -> list[Poly]:
    """The dense row whose entry g is the dot product of the row of
    a^g * u with ann, y the sparse row of u and ann a sparse annihilator
    row: by ``_row_mul``'s rule the row of a^g * u has y_e * a^(g & e)
    at column g ^ e, so the entry is

        sum over e of  y_e * a^(g & e) * ann_(g ^ e).

    Each pair of a column e of y and a column j of ann adds one product
    y_e * ann_j * a^(e & ~j) to the entry at g = e ^ j, so the row is
    built from y and ann alone, with no row of a^g * u and no dot
    product.  It carries y's scale in every entry.
    """
    patterns = ctx._patterns
    acc: dict[int, set] = {}
    for e, x in y.items():
        for j, p in ann.items():
            t = (x * p).terms
            m = e & ~j
            if m:
                shift = patterns[m]
                t = {tuple(map(int.__add__, s, shift)) for s in t}
            acc.setdefault(e ^ j, set()).symmetric_difference_update(t)
    zero, n = ctx._zero_poly, ctx.n
    return [Poly(frozenset(acc[g]), n) if g in acc else zero for g in range(len(patterns))]


def _product_rows(ctx: FieldContext, slots: Sequence[FieldElement]) -> list[dict[int, Poly]]:
    """The sparse 2-basis rows of all 2^k slot products b^e, in the order
    of ``bilinear._products``, built from the slots' own rows by doubling
    over the reversed slots, with no product built as a field element.

    Row e is b^e's coordinates times the product of the denominators of
    the slots in b^e, where ``_poly_row(b^e)`` scales by b^e's own
    denominator.  The scale is nonzero, so it changes neither whether a
    dot product vanishes nor a rank.
    """
    out = [{0: ctx._one_poly}]
    for s in reversed(slots):
        row = _poly_row(s)
        out = out + [_row_mul(ctx, row, r) for r in out]
    return out
