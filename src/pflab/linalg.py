"""Linear algebra for F^2-subspaces of F, in square-root coordinates.

In characteristic 2, sqrt(a + b) = sqrt(a) + sqrt(b) and
sqrt(c^2 * a) = c * sqrt(a), so writing elements in their 2-basis
coordinates (f = sum c_d^2 * a^d) turns F^2-linear combinations of
field elements into F-linear combinations of coordinate rows.  A
subspace is therefore stored as a row-reduced echelon basis of such
rows, with pivots in ascending lexicographic column order; that basis
is unique, so equality, serialization and the deterministic choices
made by callers all come for free.

A subspace is also described by its annihilator: the rows a with
x . a = 0 exactly for the rows x of the space, one per non-pivot column,
read straight off the reduced basis.  Membership is then one polynomial
dot product per annihilator row, and an intersection is the space
annihilated by all the inputs' annihilator rows together.  A rank lower
bound at a fixed point of GF(2^16)^n (``_rank_at_point``) lets
``SqSubspace.is_span_of`` prove a spanning set without eliminating it.
Rows that are spanned, tested against an annihilator or ranked at the
point are sparse (column -> polynomial, ``field._poly_row``): an
element's coordinates times its denominator, so no fraction is cleared
on the way in, and a slot product has at most two nonzero coordinates.
"""

from __future__ import annotations

from array import array
from functools import cache
from operator import mul
from typing import Iterable, Sequence

from .errors import EliminationInvariant, NotDivisible
from .field import FieldContext, FieldElement, Poly, _divexact, _from_dense, _poly_row

__all__ = ["SqSubspace", "representation_over"]

Row = tuple[FieldElement, ...]
# a polynomial coordinate row by column, zero entries left out
SparseRow = dict[int, Poly]


def _cleared(ctx: FieldContext, row: Sequence[FieldElement]):
    """Scale a fraction row to polynomial entries; returns (polys, scale).

    Multiplying a row by the product of its distinct denominators does not
    move its span, and it lets the elimination below stay fraction-free.
    """
    dens: list[Poly] = []
    seen: set[frozenset] = set()
    for e in row:
        if not e or e.den.is_one() or e.den.terms in seen:
            continue
        seen.add(e.den.terms)
        dens.append(e.den)
    scale = ctx._one_poly
    for d in dens:
        scale = scale * d
    zero = Poly(frozenset(), ctx.n)
    out = []
    for e in row:
        if not e:
            out.append(zero)
            continue
        p = e.num
        for d in dens:
            if d.terms != e.den.terms:
                p = p * d
        out.append(p)
    return out, scale


def _primitive(polys: list[Poly]) -> list[Poly]:
    """A polynomial row divided by the common monomial factor of its
    entries; a nonzero scalar multiple of a row spans the same F-line."""
    contents = [p.monomial_content() for p in polys if p.terms]
    common = tuple(min(col) for col in zip(*contents))
    if any(common):
        return [p.shift(common) if p.terms else p for p in polys]
    return polys


def _sparse(polys: Sequence[Poly]) -> SparseRow:
    """A dense polynomial row as a sparse one: column -> nonzero entry."""
    return {j: p for j, p in enumerate(polys) if p.terms}


def _dot(row: SparseRow, ann: Sequence[Poly]) -> Poly:
    """The polynomial dot product of a sparse row with a dense one."""
    acc: set = set()
    for j, x in row.items():
        a = ann[j]
        if a.terms:
            acc ^= (x * a).terms
    return Poly(frozenset(acc), ann[0].n)


def _annihilated(row: SparseRow, annihilator: Sequence[Sequence[Poly]]) -> bool:
    """Whether a sparse row has dot product 0 with every annihilator row."""
    return all(not _dot(row, a).terms for a in annihilator)


def _bareiss_jordan(ctx: FieldContext, rows: list[list[Poly]], search_cols: int):
    """One-step fraction-free Gauss-Jordan elimination, in place.

    Entries stay polynomial: each update (p*a + c*b) is exactly divisible
    by the previous pivot.  Chained fraction arithmetic would grow
    exponentially on dense inputs, and reducing to lowest terms at every
    step needs a multivariate gcd, which is slower still; dividing by the
    known factor sidesteps both.  After the sweep every pivot entry equals
    the final pivot, so one division per entry recovers the reduced
    echelon form.  Returns (rank, pivots, final pivot).

    The matrices are sparse, so zeros are never multiplied: an entry
    whose own value is zero updates to c*b/prev, one whose pivot-row
    partner is zero (or whose row has c = 0) to p*a/prev, and a zero
    stays zero.  The p*a/prev case is a plain rescaling, so when p equals
    prev such entries, and whole rows with c = 0, are left as they are;
    every pivot entry still ends equal to the final pivot.  An inexact
    division means a broken kernel and raises EliminationInvariant.
    """
    prev = ctx._one_poly
    pivots: list[int] = []
    r = 0
    nrows = len(rows)
    try:
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
                    new.append(t if trivial or not t.terms else _divexact(t, prev))
                rows[i] = new
            pivots.append(col)
            prev = p
            r += 1
            if r == nrows:
                break
    except NotDivisible as exc:
        raise EliminationInvariant("an update is not divisible by the previous pivot") from exc
    return r, pivots, prev


# ---------------------------------------------------------------------------
# rank lower bounds at a point of GF(2^16)^n
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


def _rank_at_point(ctx: FieldContext, rows: Sequence[SparseRow]) -> int:
    """Rank over GF(2^16) of the sparse polynomial rows with each a_i
    replaced by the fixed value x^(7919 * i), x the generator of
    GF(2^16)^*.

    Every minor of the substituted matrix is the substituted minor of the
    original, so this rank never exceeds the rank over F: it is an exact
    lower bound.  Schwartz (1980) and Zippel (1979) bound how rarely a
    point falls short, which only matters for speed.

    The rows stay sparse through the elimination, as in structured
    Gaussian elimination (LaMacchia and Odlyzko, 1990): each substituted
    row is reduced against the pivot rows found so far, keyed by their
    first column and scaled to 1 there, until it vanishes or opens a new
    pivot.  Rows with at most two entries, such as slot products, stay
    that short.
    """
    exp, log = _gf_tables()
    logs = [_POINT_LOG_STEP * (i + 1) for i in range(ctx.n)]

    def value(p: Poly) -> int:
        v = 0
        for t in p.terms:
            v ^= exp[sum(map(mul, t, logs)) % _GF_ORDER]
        return v

    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        vec = {}
        for j, p in row.items():
            v = value(p)
            if v:
                vec[j] = v
        while vec:
            col = min(vec)
            prow = pivots.get(col)
            if prow is None:
                inv = _GF_ORDER - log[vec[col]]
                pivots[col] = {j: exp[log[v] + inv] for j, v in vec.items()}
                break
            # vec -= vec[col] * prow, which clears col since prow[col] = 1
            lc = log[vec[col]]
            for j, b in prow.items():
                v = vec.get(j, 0) ^ exp[lc + log[b]]
                if v:
                    vec[j] = v
                else:
                    del vec[j]
    return len(pivots)


def _spans(
    ctx: FieldContext, annihilator: Sequence[Sequence[Poly]], dim: int, rows: Sequence[SparseRow]
) -> bool | None:
    """Whether sparse polynomial rows span the space of dimension dim cut
    out by the annihilator rows, as far as the rank at the point decides.

    False when some row has a nonzero dot product with an annihilator row,
    so lies outside the space; True when every row lies inside and the rows
    have rank at least dim at the point of ``_rank_at_point``, an exact
    lower bound on their rank over F, so their span fills the space; None
    when that rank falls short, and only an exact span can decide.
    """
    if not all(_annihilated(r, annihilator) for r in rows):
        return False
    if _rank_at_point(ctx, rows) >= dim:
        return True
    return None


class SqSubspace:
    """An F^2-subspace of F with a canonical reduced row basis.

    Every space but ``zero`` is built by one constructor,
    ``from_poly_rows``, from sparse polynomial rows (column -> ``Poly``):
    an element's 2-basis row times its denominator (``field._poly_row``),
    or the rows of all slot products at once (``field._product_rows``).
    Such a row has no fraction to clear, so the elimination sees the
    elements' own sizes, and a caller keeps it small by keeping its
    operands in lowest terms, as ``common_factor`` does with every slot
    it chooses.  ``span`` takes field elements and ``from_rows`` dense
    rows of field elements, and both reach ``from_poly_rows``.

    Besides the canonical rows the object keeps ``spanners``, its input
    rows as sparse polynomial rows, which span the same space.  Canonical
    entries are ratios of elimination minors and grow with the dimension,
    so ``sum_with`` stacks the spanners instead; the result is identical.
    An intersection keeps one primitive row per vector it reads off:
    polynomial entries without a common monomial factor, so exponents stay
    bounded along a chain of intersections.

    The ``annihilator`` is computed on first use and cached: one row of
    polynomials per non-pivot column j, with a[j] = 1 and
    a[p_i] = rows[i][j] for the pivot p_i of row i (signs vanish in
    characteristic 2), cleared to polynomial entries.  A row x lies in
    the space exactly when x . a = 0 for every annihilator row: x minus
    its pivot combination of the basis has zero pivot entries, and its
    entry at j is x . a.  Membership and ``contains_subspace`` test those
    dot products; ``intersection`` reads its result off the elimination
    of the inputs' annihilator rows stacked together.
    """

    __slots__ = ("ctx", "rows", "pivots", "spanners", "_annihilator", "_elements")

    def __init__(
        self,
        ctx: FieldContext,
        rows: Sequence[Row],
        pivots: Sequence[int],
        spanners: Sequence[SparseRow],
    ):
        self.ctx = ctx
        self.rows = tuple(rows)
        self.pivots = tuple(pivots)
        self.spanners = tuple(spanners)
        self._annihilator = None
        self._elements = None

    @classmethod
    def from_poly_rows(cls, ctx: FieldContext, raw_rows: Iterable[SparseRow]) -> SqSubspace:
        """F-span of sparse polynomial coordinate rows (empty rows are
        dropped): one fraction-free elimination, after which every pivot
        entry equals the final pivot, and one division per entry reads off
        the unique reduced echelon form."""
        raw = [row for row in raw_rows if row]
        ncols = len(ctx.patterns)
        zero = ctx._zero_poly
        dense = []
        for row in raw:
            polys = [zero] * ncols
            for j, p in row.items():
                polys[j] = p
            dense.append(polys)
        rank, pivots, last = _bareiss_jordan(ctx, dense, ncols)
        rows = []
        for polys, pc in zip(dense[:rank], pivots):
            if polys[pc].terms != last.terms:
                raise EliminationInvariant("pivot normalization lost during elimination")
            rows.append(tuple(FieldElement(ctx, e, last) if e.terms else ctx.zero for e in polys))
        return cls(ctx, rows, pivots, raw)

    @classmethod
    def span(cls, ctx: FieldContext, generators: Iterable[FieldElement]) -> SqSubspace:
        """F^2-span of the given field elements (zeros are dropped), from
        their sparse rows."""
        return cls.from_poly_rows(ctx, [_poly_row(g) for g in generators if g])

    @classmethod
    def zero(cls, ctx: FieldContext) -> SqSubspace:
        return cls(ctx, (), (), ())

    @classmethod
    def from_rows(cls, ctx: FieldContext, raw_rows: Iterable[Sequence[FieldElement]]) -> SqSubspace:
        """F-span of dense coordinate rows of field elements, each scaled
        to polynomial entries."""
        return cls.from_poly_rows(ctx, [_sparse(_cleared(ctx, row)[0]) for row in raw_rows])

    # -- structure -----------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return not self.rows

    def elements(self) -> tuple[FieldElement, ...]:
        """The reduced basis rows turned back into field elements, converted
        on first use and cached."""
        if self._elements is None:
            self._elements = tuple(_from_dense(self.ctx, row) for row in self.rows)
        return self._elements

    def __eq__(self, other):
        if not isinstance(other, SqSubspace):
            return NotImplemented
        return self.ctx == other.ctx and self.rows == other.rows

    def __hash__(self):
        return hash((self.ctx, self.rows))

    def __repr__(self):
        return f"SqSubspace(dim={self.dim}, n={self.ctx.n})"

    # -- membership ------------------------------------------------------------

    def _reduce(self, row: Sequence[FieldElement]):
        """Eliminate a coordinate row against the basis; returns the
        coefficient taken at each pivot and the remainder."""
        rem = list(row)
        coeffs = []
        for brow, pc in zip(self.rows, self.pivots):
            c = rem[pc]
            coeffs.append(c)
            if c:
                rem = [a + c * b for a, b in zip(rem, brow)]
        return coeffs, rem

    def reduce_row(self, row: Sequence[FieldElement]) -> list[FieldElement]:
        """Remainder of a coordinate row after elimination against the basis."""
        return self._reduce(row)[1]

    def coordinates_of(self, f: FieldElement) -> tuple[FieldElement, ...] | None:
        """Witness coefficients c_i with f = sum c_i^2 * g_i over the reduced
        basis g_i, or None when f is not in the subspace."""
        coeffs, rem = self._reduce(f.frobenius_decompose().dense())
        return None if any(rem) else tuple(coeffs)

    @property
    def annihilator(self) -> tuple[tuple[Poly, ...], ...]:
        """Primitive polynomial rows whose common null space is this space."""
        if self._annihilator is None:
            ctx = self.ctx
            ncols = len(ctx.patterns)
            out = []
            for j in sorted(set(range(ncols)) - set(self.pivots)):
                raw = [ctx.zero] * ncols
                raw[j] = ctx.one
                for row, pc in zip(self.rows, self.pivots):
                    raw[pc] = row[j]
                out.append(tuple(_primitive(_cleared(ctx, raw)[0])))
            self._annihilator = tuple(out)
        return self._annihilator

    def _annihilates(self, row: SparseRow) -> bool:
        """Whether a sparse coordinate row, scaled to polynomials, lies in
        the space."""
        return _annihilated(row, self.annihilator)

    def __contains__(self, f: FieldElement) -> bool:
        return self._annihilates(_poly_row(f))

    def contains_subspace(self, other: SqSubspace) -> bool:
        return all(self._annihilates(_sparse(_cleared(self.ctx, row)[0])) for row in other.rows)

    def is_span_of(
        self, elements: Sequence[FieldElement], rows: Sequence[SparseRow] | None = None
    ) -> bool:
        """Whether the F^2-span of elements is exactly this space.

        Three facts decide it.  Every element lies in the space, by the
        annihilator dot products, so their span is inside it.  Their rows,
        scaled to polynomials, have rank at least dim at the fixed point of
        ``_rank_at_point``; substituting values for the variables can only
        lower a rank, since a minor that vanishes over F vanishes at every
        point, so the span has dimension at least dim and fills the space.
        Only when the rank at the point falls short are the elements
        spanned exactly and compared.  The first two facts are ``_spans``,
        on the elements' sparse rows: rows, when given, each up to a
        nonzero scale (``field._product_rows`` builds them for slot
        products), else ``field._poly_row`` of each element.
        """
        if rows is None:
            rows = [_poly_row(e) for e in elements]
        decided = _spans(self.ctx, self.annihilator, self.dim, rows)
        if decided is None:
            return SqSubspace.span(self.ctx, elements) == self
        return decided

    # -- lattice operations -----------------------------------------------------

    def sum_with(self, other: SqSubspace) -> SqSubspace:
        return SqSubspace.from_poly_rows(self.ctx, self.spanners + other.spanners)

    def intersection(self, *others: SqSubspace) -> SqSubspace:
        """The intersection of this space with all the others.

        It is the null space of the span of every input's annihilator
        rows: one fraction-free elimination of those rows stacked
        together, then one null vector per non-pivot column, read off
        the eliminated rows, and ``from_poly_rows`` for the canonical
        basis.
        """
        ctx = self.ctx
        spaces = (self, *others)
        if any(s.is_zero for s in spaces):
            return SqSubspace.zero(ctx)
        if not others:
            return self
        ncols = len(ctx.patterns)
        stacked = [list(a) for s in spaces for a in s.annihilator]
        rank, pivots, last = _bareiss_jordan(ctx, stacked, ncols)
        zero = ctx._zero_poly
        vecs = []
        # the eliminated rows are last times the reduced ones, so the null
        # vector of column j, scaled by last, has last at j and the row
        # entries at the pivots
        for j in sorted(set(range(ncols)) - set(pivots)):
            vec = [zero] * ncols
            vec[j] = last
            for row, pc in zip(stacked[:rank], pivots):
                vec[pc] = row[j]
            vecs.append(_sparse(_primitive(vec)))
        return SqSubspace.from_poly_rows(ctx, vecs)

    def to_json(self):
        return [
            [[list(d), c.to_json()] for d, c in zip(self.ctx.patterns, row) if c]
            for row in self.rows
        ]


def left_kernel(
    ctx: FieldContext, rows: Sequence[Sequence[FieldElement]]
) -> list[list[FieldElement]]:
    """Basis of {x : x * M = 0} for the matrix M with the given rows."""
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    zero = Poly(frozenset(), ctx.n)
    aug: list[list[Poly]] = []
    scales: list[Poly] = []
    for i, row in enumerate(rows):
        polys, scale = _cleared(ctx, row)
        scales.append(scale)
        aug.append(polys + [ctx._one_poly if j == i else zero for j in range(m)])
    rank, _, _ = _bareiss_jordan(ctx, aug, ncols)
    out = []
    for row in aug[rank:]:
        # the kernel was computed against scaled rows; fold the per-row
        # scale back in so the combination annihilates the originals
        out.append(
            [
                FieldElement(ctx, x * s, ctx._one_poly) if x.terms else ctx.zero
                for x, s in zip(row[ncols:], scales)
            ]
        )
    return out


def representation_over(
    ctx: FieldContext, generators: Sequence[FieldElement], f: FieldElement
) -> tuple[FieldElement, ...] | None:
    """Coefficients c_i with f = sum c_i^2 * generators[i], or None.

    Unlike SqSubspace.coordinates_of, the combination is over the given
    generators themselves, not over a reduced basis.
    """
    rows = [g.frobenius_decompose().dense() for g in generators]
    rows.append(f.frobenius_decompose().dense())
    # x * rows = 0 with x_f != 0 gives f = sum (x_i / x_f) * g_i on the
    # coordinate rows (signs vanish in characteristic 2)
    for x in left_kernel(ctx, rows):
        if x[-1]:
            return tuple(c / x[-1] for c in x[:-1])
    return None
