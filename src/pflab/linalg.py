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
x . a = 0 exactly for the rows x of the space, one per non-pivot column.
Membership is then one polynomial dot product per annihilator row, and
an intersection is the space annihilated by all the inputs' annihilator
rows together.  A spanning set is proved by two facts: each row is
annihilated, so the span is inside the space, and the rows have rank at
least the space's dimension, so it fills the space.  The rank is
decided by ``_has_rank``, the one exact rank test: a lower bound at a
fixed point of GF(2^16)^n (``_rank_at_point``) proves it without an
elimination, and only a rank that falls short there is spanned exactly.
``SqSubspace.is_span_of`` is the two facts together; a caller that has
already tested its rows against the space calls ``_has_rank`` alone.
The point is defined once, by ``_Point``, which
``bilinear._next_slot`` also screens its candidates at.  Rows
that are spanned, tested against an annihilator or ranked at the point
are sparse (column -> polynomial, ``field._poly_row``): an element's
coordinates times its denominator, so no fraction is cleared on the way
in, and a slot product has at most two nonzero coordinates.

Every elimination is ``_bareiss_jordan`` on polynomial rows, and every
null space is read off one by ``_null_vectors``: a space's annihilator
off its own eliminated rows, ``left_kernel`` off a matrix's columns,
and ``SqSubspace.null_space`` (an intersection, the fallback space of
``bilinear._stable_subspace``) off a matrix eliminated with its columns
reversed.  By matroid duality, the pivots taken from the right are the
complement of the null space's reduced-echelon pivots, so that read-off
is already the reduced basis, every row times the one final pivot, and
no second elimination is needed.

``_bareiss_jordan`` rescales lazily.  A sweep would multiply every row
whose pivot-column entry is 0 by p_k / p_(k-1) at each pivot p_k; those
factors telescope to p_k / p_j, so each row records the pivot p_j it
was last brought to and is brought up to date once, when it is next
updated, chosen as the pivot row, or at the end.  Each catch-up
division is exact, because its quotient is the entry the eager sweep
would hold, an elimination minor, and the output is the eager sweep's
row for row.
"""

from __future__ import annotations

from array import array
from functools import cache
from operator import mul
from typing import Iterable, Sequence

from .errors import EliminationInvariant, NotDivisible
from .field import (
    FieldContext,
    FieldElement,
    Poly,
    _divexact,
    _poly_row,
    _row_element,
)

__all__ = ["SqSubspace"]

# a polynomial coordinate row by column, zero entries left out
SparseRow = dict[int, Poly]


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


def _caught_up(row: list[Poly], target: Poly, level: Poly) -> list[Poly]:
    """A row of ``_bareiss_jordan`` last brought to the pivot level, brought
    to the pivot target: each entry times target / level, one product and
    one exact division per nonzero entry, with no division when level is 1
    and nothing to do when the two pivots are equal."""
    if target.terms == level.terms:
        return row
    if level.is_one():
        return [target * a if a.terms else a for a in row]
    return [_divexact(target * a, level) if a.terms else a for a in row]


def _bareiss_jordan(ctx: FieldContext, rows: list[list[Poly]], search_cols: int):
    """One-step fraction-free Gauss-Jordan elimination, in place.

    Entries stay polynomial: each update (p*a + c*b) is exactly divisible
    by the previous pivot.  Chained fraction arithmetic would grow
    exponentially on dense inputs, and reducing to lowest terms at every
    step needs a multivariate gcd, which is slower still; dividing by the
    known factor sidesteps both.  After the sweep every pivot entry equals
    the final pivot, so one division per entry recovers the reduced
    echelon form.  Returns (rank, pivots, final pivot).

    The matrices are sparse, so zeros are never multiplied, and a row
    whose pivot-column entry is 0 is not touched: the sweep would only
    rescale it by p_k / p_(k-1), p_k the pivot of step k.  Those factors
    telescope, so a row last brought to the pivot p_j of step j stands
    for itself times p_k / p_j after step k, and each row records its p_j.
    A skipped row is brought up to date only when it is needed: chosen
    as the pivot row (``_caught_up`` to p_(k-1), one product and one
    division per entry), or at the end (to the final pivot).  Every such
    division is exact, since its quotient is the entry the eager sweep
    would hold, an elimination minor.  A row updated at step k needs no
    catch-up at all: its update (p*a + c*b) / p_(k-1), written in its
    stored entries a and c, is (p*a + c*b) / p_j, exact for the same
    reason, and costs what the eager update does.  An entry whose
    pivot-row partner is zero updates to p*a / p_j, which is a when p
    equals p_j.  The pivot search tests entries only for zero, which a
    nonzero scale does not move, so the pivots, the rank, the final pivot
    and every row at the end, the rows past the rank too, are those of
    the eager sweep.  An inexact division means a broken kernel and
    raises EliminationInvariant.
    """
    prev = ctx._one_poly
    # level[i]: the pivot row i was last brought to
    level = [prev] * len(rows)
    pivots: list[int] = []
    r = 0
    nrows = len(rows)
    try:
        for col in range(search_cols):
            pr = next((i for i in range(r, nrows) if rows[i][col].terms), None)
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            level[r], level[pr] = level[pr], level[r]
            prow = rows[r] = _caught_up(rows[r], prev, level[r])
            p = prow[col]
            for i in range(nrows):
                c = rows[i][col]
                if i == r or not c.terms:
                    continue
                q = level[i]
                trivial = q.is_one()
                same = p.terms == q.terms
                new = []
                for a, b in zip(rows[i], prow):
                    if not b.terms:
                        if not a.terms or same:
                            new.append(a)
                            continue
                        t = p * a
                    elif a.terms:
                        t = p * a + c * b
                    else:
                        t = c * b
                    new.append(t if trivial or not t.terms else _divexact(t, q))
                rows[i] = new
                level[i] = p
            level[r] = p
            pivots.append(col)
            prev = p
            r += 1
            if r == nrows:
                break
        for i in range(nrows):
            rows[i] = _caught_up(rows[i], prev, level[i])
    except NotDivisible as exc:
        raise EliminationInvariant("an update is not divisible by the previous pivot") from exc
    return r, pivots, prev


def _null_vectors(
    ctx: FieldContext,
    rows: Sequence[Sequence[Poly]],
    pivots: Sequence[int],
    last: Poly,
    ncols: int,
    reverse: bool = False,
) -> list[list[Poly]]:
    """The null space of a polynomial matrix eliminated by
    ``_bareiss_jordan``, given its rows, pivots and final pivot last.

    The first len(pivots) eliminated rows are last times the reduced
    echelon rows, so the null vector of non-pivot column j, scaled by
    last, has last at j and column j's entries at the pivots (signs
    vanish in characteristic 2).  Read forward, as for an annihilator or
    ``left_kernel``, each vector is made primitive, a zero column gives
    the unit vector at j, and the vectors are dense.

    With reverse, the rows were eliminated with their columns reversed,
    and the vectors come out in the matrix's own column order, last times
    the reduced echelon rows of the null space V, ascending by pivot.  By
    matroid duality the pivots taken from the right are the complement of
    V's reduced-echelon pivots, so the non-pivot columns are exactly those,
    and no second elimination is needed.  A vector without last at its own
    column, or with a nonzero entry to the left of it, means the pivots
    were wrong and raises EliminationInvariant, as do pivots that are not
    ascending and inside the matrix.
    """
    if len(pivots) > len(rows) or not all(
        0 <= p < q for p, q in zip(pivots, [*pivots[1:], ncols])
    ):
        raise EliminationInvariant("pivots out of order or outside the matrix")
    zero = ctx._zero_poly
    free = sorted(set(range(ncols)) - set(pivots))
    out = []
    for j in reversed(free) if reverse else free:
        vec = [zero] * ncols
        for row, pc in zip(rows, pivots):
            vec[pc] = row[j]
        if reverse:
            vec[j] = last
            vec.reverse()
            k = ncols - 1 - j
            if vec[k].terms != last.terms or any(p.terms for p in vec[:k]):
                raise EliminationInvariant("null vector not in reduced echelon form")
            out.append(vec)
        else:
            vec[j] = last if any(p.terms for p in vec) else ctx._one_poly
            out.append(_primitive(vec))
    return out


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


class _Point:
    """The fixed point of GF(2^16)^n at which ranks are bounded and slot
    candidates screened: each a_i is x^(7919 * i), x the generator of
    GF(2^16)^*.  One is made per call of ``_rank_at_point`` or
    ``bilinear._next_slot`` and per space whose row or annihilator values
    are taken (``_values_at_point``), and it remembers the value of each
    monomial it has met, since the product rows of a family repeat their
    monomials.

    Substitution is a ring homomorphism F[a] -> GF(2^16), so a polynomial
    with a nonzero value is nonzero, and a minor that is 0 over F is 0
    here."""

    __slots__ = ("exp", "log", "_logs", "_values")

    def __init__(self, ctx: FieldContext):
        self.exp, self.log = _gf_tables()
        self._logs = [_POINT_LOG_STEP * (i + 1) for i in range(ctx.n)]
        self._values: dict[tuple[int, ...], int] = {}

    def monomial_log(self, t: tuple[int, ...]) -> int:
        """The log of the monomial a^t at the point."""
        return sum(map(mul, t, self._logs)) % _GF_ORDER

    def value(self, p: Poly) -> int:
        """The value of p at the point."""
        values = self._values
        v = 0
        for t in p.terms:
            m = values.get(t)
            if m is None:
                m = values[t] = self.exp[self.monomial_log(t)]
            v ^= m
        return v


def _values_at_point(
    ctx: FieldContext, rows: Iterable[Sequence[Poly]]
) -> tuple[tuple[int, ...], ...]:
    """The entries of dense polynomial rows at the fixed point of
    ``_Point``, row by row."""
    value = _Point(ctx).value
    return tuple(tuple(map(value, polys)) for polys in rows)


def _rank_at_point(ctx: FieldContext, rows: Sequence[SparseRow]) -> int:
    """Rank over GF(2^16) of the sparse polynomial rows at the fixed point
    of ``_Point``.

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
    point = _Point(ctx)
    exp, log, value = point.exp, point.log, point.value

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


def _has_rank(ctx: FieldContext, rows: Sequence[SparseRow], dim: int) -> bool:
    """Whether sparse polynomial rows have rank at least dim over F: the
    one exact rank test behind every spanning certificate.

    The rank at the point of ``_rank_at_point``, an exact lower bound,
    decides when it reaches dim; only when it falls short are the rows
    spanned exactly (``SqSubspace.from_poly_rows``).  A caller that has
    put every row inside a space of dimension dim learns from True that
    the rows span it.
    """
    return _rank_at_point(ctx, rows) >= dim or SqSubspace.from_poly_rows(ctx, rows).dim >= dim


class SqSubspace:
    """An F^2-subspace of F with a canonical reduced row basis.

    Every space but ``zero`` is built by one of two constructors.
    ``from_poly_rows`` spans sparse polynomial rows (column -> ``Poly``):
    an element's 2-basis row times its denominator (``field._poly_row``),
    or the rows of all slot products at once (``field._product_rows``).
    Such a row has no fraction to clear, so the elimination sees the
    elements' own sizes, and a caller keeps it small by keeping its
    operands in lowest terms, as ``common_factor`` does with every slot
    it chooses.  ``span`` takes field elements, through their rows.
    ``null_space`` takes the rows the space is the null space of, as
    ``intersection`` and ``bilinear._stable_subspace`` do; it eliminates
    them once, with their columns reversed, and the null vectors it reads
    off are the space's eliminated rows, with no second elimination.

    The space keeps its eliminated rows, polynomial rows equal to one
    common scale ``last`` times the reduced ones: the final pivot of the
    elimination that built it, either way.  The canonical ``rows`` of
    field elements, the ``elements()`` and the annihilator are read off
    them, each on first use, so building, intersecting or testing a space
    builds no field element; ``dim`` counts them.

    The ``annihilator`` is computed on first use and cached: the null
    space of the eliminated rows (``_null_vectors``), one primitive row
    of polynomials per non-pivot column j, with a[j] = last and
    a[p_i] = the eliminated row i's entry at j for the pivot p_i of row i,
    read straight off the elimination, with no fraction to clear.  A row
    x lies in the space exactly when x . a = 0 for every annihilator row:
    x minus its pivot combination of the basis has zero pivot entries,
    and its entry at j is x . a up to a nonzero scale.  Membership tests
    those dot products; ``intersection`` is the ``null_space`` of the
    inputs' annihilator rows stacked together, read off with the same
    ``_null_vectors``.  1's row is e_0, so ``contains_one`` reads column 0
    of the annihilator rows.  Next to the annihilator, the entries of the
    annihilator rows and of the eliminated rows at the fixed point of
    ``_Point`` are taken on first use and cached, for
    ``bilinear._next_slot``'s screen and candidates.
    """

    __slots__ = (
        "ctx", "pivots", "_eliminated", "_last", "_rows", "_annihilator", "_elements",
        "_row_values", "_annihilator_values",
    )

    def __init__(
        self,
        ctx: FieldContext,
        pivots: Sequence[int],
        eliminated: Sequence[Sequence[Poly]],
        last: Poly,
    ):
        self.ctx = ctx
        self.pivots = tuple(pivots)
        self._eliminated = tuple(eliminated)
        self._last = last
        self._rows = None
        self._annihilator = None
        self._elements = None
        self._row_values = None
        self._annihilator_values = None

    @classmethod
    def from_poly_rows(cls, ctx: FieldContext, raw_rows: Iterable[SparseRow]) -> SqSubspace:
        """F-span of sparse polynomial coordinate rows (empty rows are
        dropped): one fraction-free elimination, after which every pivot
        entry equals the final pivot, and one division per entry reads off
        the unique reduced echelon form."""
        ncols = len(ctx.patterns)
        zero = ctx._zero_poly
        dense = []
        for row in filter(None, raw_rows):
            polys = [zero] * ncols
            for j, p in row.items():
                polys[j] = p
            dense.append(polys)
        rank, pivots, last = _bareiss_jordan(ctx, dense, ncols)
        for polys, pc in zip(dense, pivots):
            if polys[pc].terms != last.terms:
                raise EliminationInvariant("pivot normalization lost during elimination")
        return cls(ctx, pivots, dense[:rank], last)

    @classmethod
    def span(cls, ctx: FieldContext, generators: Iterable[FieldElement]) -> SqSubspace:
        """F^2-span of the given field elements (zeros are dropped), from
        their sparse rows."""
        return cls.from_poly_rows(ctx, [_poly_row(g) for g in generators if g])

    @classmethod
    def zero(cls, ctx: FieldContext) -> SqSubspace:
        return cls(ctx, (), (), ctx._one_poly)

    @classmethod
    def null_space(cls, ctx: FieldContext, rows: Iterable[Sequence[Poly]]) -> SqSubspace:
        """The space of the rows x with x . r = 0 for every dense
        polynomial row r, from one elimination of the rows with their
        columns reversed: ``_null_vectors`` reads the eliminated rows off
        it, last times the reduced ones, with no second elimination."""
        ncols = len(ctx.patterns)
        flipped = [list(reversed(r)) for r in rows if any(p.terms for p in r)]
        _, pivots, last = _bareiss_jordan(ctx, flipped, ncols)
        vecs = _null_vectors(ctx, flipped, pivots, last, ncols, reverse=True)
        free = sorted(set(range(ncols)) - {ncols - 1 - p for p in pivots})
        return cls(ctx, free, vecs, last)

    # -- structure -----------------------------------------------------------

    @property
    def rows(self) -> tuple[tuple[FieldElement, ...], ...]:
        """The canonical reduced basis: dense rows of field elements, each
        eliminated row divided by last.  Built on first read and cached;
        hashing and ``to_json`` read it, while building, intersecting,
        comparing and testing a space do not."""
        if self._rows is None:
            ctx, last = self.ctx, self._last
            self._rows = tuple(
                tuple(FieldElement(ctx, e, last) if e.terms else ctx.zero for e in polys)
                for polys in self._eliminated
            )
        return self._rows

    @property
    def dim(self) -> int:
        return len(self._eliminated)

    @property
    def is_zero(self) -> bool:
        return not self._eliminated

    def elements(self) -> tuple[FieldElement, ...]:
        """The reduced basis rows turned back into field elements, converted
        on first use and cached.  Eliminated row e stands for the element
        (sum e_j^2 * a^(d_j)) / last^2, d_j the pattern of column j
        (``field._row_element``, which ``bilinear._next_slot`` reads its
        accepted slot off with, too)."""
        if self._elements is None:
            self._elements = tuple(
                _row_element(self.ctx, _sparse(polys), self._last) for polys in self._eliminated
            )
        return self._elements

    def __eq__(self, other):
        """Whether the two spaces are equal, fraction-free.  They are when
        their reduced bases are, row for row: the same pivots, and each
        eliminated row e of this space and f of the other, e / last and
        f / other.last, cross-multiplied, other.last * e == last * f,
        entry by entry.  No fraction is put in lowest terms, so equal
        spaces built with different final pivots compare with one product
        per nonzero entry and no gcd."""
        if not isinstance(other, SqSubspace):
            return NotImplemented
        if self.ctx != other.ctx or self.pivots != other.pivots:
            return False
        a, b = self._last, other._last
        return all(
            (b * e).terms == (a * f).terms
            for r, s in zip(self._eliminated, other._eliminated)
            for e, f in zip(r, s)
        )

    def __hash__(self):
        # equal spaces have equal canonical rows, so this agrees with __eq__
        return hash((self.ctx, self.rows))

    def __repr__(self):
        return f"SqSubspace(dim={self.dim}, n={self.ctx.n})"

    # -- membership ------------------------------------------------------------

    def coordinates_of(self, f: FieldElement) -> tuple[FieldElement, ...] | None:
        """Witness coefficients c_i with f = sum c_i^2 * g_i over the reduced
        basis g_i, or None when f is not in the subspace.  The reduced basis
        has the identity at its pivots, so the c_i are f's own 2-basis
        coordinates there: the entries of its row (``field._poly_row``)
        over its denominator, read at the pivots only."""
        row = _poly_row(f)
        if not self._annihilates(row):
            return None
        ctx, zero = self.ctx, self.ctx._zero_poly
        return tuple(FieldElement(ctx, row.get(pc, zero), f.den) for pc in self.pivots)

    @property
    def annihilator(self) -> tuple[tuple[Poly, ...], ...]:
        """Primitive polynomial rows whose common null space is this space."""
        if self._annihilator is None:
            vecs = _null_vectors(
                self.ctx, self._eliminated, self.pivots, self._last, len(self.ctx.patterns)
            )
            self._annihilator = tuple(tuple(v) for v in vecs)
        return self._annihilator

    @property
    def row_values(self) -> tuple[tuple[int, ...], ...]:
        """The eliminated rows' entries at the fixed point of ``_Point``,
        row by row; taken on first use and cached."""
        if self._row_values is None:
            self._row_values = _values_at_point(self.ctx, self._eliminated)
        return self._row_values

    @property
    def annihilator_values(self) -> tuple[tuple[int, ...], ...]:
        """The annihilator rows' entries at the fixed point of ``_Point``,
        row by row; taken on first use and cached."""
        if self._annihilator_values is None:
            self._annihilator_values = _values_at_point(self.ctx, self.annihilator)
        return self._annihilator_values

    def contains_one(self) -> bool:
        """Whether 1 lies in the space.  1's row is e_0, so it does when
        column 0 of every annihilator row is 0; the whole space has no
        annihilator rows, and the zero space has e_0 among them."""
        return not any(a[0].terms for a in self.annihilator)

    def _annihilates(self, row: SparseRow) -> bool:
        """Whether a sparse coordinate row, scaled to polynomials, lies in
        the space."""
        return _annihilated(row, self.annihilator)

    def __contains__(self, f: FieldElement) -> bool:
        return self._annihilates(_poly_row(f))

    def is_span_of(self, rows: Sequence[SparseRow]) -> bool:
        """Whether the elements of some sparse rows span exactly this space.

        Each row is an element's 2-basis row up to a nonzero scale
        (``field._poly_row`` of an element, or ``field._product_rows`` of
        slot products, with no product built as a field element); a scale
        moves neither a dot product's vanishing nor a rank.  Two facts
        decide it, each checked once.  Every row has dot product 0 with
        the annihilator rows, so the span is inside the space.  The rows
        have rank at least dim (``_has_rank``), so the span fills it.
        """
        return all(self._annihilates(r) for r in rows) and _has_rank(self.ctx, rows, self.dim)

    # -- lattice operations -----------------------------------------------------

    def intersection(self, *others: SqSubspace) -> SqSubspace:
        """The intersection of this space with all the others.

        It is the null space of the span of every input's annihilator
        rows: ``null_space`` of those rows stacked together, one
        fraction-free elimination whose read-off is already the reduced
        basis, every row with the scale last.
        """
        spaces = (self, *others)
        if any(s.is_zero for s in spaces):
            return SqSubspace.zero(self.ctx)
        if not others:
            return self
        return SqSubspace.null_space(self.ctx, [a for s in spaces for a in s.annihilator])

    def to_json(self):
        return [
            [[list(d), c.to_json()] for d, c in zip(self.ctx.patterns, row) if c]
            for row in self.rows
        ]


def left_kernel(ctx: FieldContext, rows: Sequence[SparseRow]) -> list[SparseRow]:
    """Basis of {x : x * M = 0} for the polynomial matrix M with the given
    sparse rows, as sparse rows indexed by the rows of M.

    It is the null space of M's columns: the columns are eliminated as
    rows, and ``_null_vectors`` reads one primitive vector off per
    non-pivot row of M, forward, so the basis is not reduced.  Scaling a
    column of M by a nonzero polynomial leaves the kernel as it is, so a
    caller may clear each column of its own denominators, and no row
    scale has to be folded back.  No certificate calls it; it stays, with
    its ``bilinear.left_kernel`` binding, because ``perfbench``'s tracer
    hooks it and ``perfbench/test_perfbench.py`` reads that binding.  A
    space that must be canonical is a ``SqSubspace.null_space``.
    """
    zero = ctx._zero_poly
    columns = sorted({j for row in rows for j in row})
    transposed = [[row.get(j, zero) for row in rows] for j in columns]
    _, pivots, last = _bareiss_jordan(ctx, transposed, len(rows))
    return [_sparse(v) for v in _null_vectors(ctx, transposed, pivots, last, len(rows))]
