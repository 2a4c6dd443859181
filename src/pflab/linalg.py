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
rows together.  No rank is taken to prove that rows span a space: every
spanning set a certificate claims is the nontrivial slot products of a
bilinear Pfister form, inside a space that misses 1, and the anisotropy
lemma of ``bilinear`` turns that and a slot count into the span.  Rows
that are spanned or tested against an annihilator are sparse (column ->
polynomial, ``field._poly_row``): an element's coordinates times its
denominator, so no fraction is cleared on the way in, and a slot product
has at most two nonzero coordinates.

Every elimination is ``_bareiss_jordan`` on polynomial rows, and every
null space is read off one by ``_null_vectors``: a space's annihilator
off its own eliminated rows, ``left_kernel`` off a matrix's columns,
and ``SqSubspace.null_space`` (an intersection, the fallback space of
``bilinear._stable_subspace``) off a matrix eliminated with its columns
reversed.  By matroid duality, the pivots taken from the right are the
complement of the null space's reduced-echelon pivots, so that read-off
is already the reduced basis, every row times the one final pivot, and
no second elimination is needed.

``_bareiss_jordan`` peels before it sweeps.  About half the rows it is
given have a single nonzero entry, a monomial's row or a slot product's,
and such a row in column j spans the unit row e_j, itself a row of the
reduced echelon form: it is taken as it is, column j is cleared in every
other row, and the peel repeats on the rows that clearing leaves with
one entry, with no product and no division.  Only the rows left go
through the fraction-free sweep (Bareiss, Math. Comp. 22, 1968), and
each peeled row is written with the sweep's final pivot, the one scale
every consumer divides by.  The sweep rescales lazily.  It would
multiply every row whose pivot-column entry is 0 by p_k / p_(k-1) at
each pivot p_k; those factors telescope to p_k / p_j, so each row
records the pivot p_j it was last brought to and is brought up to date
once, when it is next updated, chosen as the pivot row, or at the end.
Each catch-up division is exact, because its quotient is the entry the
eager sweep would hold, an elimination minor, and the sweep's output is
the eager sweep's row for row.
"""

from __future__ import annotations

from itertools import compress, count
from operator import attrgetter
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

_terms = attrgetter("terms")


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
    """Fraction-free Gauss-Jordan elimination of the rows, in place, with
    pivots searched among the first search_cols columns.  Returns (rank,
    pivots, last): the pivots ascend, and rows[:rank] are last times the
    reduced echelon rows, so every pivot entry equals last.  The rows past
    the rank lie in the rows' span and are 0 in every searched column:
    the swept rows past the sweep's rank, in the order the sweep leaves
    them, with the rows the peel emptied among them.

    Single-entry rows are peeled first.  A row whose only nonzero entry
    lies in a searched column j spans the unit row e_j over F, so e_j is
    itself a row of the reduced echelon form, and column j is set to 0 in
    every other row: exact, since the peeled row has no other entry.
    That may leave new single-entry rows, so the peel repeats until none
    is left; of two such rows in one column, the second is emptied.  The
    rows that are left go through the sweep (``_sweep``), whose final
    pivot is last (1 when every row was peeled), and each peeled row is
    written as last times e_j and merged in by its pivot column.  No
    peeled entry is multiplied or divided, and a matrix with no
    single-entry row is the sweep's, row for row.
    """
    # live[i]: the columns of row i's nonzero entries, read in C
    live = [set(compress(count(), map(_terms, row))) for row in rows]
    todo = [i for i, s in enumerate(live) if len(s) == 1 and min(s) < search_cols]
    if not todo:
        return _sweep(ctx, rows, search_cols)
    sizes = [len(s) for s in live]
    holders: dict[int, list[int]] = {}
    for i, s in enumerate(live):
        for j in s:
            holders.setdefault(j, []).append(i)
    peeled: dict[int, int] = {}  # pivot column -> index of the peeled row
    while todo:
        i = todo.pop()
        if len(live[i]) != 1:
            # emptied by an earlier row with its one column
            continue
        (j,) = live[i]
        peeled[j] = i
        for k in holders[j]:
            s = live[k]
            if k != i and j in s:
                s.discard(j)
                if len(s) == 1 and min(s) < search_cols:
                    todo.append(k)
    zero = ctx._zero_poly
    done = set(peeled.values())
    # the rows left, with the peeled columns cleared where they had entries
    rest = [
        [zero if j in peeled else a for j, a in enumerate(row)] if len(live[i]) < sizes[i] else row
        for i, row in enumerate(rows)
        if i not in done
    ]
    rank, pivots, last = _sweep(ctx, rest, search_cols)
    ncols = len(rows[0])
    reduced = list(zip(pivots, rest))
    for j in peeled:
        unit = [zero] * ncols
        unit[j] = last
        reduced.append((j, unit))
    reduced.sort(key=lambda pair: pair[0])
    rows[:] = [row for _, row in reduced] + rest[rank:]
    return len(reduced), [j for j, _ in reduced], last


def _sweep(ctx: FieldContext, rows: list[list[Poly]], search_cols: int):
    """One-step fraction-free Gauss-Jordan elimination, in place: the
    sweep of ``_bareiss_jordan`` on the rows its peel leaves.

    Entries stay polynomial: each update (p*a + c*b) is exactly divisible
    by the previous pivot.  Chained fraction arithmetic would grow
    exponentially on dense inputs, and reducing to lowest terms at every
    step needs a multivariate gcd, which is slower still; dividing by the
    known factor sidesteps both.  After the sweep every pivot entry equals
    the final pivot, so one division per entry recovers the reduced
    echelon form.  Returns (rank, pivots, final pivot), the final pivot 1
    when no column has a nonzero entry.

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
    elimination that built it, either way, which is the last pivot of the
    rows ``_bareiss_jordan`` swept, or 1 when it peeled every row, as for
    a span of monomials.  The canonical ``rows`` of
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
    of the annihilator rows.
    """

    __slots__ = ("ctx", "pivots", "_eliminated", "_last", "_rows", "_annihilator", "_elements")

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

    @classmethod
    def from_poly_rows(cls, ctx: FieldContext, raw_rows: Iterable[SparseRow]) -> SqSubspace:
        """F-span of sparse polynomial coordinate rows (empty rows are
        dropped): one fraction-free elimination, after which every pivot
        entry equals the final pivot, and one division per entry reads off
        the unique reduced echelon form.  A row with a single entry, as a
        monomial's row and most slot products' are, is peeled by the
        elimination as it stands, so a span of such rows multiplies and
        divides nothing, and its final pivot is 1."""
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
