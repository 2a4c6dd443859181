"""Linear algebra for F^2-subspaces of F, in square-root coordinates.

In characteristic 2, sqrt(a + b) = sqrt(a) + sqrt(b) and
sqrt(c^2 * a) = c * sqrt(a), so writing elements in their 2-basis
coordinates (f = sum c_d^2 * a^d) turns F^2-linear combinations of
field elements into F-linear combinations of coordinate rows.  A
subspace is therefore stored as a row-reduced echelon basis of such
rows, with pivots in ascending lexicographic column order; that basis
is unique, so equality, serialization and the deterministic choices
made by callers all come for free.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import EliminationInvariant, NotDivisible
from .field import FieldContext, FieldElement, Poly, _divexact, _from_dense

__all__ = ["SqSubspace", "representation_over"]

Row = tuple[FieldElement, ...]


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


def _primitive_row(ctx: FieldContext, row: Sequence[FieldElement]) -> Row:
    """The row scaled to polynomial entries without a common monomial
    factor; a nonzero scalar multiple of a row spans the same F-line."""
    polys, _ = _cleared(ctx, row)
    contents = [p.monomial_content() for p in polys if p.terms]
    common = tuple(min(col) for col in zip(*contents))
    if any(common):
        polys = [p.shift(common) if p.terms else p for p in polys]
    return tuple(
        FieldElement(ctx, p, ctx._one_poly) if p.terms else ctx.zero for p in polys
    )


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


def _rref(ctx: FieldContext, raw_rows: Iterable[Sequence[FieldElement]]):
    """Unique reduced echelon form; returns (rows, pivot column indices)."""
    rows = [_cleared(ctx, r)[0] for r in raw_rows if any(r)]
    rank, pivots, last = _bareiss_jordan(ctx, rows, len(ctx.patterns))
    out = []
    for row, pc in zip(rows[:rank], pivots):
        if row[pc].terms != last.terms:
            raise EliminationInvariant("pivot normalization lost during elimination")
        out.append(
            tuple(
                FieldElement(ctx, e, last) if e.terms else ctx.zero for e in row
            )
        )
    return out, pivots


class SqSubspace:
    """An F^2-subspace of F with a canonical reduced row basis.

    Besides the canonical rows the object keeps ``spanners``, rows that
    span the same space.  Canonical entries are ratios of elimination
    minors and grow with the dimension, so lattice operations stack the
    spanners instead; the results are identical.  A space built by
    ``span`` or ``from_rows`` keeps its input rows.  An intersection keeps
    one primitive row per kernel vector: polynomial entries without a
    common monomial factor.  Without that scaling the rows would carry
    the kernel's minors and the denominators of their inputs, and
    exponents would double along a chain of intersections.
    """

    __slots__ = ("ctx", "rows", "pivots", "spanners")

    def __init__(
        self,
        ctx: FieldContext,
        rows: Sequence[Row],
        pivots: Sequence[int],
        spanners: Sequence[Sequence[FieldElement]] | None = None,
    ):
        self.ctx = ctx
        self.rows = tuple(rows)
        self.pivots = tuple(pivots)
        if spanners is None:
            self.spanners = self.rows
        else:
            self.spanners = tuple(tuple(r) for r in spanners)

    @classmethod
    def span(cls, ctx: FieldContext, generators: Iterable[FieldElement]) -> SqSubspace:
        """F^2-span of the given field elements (zeros are dropped)."""
        raw = [g.frobenius_decompose().dense() for g in generators if g]
        rows, pivots = _rref(ctx, raw)
        return cls(ctx, rows, pivots, raw)

    @classmethod
    def zero(cls, ctx: FieldContext) -> SqSubspace:
        return cls(ctx, (), ())

    @classmethod
    def from_rows(cls, ctx: FieldContext, raw_rows: Iterable[Sequence[FieldElement]]) -> SqSubspace:
        raw = [row for row in raw_rows if any(row)]
        rows, pivots = _rref(ctx, raw)
        return cls(ctx, rows, pivots, raw)

    # -- structure -----------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return not self.rows

    def elements(self) -> tuple[FieldElement, ...]:
        """The reduced basis rows turned back into field elements."""
        return tuple(_from_dense(self.ctx, row) for row in self.rows)

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

    def __contains__(self, f: FieldElement) -> bool:
        return self.coordinates_of(f) is not None

    def contains_subspace(self, other: SqSubspace) -> bool:
        return all(not any(self.reduce_row(row)) for row in other.rows)

    # -- lattice operations -----------------------------------------------------

    def sum_with(self, other: SqSubspace) -> SqSubspace:
        return SqSubspace.from_rows(self.ctx, self.spanners + other.spanners)

    def intersection(self, other: SqSubspace) -> SqSubspace:
        """Kernel-based intersection of the two row spaces."""
        if self.is_zero or other.is_zero:
            return SqSubspace.zero(self.ctx)
        stacked = list(self.spanners) + list(other.spanners)
        kernel = left_kernel(self.ctx, stacked)
        k = len(self.spanners)
        vecs = []
        for combo in kernel:
            # combo * stacked = 0, so the first block lands in both spaces
            row = [self.ctx.zero] * len(self.ctx.patterns)
            for c, brow in zip(combo[:k], self.spanners):
                if c:
                    row = [a + c * b for a, b in zip(row, brow)]
            vecs.append(_primitive_row(self.ctx, row))
        return SqSubspace.from_rows(self.ctx, vecs)

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
