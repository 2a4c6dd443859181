"""Seeded random generators for polynomials, field elements and vectors.

Used by the test suite's randomized checks and spot-check oracles; no
certificate the CLI prints depends on them.  Everything takes an explicit
random.Random so runs are reproducible.
"""

from __future__ import annotations

import random
from typing import Sequence

from .field import FieldContext, FieldElement, Poly

__all__ = [
    "random_poly",
    "random_nonzero_poly",
    "random_element",
    "random_nonzero_element",
    "random_vector",
]


def random_poly(
    rng: random.Random, ctx: FieldContext, max_degree: int = 2, max_terms: int = 3
) -> Poly:
    k = rng.randint(0, max_terms)
    terms = {
        tuple(rng.randint(0, max_degree) for _ in range(ctx.n)) for _ in range(k)
    }
    return Poly(frozenset(terms), ctx.n)


def random_nonzero_poly(
    rng: random.Random, ctx: FieldContext, max_degree: int = 2, max_terms: int = 3
) -> Poly:
    while True:
        p = random_poly(rng, ctx, max_degree, max_terms)
        if p:
            return p


def random_element(
    rng: random.Random, ctx: FieldContext, max_degree: int = 2, max_terms: int = 3
) -> FieldElement:
    return FieldElement(
        ctx,
        random_poly(rng, ctx, max_degree, max_terms),
        random_nonzero_poly(rng, ctx, max_degree, max_terms),
    )


def random_nonzero_element(
    rng: random.Random, ctx: FieldContext, max_degree: int = 2, max_terms: int = 3
) -> FieldElement:
    while True:
        f = random_element(rng, ctx, max_degree, max_terms)
        if f:
            return f


def random_vector(
    rng: random.Random,
    ctx: FieldContext,
    length: int,
    max_degree: int = 2,
    max_terms: int = 3,
    zero_weight: float = 0.25,
    polynomial: bool = False,
) -> tuple[FieldElement, ...]:
    """A length-long vector mixing zero entries with random elements; at
    least one entry is nonzero.  With polynomial=True entries have trivial
    denominators, which keeps form evaluation denominator-free (any vector
    can be scaled into this shape without moving the line it spans)."""

    def entry():
        if rng.random() < zero_weight:
            return ctx.zero
        if polynomial:
            return FieldElement(
                ctx, random_poly(rng, ctx, max_degree, max_terms), ctx._one_poly
            )
        return random_element(rng, ctx, max_degree, max_terms)

    while True:
        vec = tuple(entry() for _ in range(length))
        if any(vec):
            return vec
