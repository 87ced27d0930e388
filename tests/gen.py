"""Seeded random value generators shared by the test modules."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from tropdiff import (
    DiffMonomial,
    DiffPolynomial,
    DerivativeKey,
    FieldSpec,
    PowerSeries,
    SupportSet,
    TropPolynomial,
    VertexSet,
)


def rand_point(rng: random.Random, m: int, hi: int) -> tuple[int, ...]:
    return tuple(rng.randint(0, hi) for _ in range(m))


def rand_points(rng: random.Random, m: int, hi: int, kmax: int, kmin: int = 0):
    return tuple(rand_point(rng, m, hi) for _ in range(rng.randint(kmin, kmax)))


def convex_position_set(rng: random.Random, m: int, count: int, side: int, scale: int,
                        midpoints: int = 0, dominated: int = 0):
    """`count` points in convex position on sum(x) = c, and non-vertices.

    The free coordinates (y, |y|^2), for y in a grid of side `side`, lie on a
    strictly convex surface; scaling by `scale` and the last coordinate
    c - sum keep every point extreme.  Up to `midpoints` integral midpoints
    of pairs of them and `dominated` points above one of them are added.
    Returns the surface points and all points, shuffled.
    """
    grid = list(product(range(side + 1), repeat=m - 2))
    ys = [tuple(scale * a for a in g + (sum(a * a for a in g),))
          for g in rng.sample(grid, count)]
    c = max(sum(y) for y in ys) + rng.randint(0, 3)
    perm = rng.sample(range(m), m)
    surface = [tuple((y + (c - sum(y),))[i] for i in perm) for y in ys]
    pts = list(surface)
    for _ in range(midpoints):
        p, q = rng.sample(surface, 2)
        if all((a + b) % 2 == 0 for a, b in zip(p, q)):
            pts.append(tuple((a + b) // 2 for a, b in zip(p, q)))
    for _ in range(dominated):
        p, k = rng.choice(surface), rng.randrange(m)
        pts.append(tuple(x + (i == k) * rng.randint(1, scale) for i, x in enumerate(p)))
    rng.shuffle(pts)
    return surface, pts


def rand_support(rng: random.Random, m: int, hi: int = 6, kmax: int = 3,
                 cone_prob: float = 0.5) -> SupportSet:
    cones = rand_points(rng, m, hi, 2) if rng.random() < cone_prob else ()
    return SupportSet(m, rand_points(rng, m, hi, kmax), cones)


def rand_vertex_set(rng: random.Random, m: int, hi: int = 6, kmax: int = 3) -> VertexSet:
    return VertexSet(m, rand_points(rng, m, hi, kmax))


def rand_fraction(rng: random.Random, hi: int = 5) -> Fraction:
    num = rng.randint(-hi, hi)
    den = rng.randint(1, hi)
    return Fraction(num, den)


def rand_field_element(rng: random.Random, field: FieldSpec, nonzero: bool = False):
    while True:
        a = rand_fraction(rng)
        b = rand_fraction(rng) if field.d is not None and rng.random() < 0.5 else 0
        c = field(a, b)
        if not (nonzero and c.is_zero):
            return c


def rand_series(rng: random.Random, m: int, field: FieldSpec = FieldSpec(),
                hi: int = 3, kmax: int = 3, nonzero: bool = False,
                precision: int | None = None) -> PowerSeries:
    while True:
        terms = tuple(
            (rand_point(rng, m, hi), rand_field_element(rng, field, nonzero=True))
            for _ in range(rng.randint(0, kmax))
        )
        s = PowerSeries(m, field, terms, precision)
        if not (nonzero and s.is_zero):
            return s


def rand_diff_monomial(rng: random.Random, m: int, n: int, order: int = 1,
                       max_keys: int = 2, max_exp: int = 2,
                       nonconstant: bool = False) -> DiffMonomial:
    while True:
        items = tuple(
            (DerivativeKey(rng.randint(1, n), rand_point(rng, m, order)),
             rng.randint(1, max_exp))
            for _ in range(rng.randint(0, max_keys))
        )
        mono = DiffMonomial(items)
        if not (nonconstant and mono.is_constant):
            return mono


def rand_diff_poly(rng: random.Random, m: int, n: int, field: FieldSpec = FieldSpec(),
                   max_terms: int = 3, order: int = 1, coeff_hi: int = 2) -> DiffPolynomial:
    terms = tuple(
        (rand_diff_monomial(rng, m, n, order),
         rand_series(rng, m, field, hi=coeff_hi, kmax=2, nonzero=True))
        for _ in range(rng.randint(0, max_terms))
    )
    return DiffPolynomial(m, n, field, terms)


def rand_trop_poly(rng: random.Random, m: int, n: int, max_terms: int = 3,
                   order: int = 1) -> TropPolynomial:
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        coef = rand_vertex_set(rng, m)
        if coef.is_empty:
            coef = VertexSet.unit(m)
        terms.append((rand_diff_monomial(rng, m, n, order), coef))
    return TropPolynomial(m, n, tuple(terms))


def rand_polynomial_tuple(rng: random.Random, m: int, n: int,
                          field: FieldSpec = FieldSpec(), nonzero: bool = False):
    return tuple(
        rand_series(rng, m, field, hi=2, kmax=3, nonzero=nonzero) for _ in range(n)
    )
