"""Independent recomputation oracles used to cross-check the library.

`member_2d` decides Newton-polygon membership in the plane without any
simplex: the lower-left boundary of conv(C) + R^2_>=0 is a union of
segments between points of C, so it is enough to intersect, for every
pair, the interval of mixing weights that keeps the combination below the
query point.

`member_newton_fraction` decides membership in any arity with a phase-1
simplex over `Fraction`, normalizing the pivot row at each step, and
`vertices_by_surrogates` computes the vertex set of a staircase set with
the finite surrogate {g+e_1,...,g+e_m} for each cone generator g.  Both are
kept as references for the fraction-free simplex and for the vertex
routine shared by finite and staircase sets.

`orthant_contained_box` is the retired box scan for the orthant-promotion
test of staircase normalization, and `enumerate_bruteforce` the retired
enumeration loop that runs the full vanishing test on every candidate.

`staircase_hull_2d` finds planar vertex sets by a monotone-chain sweep,
with no LP and no `lattice` helper, and `eval_monomial_minkowski`
evaluates a tropical monomial inside the support semiring, taking
vertices once at the end instead of multiplying vertex sets.

`derive_validated` is the retired `DiffPolynomial.derive`: it rebuilds
every term through the public, validating constructors and lets
`DiffPolynomial` sum them, where the library sums in plain dicts and
builds each value once without re-validating it.

`pairs_of`, `pairs_add`, `pairs_mul`, `pairs_truncate` and `pairs_theta`
redo series arithmetic on plain `{point: (a, b)}` dicts of `Fraction`
pairs, with the normal form and the precision rules written out again, so
they share no code with `PowerSeries` or `FieldElement` arithmetic, nor
with the integer kernel under both; `derive_validated` cannot serve
there, as the public constructor now sums through the same normalizer as
`+`, `*`, `truncate` and `theta`.

`power_repeated` is the retired power loop of the parser's `^`,
`PowerSeries.__pow__`, `FieldElement.__pow__` and `SupportSet.n_fold`: it
multiplies `one` by `x` n times, where the library squares and multiplies
in O(log n) products.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import factorial
from typing import Sequence

from tropdiff import (
    ArityError,
    DerivativeKey,
    DiffMonomial,
    DiffPolynomial,
    PowerSeries,
    SupportSet,
    TropMonomial,
    VertexSet,
    is_solution,
)


def member_2d(p, points) -> bool:
    pts = [tuple(q) for q in set(map(tuple, points))]
    if not pts:
        return False
    for b in pts:
        if b[0] <= p[0] and b[1] <= p[1]:
            return True
    for b1, b2 in combinations(pts, 2):
        lo, hi = Fraction(0), Fraction(1)
        feasible = True
        for k in (0, 1):
            c = b1[k] - b2[k]
            rhs = p[k] - b2[k]
            if c > 0:
                hi = min(hi, Fraction(rhs, c))
            elif c < 0:
                lo = max(lo, Fraction(rhs, c))
            elif rhs < 0:
                feasible = False
                break
        if feasible and lo <= hi:
            return True
    return False


def vertices_by_definition(points, member) -> tuple:
    """Replay of the vertex definition with a pluggable membership test."""
    pts = sorted(set(map(tuple, points)))
    return tuple(
        x for x in pts if not member(x, [y for y in pts if y != x])
    )


def grid_box(points, pad: int = 2):
    """All lattice points of [0, B]^m with B = max coordinate + pad."""
    pts = list(map(tuple, points))
    if not pts:
        return []
    m = len(pts[0])
    b = max(max(p[k] for p in pts) for k in range(m)) + pad
    return list(product(range(b + 1), repeat=m))


def _phase1_feasible_fraction(cols, target) -> bool:
    m = len(target)
    n = len(cols)
    width = n + m + 1  # lambdas, slacks, artificial; rhs sits at index `width`
    zero = Fraction(0)
    rows = []
    for i in range(m):
        row = [Fraction(c[i]) for c in cols] + [zero] * (m + 1) + [Fraction(target[i])]
        row[n + i] = Fraction(1)
        rows.append(row)
    conv = [Fraction(1)] * n + [zero] * m + [Fraction(1), Fraction(1)]
    rows.append(conv)
    basis = list(range(n, n + m)) + [n + m]
    obj = [zero] * (width + 1)
    obj[n + m] = Fraction(1)
    obj = [o - r for o, r in zip(obj, conv)]
    while True:
        enter = next((j for j in range(width) if obj[j] < 0), None)
        if enter is None:
            return obj[width] == 0
        leave, best_ratio, best_var = -1, None, None
        for i in range(m + 1):
            a = rows[i][enter]
            if a > 0:
                ratio = rows[i][width] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < best_var)
                ):
                    best_ratio, best_var, leave = ratio, basis[i], i
        if leave < 0:
            return False
        piv = rows[leave][enter]
        rows[leave] = [v / piv for v in rows[leave]]
        prow = rows[leave]
        for i in range(m + 1):
            f = rows[i][enter]
            if i != leave and f:
                rows[i] = [v - f * w for v, w in zip(rows[i], prow)]
        f = obj[enter]
        if f:
            obj = [v - f * w for v, w in zip(obj, prow)]
        basis[leave] = enter


def member_newton_fraction(p, points) -> bool:
    """p in N(points) by dominance, then the `Fraction` phase-1 simplex."""
    pts = sorted(set(map(tuple, points)))
    if not pts:
        return False
    p = tuple(p)
    if any(all(a <= b for a, b in zip(c, p)) for c in pts):
        return True
    return _phase1_feasible_fraction(tuple(pts), p)


def vertices_by_surrogates(arity, explicit, cones) -> tuple:
    """Vertices of explicit + (cones + Z^m_>=0), each cone g tested with
    the surrogate points g+e_k standing in for the rest of its orthant."""
    cones = set(map(tuple, cones))
    pts = sorted(set(map(tuple, explicit)) | cones)
    candidates = [
        x for x in pts
        if not any(y != x and all(a <= b for a, b in zip(y, x)) for y in pts)
    ]
    out = []
    for x in candidates:
        rest = [y for y in pts if y != x]
        if x in cones:
            rest += [
                tuple(c + (i == k) for i, c in enumerate(x)) for k in range(arity)
            ]
        if not member_newton_fraction(x, rest):
            out.append(x)
    return tuple(out)


def orthant_contained_box(p, explicit, cones) -> bool:
    """(p + Z^m_>=0) inside explicit + cones, by scanning the box [p, B]^m.

    Points beyond B (one more than every coordinate in sight) cap back onto
    the boundary layer without leaving either side, so the box decides.
    """
    if not cones:
        return False

    def member(q):
        return q in explicit or any(all(a <= b for a, b in zip(g, q)) for g in cones)

    m = len(p)
    hi = [max([g[k] for g in cones] + [e[k] for e in explicit] + [p[k]]) + 1
          for k in range(m)]
    return all(member(q) for q in product(*(range(p[k], hi[k] + 1) for k in range(m))))


def enumerate_bruteforce(polys, box, max_points=None, nvars=1) -> list:
    """Every explicit-support tuple in [0, box]^m, each run through the full
    `is_solution` test for every polynomial, in the library's output order."""
    grid = sorted(product(*(range(b + 1) for b in box)))
    top = len(grid) if max_points is None else min(max_points, len(grid))
    components = [SupportSet(len(box), combo)
                  for k in range(top + 1) for combo in combinations(grid, k)]
    return [c for c in product(components, repeat=nvars)
            if all(is_solution(p, c).solution for p in polys)]


def staircase_hull_2d(points) -> tuple:
    """Planar vertex set by a monotone-chain sweep; LP-free cross-check.

    Sorts the minimal antichain by first coordinate (second then strictly
    decreases) and keeps exactly the points making a strictly convex
    lower-left turn.  Agrees with `vertices_of_finite` for arity 2.
    """
    pts = sorted(set(map(tuple, points)))
    if any(len(p) != 2 for p in pts):
        raise ArityError("staircase_hull_2d requires arity 2")
    minimal = [
        x for x in pts
        if not any(y != x and y[0] <= x[0] and y[1] <= x[1] for y in pts)
    ]
    chain = []
    for q in minimal:
        while len(chain) >= 2 and not _convex_turn(chain[-2], chain[-1], q):
            chain.pop()
        chain.append(q)
    return tuple(chain)


def _convex_turn(a, b, c) -> bool:
    # strict lower-left convexity at b; collinear points are not vertices
    return (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0]) > 0


def eval_monomial_minkowski(mono: TropMonomial, supports: Sequence[SupportSet], *,
                            arity: int | None = None) -> VertexSet:
    """Independent route: vertices of the support-level Minkowski sum.

    Accumulates sum_{i,J} M_{i,J} * trop_derivative(J, S_i) inside the
    support semiring and takes vertices once at the end, bypassing the
    vertex-level products used by `eval_monomial`.
    """
    if arity is None:
        if not supports:
            raise ArityError("cannot infer arity from an empty support tuple")
        arity = supports[0].arity
    acc = SupportSet.origin(arity)
    for key, e in mono.exponents:
        shifted = supports[key.var - 1].trop_derivative(key.index)
        acc = acc.minkowski(shifted.n_fold(e))
    return acc.vertices()


def derive_validated(poly: DiffPolynomial, k: int) -> DiffPolynomial:
    """One derivation along axis k by the Leibniz rule, one validated term at a time."""
    i = k - 1
    arity, field = poly.arity, poly.field
    out = []
    for mono, coef in poly.terms:
        prec = None if coef.precision is None else max(coef.precision - 1, 0)
        d_coef = tuple(
            (p[:i] + (p[i] - 1,) + p[i + 1:], c * p[i]) for p, c in coef.terms if p[i]
        )
        out.append((mono, PowerSeries(arity, field, d_coef, prec)))
        for key, e in mono.exponents:
            bumped = DerivativeKey(key.var, key.index[:i] + (key.index[i] + 1,) + key.index[i + 1:])
            shifted = DiffMonomial(mono.exponents + ((key, -1), (bumped, 1)))
            scaled = tuple((p, c * e) for p, c in coef.terms)
            out.append((shifted, PowerSeries(arity, field, scaled, coef.precision)))
    return DiffPolynomial(arity, poly.nvars, field, tuple(out))


def power_repeated(x, n: int, one, mul):
    """x^n as n products one * x * ... * x, left to right."""
    acc = one
    for _ in range(n):
        acc = mul(acc, x)
    return acc


def pairs_of(series: PowerSeries) -> tuple:
    """A series as (sorted ((point, (a, b)), ...), precision), read off its terms."""
    return tuple((p, (c.a, c.b)) for p, c in series.terms), series.precision


def _pairs_normal(acc: dict, precision) -> tuple:
    """Summed pairs without zeros or terms at or beyond `precision`, sorted."""
    return tuple(sorted(
        (p, ab) for p, ab in acc.items()
        if ab != (0, 0) and (precision is None or sum(p) < precision)
    )), precision


def _least(*precisions):
    known = [n for n in precisions if n is not None]
    return min(known) if known else None


def pairs_add(x: tuple, y: tuple) -> tuple:
    acc: dict = {}
    for p, (a, b) in x[0] + y[0]:
        a0, b0 = acc.get(p, (0, 0))
        acc[p] = (a0 + a, b0 + b)
    return _pairs_normal(acc, _least(x[1], y[1]))


def pairs_mul(x: tuple, y: tuple, d: int | None) -> tuple:
    """Product in Q(sqrt d) (d None: Q); the error terms bound its precision."""
    acc: dict = {}
    for p, (a, b) in x[0]:
        for q, (e, f) in y[0]:
            r = tuple(i + j for i, j in zip(p, q))
            a0, b0 = acc.get(r, (0, 0))
            acc[r] = (a0 + a * e + (d or 0) * b * f, b0 + a * f + b * e)
    ox = min((sum(p) for p, _ in x[0]), default=None)
    oy = min((sum(q) for q, _ in y[0]), default=None)
    bounds = [x[1] + oy if x[1] is not None and oy is not None else None,
              y[1] + ox if y[1] is not None and ox is not None else None,
              x[1] + y[1] if x[1] is not None and y[1] is not None else None]
    return _pairs_normal(acc, _least(*bounds))


def pairs_truncate(x: tuple, n: int) -> tuple:
    return _pairs_normal(dict(x[0]), _least(x[1], n))


def pairs_theta(x: tuple, shift: Sequence[int]) -> tuple:
    """The derivative of order J = `shift`, weighted by factorials.

    t^p with p >= J moves to t^(p-J) with the weight prod p_k!/(p_k - J_k)!,
    the other terms vanish, and a precision N becomes max(N - |J|, 0).
    """
    acc: dict = {}
    for p, (a, b) in x[0]:
        if all(i >= j for i, j in zip(p, shift)):
            w = 1
            for i, j in zip(p, shift):
                w *= factorial(i) // factorial(i - j)
            acc[tuple(i - j for i, j in zip(p, shift))] = (a * w, b * w)
    return _pairs_normal(acc, None if x[1] is None else max(x[1] - sum(shift), 0))
