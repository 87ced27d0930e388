"""Exact geometry of Newton polygons over the nonnegative integer lattice.

A finite point set C in Z^m_>=0 spans the Newton polygon N(C), the convex
hull of C + Z^m_>=0.  Membership of a lattice point in N(C) reduces to the
feasibility of an exact rational linear program: p lies in N(C) iff there
are nonnegative rationals lambda_c summing to 1 with

    sum_c lambda_c * c  <=  p   componentwise.

One routine, `_phase1_feasible`, decides it for both `member_newton` and
the vertex set.  It answers no at once when some coordinate of p lies below
that coordinate of every point of C.  Otherwise it runs a fraction-free
simplex on an integer tableau (Bareiss-style pivoting over the previous
pivot), entering the most negative reduced cost (Dantzig) until its first
degenerate pivot and by Bland's rule after it, so it terminates; with C
empty it stops before any pivot.  There are no floats and no tolerances
anywhere.  The vertex set of C consists of the points of C that do not lie
in the Newton polygon of the remaining points; it is always an antichain
under the componentwise order and spans the same Newton polygon as C.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterable

from .errors import ArityError

Point = tuple[int, ...]


def as_count(n: int, name: str = "arity") -> int:
    """Validate a dimension: the arity m of Z^m_>=0 or the variable count n, an int >= 1."""
    try:
        k = operator.index(n)
    except TypeError:
        raise ArityError(f"non-integer {name} {n!r}") from None
    if k < 1:
        raise ArityError(f"{name} must be >= 1, got {k}")
    return k


def as_natural(n: int, name: str) -> int:
    """Validate a count that may be 0, such as a derivative bound or a cap: an int >= 0."""
    try:
        k = operator.index(n)
    except TypeError:
        raise ValueError(f"non-integer {name} {n!r}") from None
    if k < 0:
        raise ValueError(f"{name} must be >= 0")
    return k


def as_point(coords: Iterable[int], arity: int | None = None) -> Point:
    """Validate and freeze a lattice point (nonnegative integer coordinates)."""
    try:
        p = tuple(map(operator.index, coords))
    except TypeError:
        raise ArityError(f"non-integer coordinate in lattice point {coords!r}") from None
    if arity is not None and len(p) != arity:
        raise ArityError(f"expected a point of arity {arity}, got {p}")
    if not p:
        raise ArityError("points must have at least one coordinate")
    if min(p) < 0:
        raise ArityError(f"negative coordinate in lattice point {p}")
    return p


def canon(points: Iterable[Iterable[int]], arity: int | None = None) -> tuple[Point, ...]:
    """Deduplicated, lexicographically sorted tuple of points of equal arity."""
    pts = sorted({as_point(p) for p in points})
    if not pts:
        return ()
    m = arity if arity is not None else len(pts[0])
    for p in pts:
        if len(p) != m:
            raise ArityError(f"mixed arities: expected {m}, got point {p}")
    return tuple(pts)


def leq(p: Point, q: Point) -> bool:
    """Componentwise p <= q."""
    return all(map(operator.le, p, q))


def add(p: Point, q: Point) -> Point:
    return tuple(map(operator.add, p, q))


def minimal_elements(points: Iterable[Point]) -> tuple[Point, ...]:
    """The antichain of componentwise-minimal points."""
    return _minimal(canon(points))


def _minimal(pts: tuple[Point, ...]) -> tuple[Point, ...]:
    """Minimal points of sorted, distinct `pts`, in order: a point below p sorts first."""
    mins: list[Point] = []
    for p in pts:
        if not any(leq(q, p) for q in mins):
            mins.append(p)
    return tuple(mins)


def _phase1_feasible(cols: tuple[Point, ...], target: Point) -> bool:
    """Exact phase-1 simplex, fraction-free, with Dantzig then Bland pricing.

    Decides feasibility of { lambda >= 0, sum lambda = 1,
    sum_j lambda_j cols[j] + v = target, v >= 0 }, that is, target in the
    Newton polygon of `cols`; it is the one membership test of this module.
    A target coordinate below that coordinate of every column makes the
    system infeasible, which is checked before any pivot.  The m slack rows
    start basic; a single artificial variable covers the convexity row, and
    the system is feasible iff the artificial can be driven to zero.  With
    no columns, every reduced cost is nonnegative at once, so the system is
    infeasible: the empty set has an empty Newton polygon.

    The entering column has the most negative reduced cost (lowest index on
    ties) while the objective strictly falls, so no basis repeats; from the
    first degenerate pivot (ratio 0) on, Bland's rule (Bland 1977) terminates.

    The tableau is kept in integers over the common denominator `det`, the
    previous pivot (Bareiss 1968, Edmonds 1967): every stored entry is a
    minor of the initial tableau, so each update divides exactly, and
    `det` stays positive, so stored signs are the true signs.
    """
    if any(map(operator.lt, target, map(min, zip(*cols)))):
        return False
    m = len(target)
    n = len(cols)
    width = n + m + 1  # lambdas, slacks, artificial; rhs sits at index `width`
    rows: list[list[int]] = []
    for i in range(m):
        row = [c[i] for c in cols] + [0] * (m + 1) + [target[i]]
        row[n + i] = 1
        rows.append(row)
    conv = [1] * n + [0] * m + [1, 1]
    rows.append(conv)
    basis = list(range(n, n + m)) + [n + m]

    # Reduced-cost row for "minimize artificial", priced out of the basis.
    obj = [-v for v in conv]
    obj[n + m] = 0
    det = 1

    bland = False
    while obj[width]:  # -det times the artificial's value
        low = min(obj[:width])
        if low >= 0:
            return False
        enter = next(j for j, v in enumerate(obj) if v < 0) if bland else obj.index(low)
        leave = -1
        best_rhs = best_a = best_var = 0
        for i in range(m + 1):
            a = rows[i][enter]
            if a > 0:
                rhs = rows[i][width]
                # ratio rhs/a against best_rhs/best_a, both denominators > 0
                cross = rhs * best_a - best_rhs * a
                if leave < 0 or cross < 0 or (cross == 0 and basis[i] < best_var):
                    best_rhs, best_a, best_var, leave = rhs, a, basis[i], i
        if leave < 0:  # objective bounded below by 0, so this cannot happen
            return False
        bland = bland or best_rhs == 0
        prow = rows[leave]
        piv = prow[enter]
        for i in range(m + 1):
            if i != leave:
                f = rows[i][enter]
                rows[i] = [(piv * v - f * w) // det for v, w in zip(rows[i], prow)]
        f = obj[enter]
        obj = [(piv * v - f * w) // det for v, w in zip(obj, prow)]
        det = piv
        basis[leave] = enter
    return True


def member_newton(p: Iterable[int], points: Iterable[Iterable[int]]) -> bool:
    """Exact test for p in N(points), the Newton polygon of a finite set.

    Validates both arguments, then runs the exact fraction-free LP, which
    decides every case alone: a dominated p is feasible, and the empty set,
    whose Newton polygon is empty, is infeasible.
    """
    pts = canon(points)
    return _phase1_feasible(pts, as_point(p, len(pts[0]) if pts else None))


@lru_cache(maxsize=1 << 16)
def _vertices_cached(points: tuple[Point, ...]) -> tuple[Point, ...]:
    """Vertex set of canonical points (as `canon` returns them), in their order.

    Each minimal point meets only the points not yet found to be non-vertices:
    dropping one leaves N(points), and so its vertices, unchanged.  Those
    points form a sub-tuple of the canonical antichain `_minimal` returns, so
    they go straight to the LP: validating them again would find nothing,
    and no dominance check could answer early, since none lies below x.
    """
    keep = list(_minimal(points))
    for x in tuple(keep):
        if _phase1_feasible(tuple(y for y in keep if y != x), x):
            keep.remove(x)
    return tuple(keep)


def vertices_of_finite(points: Iterable[Iterable[int]]) -> tuple[Point, ...]:
    """Vertex set of a finite point set: x in C with x not in N(C \\ {x}).

    Only componentwise-minimal points can be vertices, so candidates are
    pre-filtered to the minimal antichain before the LP tests run.
    """
    return _vertices_cached(canon(points))
