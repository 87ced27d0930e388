"""Tropical differential polynomials and the tropical vanishing condition.

A tropical differential polynomial is a finite sum of terms a_M (*) eps_M
with nonempty vertex-set coefficients a_M.  Evaluated at a tuple of support
sets, each tropical monomial eps_M contributes the tropical product of
Val_J(S_i) factors; a support tuple solves the polynomial when every vertex
of the evaluation is attained by at least two distinct monomial terms (or
the evaluation is empty).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from typing import Callable, Iterable, Iterator, Sequence

from ._value import Value
from .errors import DEFAULT_CANDIDATE_CAP, ArityError, CandidateCapError
from .diffpoly import DiffMonomial, DiffPolynomial, _sample, _supports
from .lattice import Point, as_count, as_natural, as_point, leq
from .supports import SupportSet
from .tropical import VertexSet

# A tropical monomial eps_M carries exactly the exponent data of its
# classical counterpart E_M; only the evaluation semantics differ.
TropMonomial = DiffMonomial


class TropPolynomial(Value, namedtuple("TropPolynomial", "arity nvars terms")):
    """Finite map from tropical monomials to nonempty vertex-set coefficients.

    `_trusted(arity, nvars, terms)` takes terms as `__new__` leaves them.
    """

    __slots__ = ()

    def __new__(cls, arity: int, nvars: int,
                terms: Iterable[tuple[TropMonomial, VertexSet]] = ()) -> "TropPolynomial":
        arity, nvars = as_count(arity), as_count(nvars, "nvars")
        acc: dict[TropMonomial, VertexSet] = {}
        for mono, coef in terms:
            mono._check_keys(arity, nvars)
            if coef.arity != arity:
                raise ArityError("coefficient arity differs from polynomial arity")
            if coef.is_empty:
                raise ValueError("tropical coefficients must be nonempty vertex sets")
            acc[mono] = acc[mono].oplus(coef) if mono in acc else coef
        return cls._trusted(arity, nvars, tuple(sorted(acc.items(), key=lambda t: t[0].exponents)))

    @classmethod
    def zero(cls, arity: int, nvars: int) -> "TropPolynomial":
        return cls(arity, nvars)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def monomials(self) -> tuple[TropMonomial, ...]:
        return tuple(m for m, _ in self.terms)


def _product(mono: TropMonomial, vals: dict, arity: int) -> VertexSet:
    """eps_M from `vals`, a mapping of each key of M to its Val_J(S_i)."""
    acc = VertexSet._trusted(arity, ((0,) * arity,))
    for key, e in mono.exponents:
        factor = vals[key]
        if not factor.points:
            return factor  # the empty set annihilates
        acc = acc.odot(factor.odot_power(e))
    return acc


def eval_monomial(mono: TropMonomial, supports: Sequence[SupportSet], *,
                  arity: int | None = None) -> VertexSet:
    """Evaluate a tropical monomial: product of Val_J(S_i) tropical powers.

    An empty factor annihilates the whole product; the constant monomial
    evaluates to the origin singleton.  Every support must have the arity.
    This is the vanishing test's own route for the one-term polynomial
    `unit (*) mono` in len(supports) variables.
    """
    if arity is None:
        if not supports:
            raise ArityError("cannot infer arity from an empty support tuple")
        arity = supports[0].arity
    else:
        arity = as_count(arity)
    for key, _ in mono.exponents:
        if not 1 <= key.var <= len(supports):
            raise ArityError(f"variable x{key.var} out of range")
    poly = TropPolynomial._trusted(arity, len(supports), ((mono, VertexSet.unit(arity)),))
    return _product(mono, _valuations(poly, supports, {}), arity)


def tropicalize(poly: DiffPolynomial) -> TropPolynomial:
    """Replace each coefficient series by its vertex set, monomials verbatim.

    Coefficients must be exact; they are nonzero by construction, so every
    tropical coefficient is a nonempty vertex set.  This is the I = 0 entry
    of the sample of `poly`.
    """
    return tropicalize_sample((poly,), 0)[0]


def tropicalize_sample(polys: Iterable[DiffPolynomial], bound: int) -> tuple[TropPolynomial, ...]:
    """Tropicalizations of `derivative_sample(polys, bound)`, in the same order.

    The vertex sets are read off the supports the derivation engine keeps,
    so no series is built.
    """
    return tuple(_trop_sample(polys, bound))


def _trop_sample(polys: Iterable[DiffPolynomial], bound: int) -> Iterator[TropPolynomial]:
    """The entries of `tropicalize_sample`, each as the engine derives it."""
    for p, _, form in _sample(polys, bound):
        terms = tuple([(DiffMonomial._trusted(exponents), VertexSet._normal(p.arity, points))
                       for exponents, points in _supports(form)])
        yield TropPolynomial._trusted(p.arity, p.nvars, terms)


# -------------------------------------------------------------------- solutions


class SolutionReport(Value, namedtuple("SolutionReport", "evaluation witnesses solution")):
    """Evaluation of one tropical polynomial plus per-vertex witness counts.

    `evaluation` is a VertexSet; `witnesses` maps each vertex of the
    evaluation to the sorted indices of the monomials (in canonical term
    order) whose term set contains it; the verdict `solution` is true iff
    every vertex has at least two witnesses, or the evaluation is empty.
    """

    __slots__ = ()


def _valuations(poly: TropPolynomial, supports: Sequence[SupportSet], vals: dict) -> dict:
    """`vals` plus Val_J(S_i) for each key x_{i,J} of `poly` it lacks, once the supports fit."""
    if len(supports) != poly.nvars:
        raise ArityError(f"expected {poly.nvars} support sets, got {len(supports)}")
    if any(s.arity != poly.arity for s in supports):
        raise ArityError("support arity differs from polynomial arity")
    for key in {key for mono, _ in poly.terms for key, _ in mono.exponents} - vals.keys():
        vals[key] = supports[key.var - 1].val(key.index)
    return vals


def _report(poly: TropPolynomial, vals: dict) -> SolutionReport:
    """The vanishing test of `poly` at `vals`, a mapping of its keys to Val_J(S_i).

    The monomials of `poly` are distinct, so each eps_M is evaluated once.
    """
    sets = [coef.odot(_product(mono, vals, poly.arity)) for mono, coef in poly.terms]
    # Vert(union of the Vert T_i) = Vert(union of the T_i): one (+) over all terms
    evaluation = VertexSet._normal(poly.arity, [v for ts in sets for v in ts.points])
    witnesses = []
    verdict = True
    for v in evaluation.points:
        found = tuple([i for i, ts in enumerate(sets) if v in ts.points])
        witnesses.append((v, found))
        if len(found) < 2:
            verdict = False
    return SolutionReport(evaluation, tuple(witnesses), verdict)


def is_solution(poly: TropPolynomial, supports: Sequence[SupportSet]) -> SolutionReport:
    """Tropical vanishing test for one polynomial at a support tuple."""
    return _report(poly, _valuations(poly, supports, {}))


def _reports(polys: Iterable[TropPolynomial], supports: Sequence[SupportSet]
             ) -> Iterator[tuple[TropPolynomial, SolutionReport]]:
    """Each member of a family with its vanishing test at `supports`, as it is read.

    Each Val_J(S_i) is computed once for the family; the monomials are
    evaluated afresh for each member, so only the valuations are kept.
    """
    vals: dict = {}
    for p in polys:
        yield p, _report(p, _valuations(p, supports, vals))


def is_solution_system(
    polys: Iterable[TropPolynomial], supports: Sequence[SupportSet]
) -> tuple[bool, tuple[SolutionReport, ...]]:
    """Conjunction of `is_solution` over a family; empty families hold trivially.

    The supports are fixed, so the members share one computation of each
    Val_J(S_i); each member's monomials are evaluated as by `is_solution`.
    """
    reports = tuple([r for _, r in _reports(polys, supports)])
    return all(r.solution for r in reports), reports


# -------------------------------------------------------------------- enumeration


def count_candidates(box: Point, max_points: int | None, nvars: int,
                     cap: int | None = None) -> int:
    """Number of explicit-support tuples inside the box, before filtering.

    A count above `cap` raises `CandidateCapError`.  Exponents and partial
    sums are compared with width = max(cap bits, 100): a count known to be
    2^width or more is refused with that lower bound before it is built.
    """
    grid = math.prod(b + 1 for b in box)
    top = grid if max_points is None else min(max_points, grid)
    width = math.inf if cap is None else max(cap.bit_length(), 100)
    # sum C(grid, k) over k <= top, or 2^grid minus the sum over k > top,
    # whichever side is shorter, with C(g, k+1) = C(g, k)(g - k)/(k + 1).
    # A component has 2^low subsets or more; on the second side all or (top >= grid/2) half.
    short = min(top, grid - top - 1)
    low = 0 if short == top else grid if top == grid else grid - 1
    binom, partial = 1, 1 if top < grid else 0
    for k in range(short if low < width else 0):
        binom = binom * (grid - k) // (k + 1)
        partial += binom
        low = max(low, partial.bit_length() - 1)
        if low >= width:
            break
    if low * nvars >= width:
        raise CandidateCapError(None, cap, low * nvars)
    count = (partial if short == top else 2 ** grid - partial) ** nvars
    if cap is not None and count > cap:
        raise CandidateCapError(count, cap)
    return count


def enumerate_solutions(
    polys: Iterable[TropPolynomial],
    box: Iterable[int],
    max_points: int | None = None,
    *,
    nvars: int,
    max_candidates: int = DEFAULT_CANDIDATE_CAP,
) -> list[tuple[SupportSet, ...]]:
    """All explicit-support tuples inside [0, box]^m solving every polynomial.

    Candidates are finite point sets with at most `max_points` points per
    component (no cone generators).  The scan is refused up front when the
    candidate count exceeds `max_candidates`, before `polys` is read, so a
    lazily passed derivative sample is never built for a refused box.  The
    output order is fixed: per component, subsets by size, then by their
    lexicographic point list; tuples in product order (last component fastest).
    """
    return list(_solutions(polys, box, max_points, nvars, max_candidates, None))


def _solutions(polys: Iterable[TropPolynomial], box: Iterable[int], max_points: int | None,
               nvars: int, max_candidates: int, emit: Callable | None) -> Iterator[tuple]:
    """The solutions of `enumerate_solutions`, in its order, as they are found.

    Each component is given as `emit(s)` of its `SupportSet` s, or as s
    without `emit`; every refusal is raised on the first `next`.

    A component is a sorted tuple of indices into the sorted box grid.
    `is_solution(p, S)` reads S only through Val_J(S_i) for the derivative
    keys x_{i,J} that p mentions, and Val_J(S_i) = Vert(r) - J for the
    restriction r of S_i to the orthant J + Z^m_>=0.  Each r gets a vertex
    id, and ids are interned by vertex points.  A component's ids, one per
    J, extend those of the component without its last, lexicographically
    greatest point p.  As N(r union {p}) = N(Vert(r) union {p}), the set
    Vert(r union {p}) = Vert(Vert(r) union {p}) is computed once per id
    and point, when p lies in J's orthant; otherwise the id is kept.  The
    signature of p at a candidate is the tuple of ids over p's sorted
    keys; the position fixes J, so equal signatures mean equal valuations
    and an equal, exact verdict.  The vanishing test runs once per distinct
    signature of each polynomial, on valuations read from the ids; a
    `SupportSet` is built only for emitted solutions.  Polynomials are tried
    in order and the first false verdict ends a candidate, as in the plain scan.
    """
    box, nvars = as_point(box), as_count(nvars, "nvars")
    if max_points is not None:
        max_points = as_natural(max_points, "max_points")
    max_candidates = as_natural(max_candidates, "max_candidates")
    arity = len(box)
    count_candidates(box, max_points, nvars, max_candidates)
    polys = list(polys)
    for p in polys:
        if p.nvars != nvars or p.arity != arity:
            raise ArityError("system members disagree on arity or variable count")

    # With max_points >= 1 the cap bounds the grid: the count is at least (len(grid)+1)^nvars.
    grid = list(itertools.product(*(range(b + 1) for b in box))) if max_points != 0 else []
    top = len(grid) if max_points is None else min(max_points, len(grid))
    key_sets = [
        sorted({key for mono in p.monomials() for key, _ in mono.exponents})
        for p in polys
    ]
    shifts = sorted({key.index for keys in key_sets for key in keys})
    # inside[col][i]: grid[i] lies in the orthant J + Z^m_>=0 of column col.
    inside = [bytes([leq(j, q) for q in grid]) for j in shifts]
    # Vertex sets interned as ids, so equal vertex sets share one id; id 0
    # is the empty set.
    vertex_sets: list[tuple[Point, ...]] = [()]
    ids: dict[tuple[Point, ...], int] = {(): 0}

    @functools.cache
    def extend(v: int, i: int) -> int:
        # Vert(r union {p}) = Vert(Vert(r) union {p}) for p = grid[i]
        pts = VertexSet._normal(arity, vertex_sets[v] + (grid[i],)).points
        if pts not in ids:
            ids[pts] = len(vertex_sets)
            vertex_sets.append(pts)
        return ids[pts]

    def components() -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        # Each component with its row of vertex ids, one column per J, by
        # size, then lexicographic.  A component of size + 1 points extends
        # one of size points by a later point, in the row's order: only the
        # components of the last size are kept, and only while they are prefixes.
        level = [((), (0,) * len(shifts))]
        yield level[0]
        for size in range(top):
            prefixes, level = level, []
            for combo, row in prefixes:
                for i in range(combo[-1] + 1 if combo else 0, len(grid)):
                    component = (combo + (i,), tuple([extend(v, i) if ins[i] else v
                                                      for v, ins in zip(row, inside)]))
                    yield component
                    if size + 1 < top:
                        level.append(component)

    @functools.cache
    def val(v: int, j: Point) -> VertexSet:
        # Translating id v's points, in J's orthant, by -J keeps their order and
        # vertex property (Val_J = Vert(r) - J); an interned equal set is shared.
        pts = tuple(tuple([a - b for a, b in zip(q, j)]) for q in vertex_sets[v])
        return VertexSet._trusted(arity, vertex_sets[ids[pts]] if pts in ids else pts)

    def support(combo: tuple[int, ...]):
        # sorted grid points and no cones: already in normal form
        s = SupportSet._trusted(arity, tuple([grid[i] for i in combo]), ())
        return s if emit is None else emit(s)

    # With one variable each component is a candidate once; product order
    # visits each again, so `product` lists them, and each is emitted once.
    if nvars == 1:
        candidates = ((component,) for component in components())
    else:
        candidates = itertools.product(components(), repeat=nvars)
        support = functools.cache(support)
    # One verdict memo per polynomial, keyed by its signature.
    column = {j: col for col, j in enumerate(shifts)}
    keyed = [
        (p, keys, [(k.var - 1, column[k.index]) for k in keys], {})
        for p, keys in zip(polys, key_sets)
    ]
    for candidate in candidates:
        for p, keys, cells, memo in keyed:
            sig = tuple([candidate[v][1][col] for v, col in cells])
            verdict = memo.get(sig)
            if verdict is None:
                vals = {k: val(v, k.index) for k, v in zip(keys, sig)}
                verdict = memo[sig] = _report(p, vals).solution
            if not verdict:
                break
        else:
            yield tuple([support(combo) for combo, _ in candidate])
