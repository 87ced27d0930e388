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
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ArityError, CandidateCapError
from .diffpoly import DiffMonomial, DiffPolynomial, derivative_sample
from .lattice import Point, as_point, leq
from .supports import SupportSet
from .tropical import VertexSet

# A tropical monomial eps_M carries exactly the exponent data of its
# classical counterpart E_M; only the evaluation semantics differ.
TropMonomial = DiffMonomial

DEFAULT_CANDIDATE_CAP = 100_000


@dataclass(frozen=True)
class TropPolynomial:
    """Finite map from tropical monomials to nonempty vertex-set coefficients."""

    arity: int
    nvars: int
    terms: tuple[tuple[TropMonomial, VertexSet], ...] = ()

    def __post_init__(self):
        if self.nvars < 1:
            raise ArityError(f"nvars must be >= 1, got {self.nvars}")
        acc: dict[TropMonomial, VertexSet] = {}
        for mono, coef in self.terms:
            mono._check_keys(self.arity, self.nvars)
            if coef.arity != self.arity:
                raise ArityError("coefficient arity differs from polynomial arity")
            if coef.is_empty:
                raise ValueError("tropical coefficients must be nonempty vertex sets")
            acc[mono] = acc[mono].oplus(coef) if mono in acc else coef
        object.__setattr__(
            self,
            "terms",
            tuple(sorted(acc.items(), key=lambda t: t[0].exponents)),
        )

    @classmethod
    def _trusted(cls, arity: int, nvars: int,
                 terms: tuple[tuple[TropMonomial, VertexSet], ...]) -> "TropPolynomial":
        """A polynomial from terms as `__post_init__` leaves them, without the checks."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "arity", arity)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "terms", terms)
        return poly

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
        if factor.is_empty:
            return VertexSet._trusted(arity, ())
        acc = acc.odot(factor.odot_power(e))
    return acc


def eval_monomial(mono: TropMonomial, supports: Sequence[SupportSet], *,
                  arity: int | None = None) -> VertexSet:
    """Evaluate a tropical monomial: product of Val_J(S_i) tropical powers.

    An empty factor annihilates the whole product; the constant monomial
    evaluates to the origin singleton.
    """
    if arity is None:
        if not supports:
            raise ArityError("cannot infer arity from an empty support tuple")
        arity = supports[0].arity
    elif arity < 1:
        raise ArityError(f"arity must be >= 1, got {arity}")
    vals = {}
    for key, _ in mono.exponents:
        if not 1 <= key.var <= len(supports):
            raise ArityError(f"variable x{key.var} out of range")
        vals[key] = supports[key.var - 1].val(key.index)
        if vals[key].is_empty:
            break
    return _product(mono, vals, arity)


def tropicalize(poly: DiffPolynomial) -> TropPolynomial:
    """Replace each coefficient series by its vertex set, monomials verbatim.

    Coefficients must be exact; they are nonzero by construction, so every
    tropical coefficient is a nonempty vertex set, and the terms keep the
    checked, canonical order of `poly`.
    """
    return TropPolynomial._trusted(
        poly.arity,
        poly.nvars,
        tuple((mono, coef.trop()) for mono, coef in poly.terms),
    )


def tropicalize_sample(polys: Iterable[DiffPolynomial], bound: int) -> tuple[TropPolynomial, ...]:
    """Tropicalizations of `derivative_sample(polys, bound)`, in the same order."""
    return tuple(tropicalize(q) for q in derivative_sample(polys, bound))


# -------------------------------------------------------------------- solutions


@dataclass(frozen=True)
class SolutionReport:
    """Evaluation of one tropical polynomial plus per-vertex witness counts.

    `witnesses` maps each vertex of the evaluation to the sorted indices of
    the monomials (in canonical term order) whose term set contains it; the
    verdict is true iff every vertex has at least two witnesses, or the
    evaluation is empty.
    """

    evaluation: VertexSet
    witnesses: tuple[tuple[Point, tuple[int, ...]], ...]
    solution: bool


def _valuations(polys: Sequence[TropPolynomial], supports: Sequence[SupportSet]) -> dict:
    """Val_J(S_i) for each key x_{i,J} of `polys`, after checking the supports."""
    for p in polys:
        if len(supports) != p.nvars:
            raise ArityError(f"expected {p.nvars} support sets, got {len(supports)}")
        if any(s.arity != p.arity for s in supports):
            raise ArityError("support arity differs from polynomial arity")
    keys = {key for p in polys for mono in p.monomials() for key, _ in mono.exponents}
    return {key: supports[key.var - 1].val(key.index) for key in keys}


def _report(poly: TropPolynomial, vals: dict, memo: dict) -> SolutionReport:
    """The vanishing test of `poly` at `vals`, a mapping of its keys to Val_J(S_i).

    `memo` maps monomials to eps_M at `vals`; it gains those evaluated here.
    """
    sets = []
    for mono, coef in poly.terms:
        v = memo.get(mono)
        if v is None:
            v = memo[mono] = _product(mono, vals, poly.arity)
        sets.append(coef.odot(v))
    # Vert(union of the Vert T_i) = Vert(union of the T_i): one (+) over all terms
    evaluation = VertexSet._trusted_unsorted(poly.arity, [v for ts in sets for v in ts])
    witnesses = []
    verdict = True
    for v in evaluation.points:
        found = tuple(i for i, ts in enumerate(sets) if v in ts.points)
        witnesses.append((v, found))
        if len(found) < 2:
            verdict = False
    return SolutionReport(
        evaluation=evaluation,
        witnesses=tuple(witnesses),
        solution=verdict,
    )


def is_solution(poly: TropPolynomial, supports: Sequence[SupportSet]) -> SolutionReport:
    """Tropical vanishing test for one polynomial at a support tuple."""
    return _report(poly, _valuations((poly,), supports), {})


def is_solution_system(
    polys: Iterable[TropPolynomial], supports: Sequence[SupportSet]
) -> tuple[bool, tuple[SolutionReport, ...]]:
    """Conjunction of `is_solution` over a family; empty families hold trivially.

    The supports are fixed, so each Val_J(S_i) is computed once for the
    family, and each monomial is evaluated once.
    """
    polys = tuple(polys)
    vals = _valuations(polys, supports)
    memo: dict[TropMonomial, VertexSet] = {}
    reports = tuple(_report(p, vals, memo) for p in polys)
    return all(r.solution for r in reports), reports


# -------------------------------------------------------------------- enumeration


def count_candidates(box: Point, max_points: int | None, nvars: int) -> int:
    """Number of explicit-support tuples inside the box, before filtering."""
    grid = math.prod(b + 1 for b in box)
    top = grid if max_points is None else min(max_points, grid)
    if top == grid:
        return 2 ** (grid * nvars)
    # sum C(grid, k) over k <= top, or 2^grid minus the sum over k > top,
    # whichever side is shorter, with C(g, k+1) = C(g, k)(g - k)/(k + 1)
    short = min(top, grid - top - 1)
    binom = partial = 1
    for k in range(short):
        binom = binom * (grid - k) // (k + 1)
        partial += binom
    per_component = partial if short == top else 2 ** grid - partial
    return per_component ** nvars


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
    box = as_point(box)
    if max_points is not None and max_points < 0:
        raise ValueError("max_points must be >= 0")
    if max_candidates < 0:
        raise ValueError("max_candidates must be >= 0")
    arity = len(box)
    estimate = count_candidates(box, max_points, nvars)
    if estimate > max_candidates:
        raise CandidateCapError(estimate, max_candidates)
    polys = list(polys)
    for p in polys:
        if p.nvars != nvars or p.arity != arity:
            raise ArityError("system members disagree on arity or variable count")

    size = math.prod(b + 1 for b in box)
    top = size if max_points is None else min(max_points, size)
    # With top >= 1 the cap bounds the grid: the count is at least (size+1)^nvars.
    grid = sorted(itertools.product(*(range(b + 1) for b in box))) if top else []
    key_sets = [
        sorted({key for mono in p.monomials() for key, _ in mono.exponents})
        for p in polys
    ]
    shifts = sorted({key.index for keys in key_sets for key in keys})
    # inside[col][i]: grid[i] lies in the orthant J + Z^m_>=0 of column col.
    inside = [[leq(j, q) for q in grid] for j in shifts]
    # Vertex sets interned as ids, so equal vertex sets share one id; id 0
    # is the empty set.
    vertex_sets: list[tuple[Point, ...]] = [()]
    ids: dict[tuple[Point, ...], int] = {(): 0}

    @functools.cache
    def extend(v: int, i: int) -> int:
        # grid[i] is the component's greatest point, so the points stay canonical
        pts = VertexSet._trusted(arity, vertex_sets[v] + (grid[i],)).points
        if pts not in ids:
            ids[pts] = len(vertex_sets)
            vertex_sets.append(pts)
        return ids[pts]

    # Components by size, then lexicographic; row c holds the vertex ids
    # of component c's restrictions, one column per J.  Each row extends
    # the row of the component without its last point, listed earlier;
    # only a component of fewer than `top` points is a prefix, kept in row_of.
    components = [
        combo for k in range(top + 1)
        for combo in itertools.combinations(range(len(grid)), k)
    ]
    row_of = {(): (0,) * len(shifts)}
    rows = [row_of[()]]
    for combo in components[1:]:
        i = combo[-1]
        row = tuple([extend(v, i) if ins[i] else v
                     for v, ins in zip(row_of[combo[:-1]], inside)])
        rows.append(row)
        if len(combo) < top:
            row_of[combo] = row

    @functools.cache
    def val(v: int, j: Point) -> VertexSet:
        # The points of id v lie in J's orthant, and translating them by -J
        # keeps their order and their vertex property: Val_J = Vert(r) - J.
        return VertexSet._trusted(arity, tuple(
            tuple([a - b for a, b in zip(q, j)]) for q in vertex_sets[v]))

    @functools.cache
    def support(c: int) -> SupportSet:
        return SupportSet(arity, tuple(grid[i] for i in components[c]))

    # One verdict memo per polynomial, keyed by its signature.
    column = {j: col for col, j in enumerate(shifts)}
    keyed = [
        (p, keys, [(k.var - 1, column[k.index]) for k in keys], {})
        for p, keys in zip(polys, key_sets)
    ]
    out = []
    for candidate in itertools.product(range(len(rows)), repeat=nvars):
        for p, keys, cells, memo in keyed:
            sig = tuple([rows[candidate[v]][col] for v, col in cells])
            verdict = memo.get(sig)
            if verdict is None:
                vals = {k: val(v, k.index) for k, v in zip(keys, sig)}
                verdict = memo[sig] = _report(p, vals, {}).solution
            if not verdict:
                break
        else:
            out.append(tuple([support(c) for c in candidate]))
    return out
