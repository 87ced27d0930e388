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

    # ---------------------------------------------------------------- evaluation

    def _check_supports(self, supports: Sequence[SupportSet]) -> None:
        if len(supports) != self.nvars:
            raise ArityError(f"expected {self.nvars} support sets, got {len(supports)}")
        for s in supports:
            if s.arity != self.arity:
                raise ArityError("support arity differs from polynomial arity")

    def term_sets(self, supports: Sequence[SupportSet], *,
                  values: dict | None = None) -> tuple[tuple[TropMonomial, VertexSet], ...]:
        """Per-term vertex sets a_M (*) eps_M(S), in canonical monomial order.

        `values` may map monomials to eps_M(S) at these same supports; the
        monomials evaluated here are added to it.
        """
        self._check_supports(supports)
        if values is None:
            values = {}
        out = []
        for mono, coef in self.terms:
            v = values.get(mono)
            if v is None:
                v = values[mono] = eval_monomial(mono, supports, arity=self.arity)
            out.append((mono, coef.odot(v)))
        return tuple(out)

    def eval(self, supports: Sequence[SupportSet]) -> VertexSet:
        """Tropical sum over all terms of a_M (*) eps_M(S), as Vert of their union."""
        return is_solution(self, supports).evaluation


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
    acc = VertexSet._trusted(arity, ((0,) * arity,))
    for key, e in mono.exponents:
        if not 1 <= key.var <= len(supports):
            raise ArityError(f"variable x{key.var} out of range")
        factor = supports[key.var - 1].val(key.index)
        if factor.is_empty:
            return VertexSet._trusted(arity, ())
        acc = acc.odot(factor.odot_power(e))
    return acc


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


def is_solution(poly: TropPolynomial, supports: Sequence[SupportSet], *,
                values: dict | None = None) -> SolutionReport:
    """Tropical vanishing test for one polynomial at a support tuple.

    `values` is the monomial memo of `TropPolynomial.term_sets`.
    """
    sets = poly.term_sets(supports, values=values)
    # Vert(union of the Vert T_i) = Vert(union of the T_i): one (+) over all terms
    evaluation = VertexSet._trusted_unsorted(poly.arity, [v for _, ts in sets for v in ts])
    witnesses = []
    verdict = True
    for v in evaluation.points:
        found = tuple(i for i, (_, ts) in enumerate(sets) if v in ts.points)
        witnesses.append((v, found))
        if len(found) < 2:
            verdict = False
    return SolutionReport(
        evaluation=evaluation,
        witnesses=tuple(witnesses),
        solution=verdict,
    )


def is_solution_system(
    polys: Iterable[TropPolynomial], supports: Sequence[SupportSet]
) -> tuple[bool, tuple[SolutionReport, ...]]:
    """Conjunction of `is_solution` over a family; empty families hold trivially.

    The supports are fixed, so each monomial is evaluated once for the family.
    """
    values: dict[TropMonomial, VertexSet] = {}
    reports = tuple(is_solution(p, supports, values=values) for p in polys)
    return all(r.solution for r in reports), reports


# -------------------------------------------------------------------- enumeration


def count_candidates(box: Point, max_points: int | None, nvars: int) -> int:
    """Number of explicit-support tuples inside the box, before filtering."""
    grid = 1
    for b in box:
        grid *= b + 1
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
    and an equal, exact verdict.  The scan calls `is_solution` once per
    distinct signature of each polynomial, on `SupportSet`s built only
    then and for emitted solutions.  Polynomials are tried in order
    and the first false verdict ends a candidate, as in the plain scan.
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

    grid = sorted(itertools.product(*(range(b + 1) for b in box)))
    top = len(grid) if max_points is None else min(max_points, len(grid))
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
    def support(c: int) -> SupportSet:
        return SupportSet(arity, tuple(grid[i] for i in components[c]))

    # One verdict memo per polynomial, keyed by its signature.
    column = {j: col for col, j in enumerate(shifts)}
    keyed = [
        (p, [(k.var - 1, column[k.index]) for k in keys], {})
        for p, keys in zip(polys, key_sets)
    ]
    out = []
    for candidate in itertools.product(range(len(rows)), repeat=nvars):
        for p, keys, memo in keyed:
            sig = tuple([rows[candidate[v]][col] for v, col in keys])
            verdict = memo.get(sig)
            if verdict is None:
                verdict = memo[sig] = is_solution(
                    p, tuple([support(c) for c in candidate])).solution
            if not verdict:
                break
        else:
            out.append(tuple([support(c) for c in candidate]))
    return out
