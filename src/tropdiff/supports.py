"""Staircase subsets of Z^m_>=0: the computable slice of the support semiring.

A staircase set is a finite set of explicit points together with finitely
many cone generators g, each denoting the translated orthant g + Z^m_>=0.
The class is closed under union, Minkowski sum and the tropical derivative,
and it contains the support of every polynomial.

Values are normalized to a canonical representative of the denoted set:

  * duplicates removed, explicit points absorbed into cones, generator
    antichain minimized;
  * an explicit point whose whole upper orthant happens to lie in the set
    is promoted to a generator (e.g. explicit {(0,0)} with cones
    {(1,0),(0,1)} denotes the full orthant and normalizes to the single
    generator (0,0)).

After normalization, two values denote the same subset of the lattice iff
they are componentwise identical, so `==` is semantic equality.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable

from ._value import Value, as_exponent, power
from .lattice import Point, _minimal, add, as_count, as_point, canon, leq
from .tropical import VertexSet


def _normalize(
    arity: int, explicit: Iterable[Point], cones: Iterable[Point]
) -> tuple[tuple[Point, ...], tuple[Point, ...]]:
    gens = _minimal(canon(cones, arity))
    expl = tuple(
        p for p in canon(explicit, arity) if not any(leq(g, p) for g in gens)
    )
    if gens and expl:
        # full[p]: p + Z^m_>=0 lies in the set.  It does exactly when every
        # p + e_k lies under a cone or is an explicit point whose own orthant
        # does.  p + e_k sorts after p, so a pass down the sorted points has
        # decided every explicit neighbour before p needs it: at most
        # m*|expl|*|gens| comparisons, whatever the size of the coordinates.
        full: dict[Point, bool] = {}
        for p in reversed(expl):
            full[p] = all(
                full.get(r) or any(leq(g, r) for g in gens)
                for r in (p[:k] + (p[k] + 1,) + p[k + 1:] for k in range(arity))
            )
        promoted = tuple(p for p in expl if full[p])
        if promoted:
            # both are checked already: sort them without validating again.
            # A point above a promoted one is full itself, so the points
            # that stay explicit are exactly those that are not full.
            gens = _minimal(tuple(sorted(gens + promoted)))
            expl = tuple(p for p in expl if not full[p])
    return expl, gens


class SupportSet(Value, namedtuple("SupportSet", "arity explicit cones")):
    """A normalized staircase subset of the lattice Z^arity_>=0.

    `_trusted(arity, explicit, cones)` takes parts as `__new__` leaves them.
    """

    __slots__ = ()

    def __new__(cls, arity: int, explicit: Iterable[Iterable[int]] = (),
                cones: Iterable[Iterable[int]] = ()) -> "SupportSet":
        arity = as_count(arity)
        return cls._trusted(arity, *_normalize(arity, explicit, cones))

    @classmethod
    def empty(cls, arity: int) -> "SupportSet":
        return cls(arity)

    @classmethod
    def origin(cls, arity: int) -> "SupportSet":
        """The singleton {(0,...,0)}, neutral for the Minkowski sum."""
        return cls(arity, ((0,) * arity,))

    @property
    def is_empty(self) -> bool:
        return not self.explicit and not self.cones

    def member(self, p: Iterable[int]) -> bool:
        """Membership of a point in the denoted set."""
        q = as_point(p, self.arity)
        return q in self.explicit or any(leq(g, q) for g in self.cones)

    def union(self, other: "SupportSet") -> "SupportSet":
        self._check(other)
        return SupportSet(
            self.arity,
            self.explicit + other.explicit,
            self.cones + other.cones,
        )

    def minkowski(self, other: "SupportSet") -> "SupportSet":
        """Pointwise sums {x + y}; any block touching a cone stays a cone."""
        self._check(other)
        expl = tuple(add(p, q) for p in self.explicit for q in other.explicit)
        gens = (
            tuple(add(p, g) for p in self.explicit for g in other.cones)
            + tuple(add(g, q) for g in self.cones for q in other.explicit)
            + tuple(add(g, h) for g in self.cones for h in other.cones)
        )
        return SupportSet(self.arity, expl, gens)

    def n_fold(self, n: int) -> "SupportSet":
        """n-fold Minkowski power; the empty product is the origin singleton."""
        return power(self, as_exponent(n, "Minkowski"), SupportSet.origin(self.arity),
                     SupportSet.minkowski)

    def _shifted(self, j: Point) -> tuple[tuple[Point, ...], tuple[Point, ...]]:
        expl = tuple(
            tuple(a - b for a, b in zip(t, j)) for t in self.explicit if leq(j, t)
        )
        gens = tuple(tuple(max(a - b, 0) for a, b in zip(g, j)) for g in self.cones)
        return expl, gens

    def trop_derivative(self, shift: Iterable[int]) -> "SupportSet":
        """Translate by -shift and keep the nonnegative part.

        Explicit points that would leave the lattice are dropped; a cone
        generator is clamped at zero componentwise, since the shifted
        orthant always meets the lattice.
        """
        return SupportSet(self.arity, *self._shifted(as_point(shift, self.arity)))

    def vertices(self) -> VertexSet:
        """Vertex set of the denoted (possibly infinite) staircase set: Val_0(S).

        N(explicit + cones) already contains every cone's orthant, so these
        are the vertices of the finite set of generators and explicit
        points.  That is `val` at the origin, which shifts nothing, so the
        vertex set comes from the one cached vertex routine of `lattice`.
        """
        return self.val((0,) * self.arity)

    def val(self, shift: Iterable[int]) -> VertexSet:
        """Vertex set of the tropical derivative: Val_J(S) = Vert(shift of S).

        Built from the shifted explicit points and clamped generators
        without normalizing them into a SupportSet first: normalization
        only drops points inside cones and reshapes the generators, so the
        Newton polygon, and with it the vertex set, is unchanged.  The
        shifted points are nonnegative by construction, so they are not
        validated again.
        """
        expl, gens = self._shifted(as_point(shift, self.arity))
        return VertexSet._normal(self.arity, expl + gens)
