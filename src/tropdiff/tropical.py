"""The idempotent semiring of vertex sets (tropical formal power series).

A vertex set is a finite antichain in Z^m_>=0 that is fixed by the vertex
operator.  The semiring operations are

    S (+) T = Vert(S union T)        S (*) T = Vert(S + T)

with Minkowski sum on the right; the zero element is the empty set and the
unit is the origin singleton.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Iterator

from ._value import Value, as_exponent
from .errors import ArityError
from .lattice import Point, _vertices_cached, add, as_count, as_point, canon


class VertexSet(Value, namedtuple("VertexSet", "arity points")):
    """A finite antichain of lattice points, fixed by the vertex operator.

    `__new__` validates, `_normal` computes the vertex set, and
    `_trusted(arity, points)` keeps points that are one already: canonical,
    of `arity`.  Iteration, `len`, `in` and truth read them.
    """

    __slots__ = ()

    def __new__(cls, arity: int, points: Iterable[Iterable[int]] = ()) -> "VertexSet":
        arity = as_count(arity)
        return cls._normal(arity, canon(points, arity))

    @classmethod
    def _normal(cls, arity: int, points: Iterable[Point]) -> "VertexSet":
        """Vertex set of valid points of `arity`, in any order, repeats allowed."""
        return cls._trusted(arity, _vertices_cached(tuple(sorted(set(points)))))

    @classmethod
    def empty(cls, arity: int) -> "VertexSet":
        return cls(arity)

    @classmethod
    def unit(cls, arity: int) -> "VertexSet":
        """The origin singleton, neutral for (*)."""
        return cls(arity, ((0,) * arity,))

    @property
    def is_empty(self) -> bool:
        return not self.points

    def member(self, p: Iterable[int]) -> bool:
        return as_point(p, self.arity) in self.points

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p) -> bool:
        return p in self.points

    def __bool__(self) -> bool:
        return bool(self.points)

    def _check(self, other: "VertexSet") -> None:
        if self.arity != other.arity:
            raise ArityError(f"mixed arities {self.arity} and {other.arity}")

    def oplus(self, other: "VertexSet") -> "VertexSet":
        """Tropical sum: vertex set of the union."""
        self._check(other)
        return VertexSet._normal(self.arity, self.points + other.points)

    def odot(self, other: "VertexSet") -> "VertexSet":
        """Tropical product: vertex set of the Minkowski sum; empty annihilates."""
        self._check(other)
        if self.is_empty or other.is_empty:
            return self if self.is_empty else other
        return VertexSet._normal(
            self.arity, [add(p, q) for p in self.points for q in other.points])

    def odot_power(self, n: int) -> "VertexSet":
        """n-fold tropical product {n*v}, as N(V+...+V) = n*N(V); n = 0 gives the unit."""
        n = as_exponent(n, "tropical")
        if n == 0:
            return VertexSet.unit(self.arity)
        # scaling by n >= 1 keeps the order, and n*Vert(V) = Vert(n*V)
        return VertexSet._trusted(self.arity, tuple(tuple(n * c for c in p) for p in self.points))
