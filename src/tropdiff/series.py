"""Exact multivariate formal power series over a pluggable exact field.

A series is a finite exponent-to-coefficient map plus a precision tag:
`precision is None` means the value is an exact polynomial, and an integer
N means only the coefficients of total degree < N are authoritative.
Exact series lose nothing under any operation; truncated results carry the
worst-case sound precision.

The support and the tropicalization are only defined for exact series: a
truncated series cannot certify the absence of higher-degree terms.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from typing import Iterable

from ._value import Value, as_exponent, power
from .errors import ArityError, FieldError, PrecisionError
from .field import RATIONALS, FieldElement, FieldSpec
from .lattice import Point, as_count, as_natural, as_point
from .supports import SupportSet
from .tropical import VertexSet


def as_axis(k: int, arity: int) -> int:
    """Validate a 1-based axis index of t_1..t_arity: an int from 1 to `arity`."""
    k = as_count(k, "axis")
    if k > arity:
        raise ArityError(f"axis {k} out of range for arity {arity}")
    return k


def factorial_of(p: Point) -> int:
    """Componentwise factorial product j_1! * ... * j_m!."""
    out = 1
    for j in p:
        out *= math.factorial(j)
    return out


class PowerSeries(Value, namedtuple("PowerSeries", "arity field terms precision")):
    """Exponent-to-coefficient terms; `precision` None: exact, N: degrees < N authoritative.

    `_trusted(arity, field, terms, precision)` takes terms as `__new__` leaves
    them: valid points of `arity`, distinct, sorted and of total degree below
    `precision`, with nonzero coefficients in `field`.
    """

    __slots__ = ()

    def __new__(cls, arity: int, field: FieldSpec = RATIONALS,
                terms: Iterable[tuple[Iterable[int], FieldElement | int]] = (),
                precision: int | None = None) -> "PowerSeries":
        arity = as_count(arity)
        if precision is not None:
            precision = as_natural(precision, "precision")
        checked = tuple((as_point(exp, arity), field.coerce(c)) for exp, c in terms)
        return cls._normal(arity, field, ((checked, precision),))

    @classmethod
    def _normal(cls, arity: int, field: FieldSpec,
                parts: Iterable[tuple[Iterable[tuple[Point, FieldElement]], int | None]]
                ) -> "PowerSeries":
        """The sum of `(terms, precision)` parts in normal form.

        Like terms are summed and the least precision is kept; zero sums and
        terms of total degree at or beyond it are dropped, the rest sorted.
        The points must be valid and of `arity`, the coefficients elements
        of `field`.
        """
        acc: dict[Point, FieldElement] = {}
        prec = None
        for terms, p in parts:
            if p is not None and (prec is None or p < prec):
                prec = p
            for q, c in terms:
                s = acc.get(q)
                acc[q] = c if s is None else s + c
        kept = tuple((q, c) for q, c in sorted(acc.items())
                     if c and (prec is None or sum(q) < prec))
        return cls._trusted(arity, field, kept, prec)

    # ---------------------------------------------------------------- factories

    @classmethod
    def zero(cls, arity: int, field: FieldSpec = RATIONALS) -> "PowerSeries":
        return cls(arity, field)

    @classmethod
    def one(cls, arity: int, field: FieldSpec = RATIONALS) -> "PowerSeries":
        return cls.constant(arity, field.one, field)

    @classmethod
    def constant(cls, arity: int, c, field: FieldSpec = RATIONALS) -> "PowerSeries":
        return cls.monomial(arity, (0,) * arity, c, field)

    @classmethod
    def monomial(cls, arity: int, exponent: Iterable[int], c,
                 field: FieldSpec = RATIONALS) -> "PowerSeries":
        return cls(arity, field, ((exponent, c),))

    @classmethod
    def variable(cls, arity: int, k: int, field: FieldSpec = RATIONALS) -> "PowerSeries":
        """The series t_k (1-based axis index)."""
        k = as_axis(k, arity)
        return cls.monomial(arity, (0,) * (k - 1) + (1,) + (0,) * (arity - k), field.one, field)

    # ---------------------------------------------------------------- queries

    @property
    def is_exact(self) -> bool:
        return self.precision is None

    @property
    def is_zero(self) -> bool:
        """No known terms; for exact series this is true vanishing."""
        return not self.terms

    def coeff(self, exponent: Iterable[int]) -> FieldElement:
        p = as_point(exponent, self.arity)
        if self.precision is not None and sum(p) >= self.precision:
            raise PrecisionError(
                f"coefficient of degree {sum(p)} beyond precision {self.precision}"
            )
        for q, c in self.terms:
            if q == p:
                return c
        return self.field.zero

    def min_total_degree(self) -> int | None:
        """Order of the known part (None when no terms are stored)."""
        if not self.terms:
            return None
        return min(sum(p) for p, _ in self.terms)

    # ---------------------------------------------------------------- arithmetic

    def _check(self, other: "PowerSeries") -> None:
        if self.arity != other.arity:
            raise ArityError(f"mixed arities {self.arity} and {other.arity}")
        if self.field != other.field:
            raise FieldError(f"mixed fields {self.field} and {other.field}")

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        self._check(other)
        return PowerSeries._normal(self.arity, self.field, (
            (self.terms, self.precision), (other.terms, other.precision)))

    def __neg__(self) -> "PowerSeries":
        return PowerSeries._trusted(
            self.arity, self.field,
            tuple((p, -c) for p, c in self.terms), self.precision,
        )

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return self + (-other)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        self._check(other)
        products = ((tuple(map(operator.add, p, q)), c * e)
                    for p, c in self.terms for q, e in other.terms)
        return PowerSeries._normal(self.arity, self.field, ((products, _prod_prec(self, other)),))

    def scalar_mul(self, c) -> "PowerSeries":
        c = self.field.coerce(c)
        if c.is_zero:
            return PowerSeries.zero(self.arity, self.field)
        # a field has no zero divisors: the terms stay nonzero and in order
        return PowerSeries._trusted(
            self.arity, self.field,
            tuple((p, c * v) for p, v in self.terms), self.precision,
        )

    def __pow__(self, n: int) -> "PowerSeries":
        return power(self, as_exponent(n, "series"), PowerSeries.one(self.arity, self.field),
                     PowerSeries.__mul__)

    def truncate(self, n: int) -> "PowerSeries":
        """Forget coefficients of total degree >= n: add the zero known below degree n."""
        n = as_natural(n, "precision")
        return PowerSeries._normal(self.arity, self.field, ((self.terms, self.precision), ((), n)))

    # ---------------------------------------------------------------- calculus

    def derive(self, k: int) -> "PowerSeries":
        """Formal partial derivative along axis k (1-based)."""
        k = as_axis(k, self.arity)
        return self.theta((0,) * (k - 1) + (1,) + (0,) * (self.arity - k))

    def theta(self, shift: Iterable[int]) -> "PowerSeries":
        """The derivative of order J = shift, in one pass over the terms.

        A term c*t^p with p >= J becomes c * prod_k p_k!/(p_k - J_k)! * t^(p-J);
        the other terms vanish.  A precision N becomes max(N - |J|, 0).
        """
        j = as_point(shift, self.arity)
        terms = []
        for p, c in self.terms:
            if all(map(operator.ge, p, j)):
                n = math.prod(map(math.perm, p, j))
                terms.append((tuple(map(operator.sub, p, j)), c._scaled(n)))
        prec = None if self.precision is None else max(self.precision - sum(j), 0)
        # p -> p - J keeps the order and lowers every degree by |J|
        return PowerSeries._trusted(self.arity, self.field, tuple(terms), prec)

    # ---------------------------------------------------------------- tropical side

    def support(self) -> SupportSet:
        """Exponents with nonzero coefficient; exact series only."""
        if self.precision is not None:
            raise PrecisionError("the support of a truncated series is unknowable")
        return SupportSet(self.arity, tuple(p for p, _ in self.terms))

    def trop(self) -> VertexSet:
        """Vertex set of the support; exact series only."""
        if self.precision is not None:
            raise PrecisionError("the tropicalization of a truncated series is unknowable")
        return VertexSet._normal(self.arity, [p for p, _ in self.terms])

    # ---------------------------------------------------------------- coefficients

    def taylor_coefficients(self) -> dict[Point, FieldElement]:
        """The family a_J = J! * coeff(J), i.e. phi = sum a_J t^J / J!."""
        if self.precision is not None:
            raise PrecisionError("full Taylor data needs an exact series")
        return {p: c * factorial_of(p) for p, c in self.terms}

    def taylor_coefficient(self, exponent: Iterable[int]) -> FieldElement:
        """Single Taylor coefficient; honors the precision of truncated series."""
        p = as_point(exponent, self.arity)
        return self.coeff(p) * factorial_of(p)


def _prod_prec(x: PowerSeries, y: PowerSeries) -> int | None:
    # error terms: err_x * known_y (>= px + ord_y), known_x * err_y, err * err
    if x.precision is None and y.precision is None:
        return None
    cands = []
    ox, oy = x.min_total_degree(), y.min_total_degree()
    if x.precision is not None and oy is not None:
        cands.append(x.precision + oy)
    if y.precision is not None and ox is not None:
        cands.append(y.precision + ox)
    if x.precision is not None and y.precision is not None:
        cands.append(x.precision + y.precision)
    return min(cands) if cands else None
