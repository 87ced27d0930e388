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

import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction
from typing import Iterable

from ._value import Value, as_exponent, power
from .errors import ArityError, PrecisionError
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
        """The sum of `(terms, precision)` parts in the normal form of `_sum`, sorted.

        The parts must be sequences, their points valid and of `arity`, the
        coefficients elements of `field`.
        """
        den = _denominator(t for terms, _ in parts for t in terms)
        form, prec = _sum((_form(terms, den), p, 1) for terms, p in parts)
        return _series(arity, field, form, prec, den)

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
        dx, dy = _denominator(self.terms), _denominator(other.terms)
        y = _form(other.terms, dy)
        # the term a*t^p of part i adds a*t^p*y, or a*t^p*sqrt(d)*y, where
        # sqrt(d)*(c + e*sqrt(d)) = ed + c*sqrt(d)
        ys = (y, {(1 - j, q): b * self.field.d if j else b for (j, q), b in y.items()})
        shifted = (({(j, tuple(map(operator.add, p, q))): b for (j, q), b in ys[i].items()},
                    None, a) for (i, p), a in _form(self.terms, dx).items())
        form, prec = _sum(itertools.chain((({}, _prod_prec(self, other), 1),), shifted))
        return _series(self.arity, self.field, form, prec, dx * dy)

    def scalar_mul(self, c) -> "PowerSeries":
        return self * PowerSeries.constant(self.arity, c, self.field)

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
        den = _denominator(self.terms)
        form = {(part, tuple(map(operator.sub, p, j))): n * math.prod(map(math.perm, p, j))
                for (part, p), n in _form(self.terms, den).items() if all(map(operator.ge, p, j))}
        # p -> p - J lowers every degree by |J|, so every term stays below prec
        prec = None if self.precision is None else max(self.precision - sum(j), 0)
        return _series(self.arity, self.field, form, prec, den)

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


# The exact kernel.  A coefficient family times `den`, a common multiple of
# its denominators, is a form: a map sending (part, p) to the nonzero int
# part of the coefficient of t^p, part 0 rational and part 1 sqrt(d).  As
# a + b*sqrt(d) = 0 iff a = b = 0, a form's points are the support.  Series
# sums, products and derivatives, and the derivation engine of `diffpoly`,
# run on forms; a value is converted back once, by `_series`.


def _denominator(terms: Iterable[tuple[Point, FieldElement]]) -> int:
    """The least common denominator of every coefficient of `terms`."""
    return math.lcm(*(c._denominator() for _, c in terms))


def _form(terms: Iterable[tuple[Point, FieldElement]], den: int) -> dict:
    """The form of `terms` times `den`, a multiple of their `_denominator`."""
    return {(part, p): n for p, c in terms for part, n in enumerate(c._numerators(den)) if n}


def _sum(parts: Iterable[tuple[dict, int | None, int]]) -> tuple[dict, int | None]:
    """The series normal form of the sum of `(form, precision, factor)` parts.

    Each form is weighted by its int `factor`.  Like terms are summed and the
    least precision is kept; zero sums and points of total degree at or
    beyond it are dropped.  Returns the form and the precision of the sum.
    """
    acc: dict = {}
    prec = None
    for form, p, e in parts:
        if p is not None and (prec is None or p < prec):
            prec = p
        for q, c in form.items():
            acc[q] = acc.get(q, 0) + c * e
    return {q: c for q, c in acc.items() if c and (prec is None or sum(q[1]) < prec)}, prec


def _series(arity: int, field: FieldSpec, form: dict, precision: int | None,
            den: int) -> "PowerSeries":
    """The series of a form in normal form, divided by `den`."""
    coefs: dict[Point, list[int]] = {}
    for (part, p), n in form.items():
        coefs.setdefault(p, [0, 0])[part] = n
    return PowerSeries._trusted(arity, field, tuple(
        (p, FieldElement._trusted(field, Fraction(a, den), Fraction(b, den)))
        for p, (a, b) in sorted(coefs.items())), precision)
