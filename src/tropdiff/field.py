"""Exact coefficient fields: the rationals and real quadratic extensions.

A `FieldSpec` fixes the ambient field once per computation: plain rationals
(`d is None`) or Q(sqrt(d)) for a context-fixed nonsquare positive integer d.
Elements are pairs (a, b) of exact rationals denoting a + b*sqrt(d); the
zero test a = b = 0 is exact because sqrt(d) is irrational.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction

from ._value import Value, as_exponent, power
from .errors import FieldError

RationalLike = int | Fraction


class FieldSpec(Value, namedtuple("FieldSpec", "d")):
    __slots__ = ()

    def __new__(cls, d: int | None = None) -> "FieldSpec":
        if d is not None:
            try:
                n = operator.index(d)
            except TypeError:
                n = 0  # not an integer: refused below
            if n < 2 or math.isqrt(n) ** 2 == n:
                raise FieldError(f"d must be a nonsquare integer >= 2, got {d!r}")
            d = n
        return cls._trusted(d)

    def __call__(self, a: RationalLike = 0, b: RationalLike = 0) -> "FieldElement":
        return FieldElement(self, a, b)

    def coerce(self, c: "FieldElement | RationalLike") -> "FieldElement":
        """`c` as an element of this field: an element of it, an int or a Fraction."""
        if isinstance(c, FieldElement):
            if c.field is not self and c.field != self:
                raise FieldError(f"mixed fields {self} and {c.field}")
            return c
        return FieldElement(self, c)

    @property
    def zero(self) -> "FieldElement":
        return self()

    @property
    def one(self) -> "FieldElement":
        return self(1)

    def sqrt_d(self) -> "FieldElement":
        if self.d is None:
            raise FieldError("sqrt(d) needs a quadratic field, not plain rationals")
        return self(0, 1)


RATIONALS = FieldSpec()


def _rational(x: RationalLike) -> Fraction:
    """An exact part of a field element; a float or a string is refused."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise FieldError(f"field elements take int or Fraction parts, got {x!r}")


class FieldElement(Value, namedtuple("FieldElement", "field a b")):
    """a + b*sqrt(d) with exact rational a, b; b = 0 over the plain rationals.

    `_trusted(field, a, b)` takes `Fraction` parts that fit `field`.
    """

    __slots__ = ()

    def __new__(cls, field: FieldSpec, a: RationalLike, b: RationalLike = Fraction(0)
                ) -> "FieldElement":
        if type(a) is not Fraction:
            a = _rational(a)
        if type(b) is not Fraction:
            b = _rational(b)
        if field.d is None and b != 0:
            raise FieldError("irrational part in a plain rational field element")
        return cls._trusted(field, a, b)

    def _denominator(self) -> int:
        """The least common denominator of both parts."""
        return math.lcm(self.a.denominator, self.b.denominator)

    def _numerators(self, den: int) -> tuple[int, int]:
        """The int parts of self * den, for `den` a multiple of `_denominator()`."""
        a, b = self.a, self.b
        return a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, (FieldElement, int, Fraction)):
            return self.field.coerce(other)
        return NotImplemented

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement._trusted(self.field, self.a + o.a, self.b + o.b)

    def __radd__(self, other):
        # NotImplemented would let a tuple on the left concatenate the fields
        return Value.__radd__(self, other) if isinstance(other, tuple) else self.__add__(other)

    def __neg__(self):
        return FieldElement._trusted(self.field, -self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        # (a + b*sqrt(d))(c + e*sqrt(d)) = (ac + bed) + (ae + bc)*sqrt(d), d = 0 over Q
        d = self.field.d or 0
        return FieldElement._trusted(
            self.field,
            self.a * o.a + self.b * d * o.b,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "FieldElement":
        return FieldElement(self.field, self.a, -self.b)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by the zero field element")
        # nonzero: sqrt(d) is irrational, and d = 0 over Q leaves a^2
        norm = o.a * o.a - (self.field.d or 0) * o.b * o.b
        return (self * o.conjugate()) * FieldElement(self.field, 1 / norm)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.field.one / self ** (-n)
        return power(self, as_exponent(n, "field"), self.field.one, FieldElement.__mul__)
