"""Differential polynomials over exact power-series coefficients.

A differential polynomial in variables x_1..x_n over K[[t_1..t_m]] is a
finite sum of terms alpha_M * E_M, where E_M is a product of derivative
variables x_{i,J} with positive integer exponents and alpha_M is a series.
Derivations act by the Leibniz rule, shifting x_{i,J} to x_{i,J+e_k} and
differentiating the coefficients; evaluation substitutes the J-th
derivative of phi_i for x_{i,J}.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from ._value import Value
from .errors import ArityError, FieldError, PrecisionError, SampleCapError
from .field import RATIONALS, FieldElement, FieldSpec
from .lattice import Point, as_count, as_natural, as_point
from .series import PowerSeries, as_axis


class DerivativeKey(namedtuple("DerivativeKey", "var index")):
    """The derivative variable x_{var, index} (var is 1-based).

    A named tuple kept outside `Value`, so keys hash, compare and sort as
    tuples do; pickle and copy rebuild them through `__new__`.
    """

    __slots__ = ()

    def __new__(cls, var: int, index: Iterable[int]) -> "DerivativeKey":
        try:
            var = operator.index(var)
        except TypeError:
            raise ArityError(f"non-integer variable number {var!r}") from None
        return tuple.__new__(cls, (var, as_point(index)))

    @classmethod
    def _trusted(cls, var: int, index: Point) -> "DerivativeKey":
        """The key of an int variable and a valid point, without the checks."""
        return tuple.__new__(cls, (var, index))

    def bump(self, k: int) -> "DerivativeKey":
        """Key of the derivative along axis k (1-based)."""
        var, idx = self
        return DerivativeKey._trusted(var, idx[: k - 1] + (idx[k - 1] + 1,) + idx[k:])


class DiffMonomial(Value, namedtuple("DiffMonomial", "exponents")):
    """Sparse product of derivative variables: map key -> positive exponent.

    `_trusted(exponents)` takes distinct sorted keys with positive int exponents.
    """

    __slots__ = ()

    def __new__(cls, exponents: Iterable[tuple[DerivativeKey, int]] = ()) -> "DiffMonomial":
        acc: dict[DerivativeKey, int] = {}
        for key, e in exponents:
            try:
                acc[key] = acc.get(key, 0) + operator.index(e)
            except TypeError:
                raise ValueError(f"non-integer exponent {e!r} on {key}") from None
        for key, e in acc.items():
            if e < 0:
                raise ValueError(f"negative exponent on {key}")
        return cls._trusted(tuple((k, e) for k, e in sorted(acc.items()) if e > 0))

    @classmethod
    def one(cls) -> "DiffMonomial":
        return cls()

    @classmethod
    def variable(cls, var: int, index: Iterable[int], power: int = 1) -> "DiffMonomial":
        return cls(((DerivativeKey(var, index), power),))

    @property
    def is_constant(self) -> bool:
        return not self.exponents

    def __mul__(self, other: "DiffMonomial") -> "DiffMonomial":
        if not (self.exponents and other.exponents):  # a factor is the unit monomial
            return self if not other.exponents else other
        acc = dict(self.exponents)
        for key, e in other.exponents:
            acc[key] = acc.get(key, 0) + e
        return DiffMonomial._trusted(tuple(sorted(acc.items())))

    def _check_keys(self, arity: int, nvars: int) -> None:
        """Every key names one of `nvars` variables with an index of `arity` entries."""
        for key, _ in self.exponents:
            if not 1 <= key.var <= nvars:
                raise ArityError(f"variable x{key.var} out of range for {nvars} variables")
            if len(key.index) != arity:
                raise ArityError(f"index {key.index} of x{key.var} is not of arity {arity}")


class DiffPolynomial(Value, namedtuple("DiffPolynomial", "arity nvars field terms")):
    """Finite sum of (series coefficient, differential monomial) terms."""

    __slots__ = ()

    def __new__(cls, arity: int, nvars: int, field: FieldSpec = RATIONALS,
                terms: Iterable[tuple[DiffMonomial, PowerSeries]] = ()) -> "DiffPolynomial":
        arity, nvars = as_count(arity), as_count(nvars, "nvars")
        groups: dict[tuple[tuple[DerivativeKey, int], ...], list] = {}
        for mono, coef in terms:
            mono._check_keys(arity, nvars)
            if coef.arity != arity:
                raise ArityError("coefficient arity differs from polynomial arity")
            if coef.field != field:
                raise FieldError("coefficient from a different field")
            groups.setdefault(mono.exponents, []).append((coef.terms, coef.precision))
        return cls._normal(arity, nvars, field, groups)

    @classmethod
    def _normal(cls, arity: int, nvars: int, field: FieldSpec,
                groups: dict[tuple[tuple[DerivativeKey, int], ...], list]) -> "DiffPolynomial":
        """The sum of each monomial's `(terms, precision)` series parts, in normal form.

        `groups` maps monomial exponents, in range for `(arity, nvars)`, to
        parts of `arity` over `field`, each in series normal form: a lone part
        is kept as it is, more are summed by `PowerSeries._normal`.  Monomials
        that sum to an exact zero are dropped, the rest sorted by exponents: a
        truncated coefficient with no known terms is unknown, not zero.
        """
        terms = []
        for exponents, parts in sorted(groups.items()):
            if len(parts) == 1:
                coef = PowerSeries._trusted(arity, field, *parts[0])
            else:
                coef = PowerSeries._normal(arity, field, parts)
            if coef.terms or coef.precision is not None:
                terms.append((DiffMonomial._trusted(exponents), coef))
        return cls._trusted(arity, nvars, field, tuple(terms))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def monomials(self) -> tuple[DiffMonomial, ...]:
        return tuple(m for m, _ in self.terms)

    def coefficient(self, mono: DiffMonomial) -> PowerSeries:
        for m, c in self.terms:
            if m == mono:
                return c
        return PowerSeries.zero(self.arity, self.field)

    # ---------------------------------------------------------------- ring ops

    def _check(self, other: "DiffPolynomial") -> None:
        if (self.arity, self.nvars) != (other.arity, other.nvars):
            raise ArityError("mixed arities or variable counts")
        if self.field != other.field:
            raise FieldError("mixed coefficient fields")

    def __add__(self, other: "DiffPolynomial") -> "DiffPolynomial":
        self._check(other)
        groups: dict[tuple[tuple[DerivativeKey, int], ...], list] = {}
        for mono, coef in self.terms + other.terms:
            groups.setdefault(mono.exponents, []).append((coef.terms, coef.precision))
        return DiffPolynomial._normal(self.arity, self.nvars, self.field, groups)

    def __neg__(self) -> "DiffPolynomial":
        return DiffPolynomial._normal(self.arity, self.nvars, self.field, {
            mono.exponents: [((-coef).terms, coef.precision)] for mono, coef in self.terms})

    def __sub__(self, other: "DiffPolynomial") -> "DiffPolynomial":
        return self + (-other)

    def __mul__(self, other: "DiffPolynomial") -> "DiffPolynomial":
        self._check(other)
        groups: dict[tuple[tuple[DerivativeKey, int], ...], list] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                coef = c1 * c2
                groups.setdefault((m1 * m2).exponents, []).append((coef.terms, coef.precision))
        return DiffPolynomial._normal(self.arity, self.nvars, self.field, groups)

    # ---------------------------------------------------------------- derivations

    def derive(self, k: int) -> "DiffPolynomial":
        """One derivation along axis k: Leibniz over variables plus d(alpha)/dt_k."""
        k = as_axis(k, self.arity)
        return self.theta((0,) * (k - 1) + (1,) + (0,) * (self.arity - k))

    def theta(self, shift: Iterable[int]) -> "DiffPolynomial":
        """Iterated derivations per the multi-index `shift`; they stop at zero."""
        j = as_point(shift, self.arity)
        den, form = _numerators(self)
        for k in range(self.arity):
            for _ in range(j[k]):
                if not form:
                    break
                form = _derive_form(form, k)
        return _from_numerators(self, den, form)

    # ---------------------------------------------------------------- evaluation

    def evaluate(self, phis: Sequence[PowerSeries]) -> PowerSeries:
        """Substitute theta(J)(phi_i) for x_{i,J} and expand."""
        if len(phis) != self.nvars:
            raise ArityError(f"expected {self.nvars} series, got {len(phis)}")
        for s in phis:
            if s.arity != self.arity:
                raise ArityError("series arity differs from polynomial arity")
            if s.field != self.field:
                raise FieldError("series field differs from coefficient field")
        cache: dict[DerivativeKey, PowerSeries] = {}
        total = PowerSeries.zero(self.arity, self.field)
        for mono, coef in self.terms:
            prod = coef
            for key, e in mono.exponents:
                if key not in cache:
                    cache[key] = phis[key.var - 1].theta(key.index)
                prod = prod * cache[key] ** e
            total = total + prod
        return total

    def taylor_coeff_poly(self, shift: Iterable[int]) -> "DiffPolynomial":
        """The polynomial theta(shift)(P) with every coefficient evaluated at t = 0.

        The result has constant coefficients; terms whose coefficient has no
        constant part are dropped.  Truncated coefficients must still know
        their constant term after the differentiation.
        """
        q = self.theta(shift)
        groups = {}
        origin = (0,) * self.arity
        for mono, coef in q.terms:
            if coef.precision is not None and coef.precision < 1:
                raise PrecisionError(
                    "coefficient precision exhausted before evaluation at t = 0"
                )
            c0 = coef.coeff(origin)
            if not c0.is_zero:
                groups[mono.exponents] = [(((origin, c0),), None)]
        return DiffPolynomial._normal(self.arity, self.nvars, self.field, groups)

    def eval_at_constants(self, values: Callable[[int, Point], FieldElement]) -> FieldElement:
        """Evaluate a constant-coefficient polynomial at numbers x_{i,J} = values(i, J)."""
        origin = (0,) * self.arity
        total = self.field.zero
        for mono, coef in self.terms:
            if any(p != origin for p, _ in coef.terms):
                raise ValueError("eval_at_constants needs constant coefficients")
            v = coef.coeff(origin)
            for key, e in mono.exponents:
                v = v * values(key.var, key.index) ** e
                if v.is_zero:
                    break
            total = total + v
        return total


# The derivation engine.  theta(I)(cP) = c*theta(I)P, so P is derived once
# times `den`, the lcm of its coefficients' denominators, on integers only.  A
# form maps each monomial's exponents to (map, precision); the map sends (part,
# p) to the nonzero int part of the coefficient of t^p, 0 rational, 1 sqrt(d):
# a + b*sqrt(d) = 0 iff a = b = 0, so its points are the coefficient's support.


def _numerators(poly: DiffPolynomial) -> tuple[int, dict]:
    """`den` and the form of `poly` times `den`."""
    den = math.lcm(*(c._denominator() for _, s in poly.terms for _, c in s.terms))
    return den, {mono.exponents: ({(part, p): n for p, c in s.terms
                                   for part, n in enumerate(c._numerators(den)) if n},
                                  s.precision)
                 for mono, s in poly.terms}


def _from_numerators(poly: DiffPolynomial, den: int, form: dict) -> DiffPolynomial:
    """The polynomial of a form of `poly`'s shape, divided by `den`."""
    terms = []
    for exponents, (coef, prec) in sorted(form.items()):
        parts: dict[Point, list[int]] = {}
        for (part, p), n in coef.items():
            parts.setdefault(p, [0, 0])[part] = n
        series = tuple((p, FieldElement._trusted(poly.field, Fraction(a, den), Fraction(b, den)))
                       for p, (a, b) in sorted(parts.items()))
        terms.append((DiffMonomial._trusted(exponents),
                      PowerSeries._trusted(poly.arity, poly.field, series, prec)))
    return DiffPolynomial._trusted(poly.arity, poly.nvars, poly.field, tuple(terms))


def _supports(form: dict) -> list[tuple[tuple, set[Point]]]:
    """Each monomial's exponents and its coefficient's support, sorted; exact forms only."""
    if any(prec is not None for _, prec in form.values()):
        raise PrecisionError("the tropicalization of a truncated series is unknowable")
    return [(exponents, {p for _, p in coef}) for exponents, (coef, _) in sorted(form.items())]


def _derive_form(form: dict, i: int) -> dict:
    """One derivation of a form along the 0-based axis i.

    alpha*E gives d(alpha)/dt_i*E, of precision N - 1, and, for each key
    x_{v,J}^e of E, e*alpha*E*x_{v,J+e_i}/x_{v,J}, built afresh from the
    exponent counts, so the call keeps nothing but its result.  The parts
    are summed as by `DiffPolynomial._normal`.
    """
    groups: dict = {}
    for exponents, (coef, prec) in form.items():
        deriv = {(part, p[:i] + (p[i] - 1,) + p[i + 1:]): c * p[i]
                 for (part, p), c in coef.items() if p[i]}
        dprec = None if prec is None else max(prec - 1, 0)
        groups.setdefault(exponents, []).append((deriv, dprec, 1))
        for key, e in exponents:
            counts = {k: c - (k == key) for k, c in exponents if k != key or c > 1}
            up = key.bump(i + 1)
            counts[up] = counts.get(up, 0) + 1
            groups.setdefault(tuple(sorted(counts.items())), []).append((coef, prec, e))
    out = {}
    for exponents, parts in groups.items():
        coef, prec, e = parts[0]
        if len(parts) > 1 or e != 1:  # a lone map of factor 1 is shared, not copied
            acc: dict = {}
            for terms, p, e in parts:
                for q, c in terms.items():
                    acc[q] = acc.get(q, 0) + c * e
                if p is not None and (prec is None or p < prec):
                    prec = p
            coef = {q: c for q, c in acc.items() if c and (prec is None or sum(q[1]) < prec)}
        if coef or prec is not None:
            out[exponents] = (coef, prec)
    return out


# The most polynomials `derivative_sample` yields: |polys|*(bound+1)^m.
MAX_SAMPLE_SIZE = 10_000


def _sample(polys: Iterable[DiffPolynomial], bound: int) -> Iterator[tuple]:
    """(P, den, form of theta(I)(P) times den) in `derivative_sample`'s order.

    `den` is None at I = 0, where the form is P's own.
    """
    bound = as_natural(bound, "derivative bound")
    polys = list(polys)
    # (bound+1)^a > MAX_SAMPLE_SIZE for a >= its bit length, unless bound = 0:
    # a clamped exponent keeps the estimate cheap for any arity
    cap_bits = MAX_SAMPLE_SIZE.bit_length()
    size = sum((bound + 1) ** min(p.arity, cap_bits) for p in polys)
    if size > MAX_SAMPLE_SIZE:
        raise SampleCapError(f"the derivative sample would hold {size} or more "
                             f"polynomials, exceeding the cap of {MAX_SAMPLE_SIZE}")
    for p in polys:
        den, form = _numerators(p)
        # row[j] = theta(I_1, .., I_{j+1}, 0, .., 0)(P) for the current I
        row = [form] * p.arity
        for idx in itertools.product(range(bound + 1), repeat=p.arity):
            k = max((i for i, j in enumerate(idx) if j), default=None)
            if k is not None:
                row[k:] = [_derive_form(row[k], k)] * (p.arity - k)
            yield p, None if k is None else den, row[-1]


def derivative_sample(polys: Iterable[DiffPolynomial], bound: int) -> Iterator[DiffPolynomial]:
    """Yield theta(I)(P) for each P in polys and ||I||_inf <= bound, in product order of I.

    A sample of more than MAX_SAMPLE_SIZE polynomials is refused with
    `SampleCapError` on the first `next`, before any derivation.

    For I != 0 let k be the last axis with I_k > 0.  theta(I)(P) is
    theta(I - e_k)(P) derived once more along axis k; `theta` applies the
    axes in increasing order, so this replays its derivations one for one
    and the result is equal term for term.  I - e_k = (I_1, .., I_k - 1, 0,
    .., 0) is a prefix of the index just before I, so one row of m prefix
    derivatives suffices: (bound+1)^m - 1 derivations per polynomial, and
    no more than m derivatives alive beyond those the caller keeps.  Each
    polynomial is derived on integer numerators and converted back once per
    entry.
    """
    for p, den, form in _sample(polys, bound):
        yield p if den is None else _from_numerators(p, den, form)
