"""Text DSL and JSON serialization for every value kind.

Grammar (whitespace insignificant, numbers exact, no floats), on top of the
geometry rules of `pointio` (points, support sets, indices and tuples):

    series / differential polynomials
        expr    := ['+'|'-'] term { ('+'|'-') term }
        term    := factor { '*' factor }
        factor  := atom [ '^' nat ]
        atom    := nat [ '/' nat ]          exact rational
                 | 'sqrtd'                  sqrt(d) of the ambient field
                 | t<k>                     series variable, 1 <= k <= m
                 | x<i> '[' nat,..,nat ']'  derivative variable (m indices)
                 | '(' expr ')'
        (for m = 1 the name `t` abbreviates `t1`; for n = 1, `x[..]` = `x1[..]`)

    tropical differential polynomials
        tpoly   := '0' | tterm { '+' tterm }
        tterm   := pointset [ '*' tmono ]
        tmono   := xvar { '*' xvar }

Printing is canonical: terms appear in lexicographic order, so equal values
print identically and `parse(print(v)) == v` for exact series and every
other value.  A truncated series prints a trailing `+ O(N)`, which the
grammar above does not read.

The geometry entry points, printers and JSON forms are `pointio`'s, and
are the same objects here.
"""

from __future__ import annotations

import functools
import re
from collections import namedtuple
from fractions import Fraction

from ._value import Value, power
from .diffpoly import DerivativeKey, DiffMonomial, DiffPolynomial
from .errors import FieldError, ParseError
from .field import RATIONALS, FieldElement, FieldSpec
from .lattice import Point, as_count
from .pointio import (  # noqa: F401  (the geometry names are re-exported)
    _PointParser,
    parse_point,
    parse_support,
    parse_supports,
    parse_vertex_set,
    print_point,
    print_point_set,
    print_support,
    print_vertex_set,
    support_to_json,
    vertex_set_to_json,
)
from .series import PowerSeries
from .troppoly import SolutionReport, TropMonomial, TropPolynomial
from .tropical import VertexSet


class ParseContext(Value, namedtuple("ParseContext", "arity nvars field")):
    """Fixes the ambient arity m, variable count n, and coefficient field."""

    __slots__ = ()

    def __new__(cls, arity: int, nvars: int = 1, field: FieldSpec = RATIONALS):
        return tuple.__new__(cls, (as_count(arity), as_count(nvars, "nvars"), field))


# The numbered names t<k> and x<i>: what a bare name needs, and the range
# of k in an error.
_NAME_RANGES = {"t": ("arity 1", "arity {}"), "x": ("a single variable", "{} variables")}

# Each parenthesis level costs four parser frames; this bound keeps deep
# input far from the interpreter's recursion limit.
MAX_NESTING = 100


class _Parser(_PointParser):
    def __init__(self, text: str, ctx: ParseContext | None):
        super().__init__(text, ctx)
        self.depth = 0

    # --- numbered names and derivative variables

    def match_numbered(self, letter: str, count: int, error: str | None = None) -> int | None:
        """Parse the name `<letter><k>` as k in 1..count, or return None at any other token.

        A bare name means k = 1 when count is 1.  Where `error` is given, the
        name is refused with that message.  Errors point at the name.
        """
        _, val, pos = self.peek()
        m_name = re.fullmatch(letter + r"(\d*)", val)  # only a name token can match
        if m_name is None:
            return None
        digits = m_name.group(1)
        k = int(digits or 1)
        single, scope = _NAME_RANGES[letter]
        if error is None and not digits and count != 1:
            error = f"bare {letter!r} is only valid for {single}"
        if error is None and not 1 <= k <= count:
            error = f"variable {letter}{k} out of range for {scope.format(count)}"
        if error is not None:
            raise ParseError(error, self.text, pos)
        self.advance()
        return k

    def match_derivative_var(self, allowed: bool = True) -> tuple[int, Point] | None:
        """Parse `x<i>[j1,..,jm]` as (i, index), or return None at any other token.

        For n = 1 the bare name `x` means `x1`.  Where `allowed` is false an
        `x` name is an error.  Errors point at the name.
        """
        _, _, pos = self.peek()
        i = self.match_numbered("x", self.ctx.nvars, None if allowed else
                                "differential variables are not allowed here")
        if i is None:
            return None
        return i, self.parse_coords("derivative index", "[]", pos)

    # --- polynomial expressions

    def parse_expr(self, allow_x: bool) -> DiffPolynomial:
        # the terms are summed in one normal form, not pairwise
        terms, op = [], self.match_sym("+", "-")
        while True:
            term = self.parse_term(allow_x)
            terms += (-term if op == "-" else term).terms
            if not (op := self.match_sym("+", "-")):
                return DiffPolynomial(self.arity, self.ctx.nvars, self.ctx.field, terms)

    def parse_series(self) -> PowerSeries:
        return self.parse_expr(allow_x=False).coefficient(DiffMonomial.one())

    def parse_term(self, allow_x: bool) -> DiffPolynomial:
        poly = self.parse_factor(allow_x)
        while self.match_sym("*"):
            poly = poly * self.parse_factor(allow_x)
        return poly

    def parse_factor(self, allow_x: bool) -> DiffPolynomial:
        poly = self.parse_atom(allow_x)
        if self.match_sym("^"):
            n = self.expect_int()  # the unit of x^0 is built only then
            return power(poly, n, None, DiffPolynomial.__mul__) if n else \
                self._const_poly(self.ctx.field.one)
        return poly

    def _term(self, coef: PowerSeries, mono: DiffMonomial = DiffMonomial.one()) -> DiffPolynomial:
        return DiffPolynomial(self.arity, self.ctx.nvars, self.ctx.field, ((mono, coef),))

    def _const_poly(self, c: FieldElement) -> DiffPolynomial:
        return self._term(PowerSeries.constant(self.arity, c, self.ctx.field))

    def parse_atom(self, allow_x: bool) -> DiffPolynomial:
        kind, val, pos = self.peek()
        if kind == "int":
            self.advance()
            den = self.expect_int() if self.match_sym("/") else 1
            if den == 0:
                raise ParseError("zero denominator", self.text, pos)
            return self._const_poly(self.ctx.field(Fraction(int(val), den)))
        if kind == "sym" and val == "(":
            if self.depth >= MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", self.text, pos
                )
            self.advance()
            self.depth += 1
            poly = self.parse_expr(allow_x)
            self.depth -= 1
            self.expect_sym(")")
            return poly
        if kind == "name":
            if val == "sqrtd":
                self.advance()
                try:
                    return self._const_poly(self.ctx.field.sqrt_d())
                except FieldError as exc:
                    raise ParseError(str(exc), self.text, pos) from exc
            k = self.match_numbered("t", self.arity)
            if k is not None:
                return self._term(PowerSeries.variable(self.arity, k, self.ctx.field))
            var = self.match_derivative_var(allow_x)
            if var is not None:
                one = PowerSeries.one(self.arity, self.ctx.field)
                return self._term(one, DiffMonomial.variable(*var))
            raise ParseError(f"unknown name {val!r}", self.text, pos)
        raise ParseError("expected a term", self.text, pos)

    # --- tropical polynomials

    def parse_trop_poly(self) -> TropPolynomial:
        kind, val, _ = self.peek()
        if kind == "int" and val == "0":
            self.advance()
            return TropPolynomial.zero(self.arity, self.ctx.nvars)
        terms = self.parse_list(self.parse_trop_term, "+")
        return TropPolynomial(self.arity, self.ctx.nvars, tuple(terms))

    def parse_trop_term(self) -> tuple[TropMonomial, VertexSet]:
        _, _, pos = self.peek()
        pts = self.parse_point_set()
        if not pts:
            raise ParseError("tropical coefficients must be nonempty", self.text, pos)
        coef = VertexSet(self.arity, pts)
        mono = DiffMonomial.one()
        while self.match_sym("*"):
            mono = mono * self.parse_trop_var()
        return mono, coef

    def parse_trop_var(self) -> TropMonomial:
        _, _, pos = self.peek()
        var = self.match_derivative_var()
        if var is None:
            raise ParseError("expected a derivative variable", self.text, pos)
        power = 1
        if self.match_sym("^"):
            power = self.expect_int()
            if power < 1:
                raise ParseError("tropical powers must be >= 1", self.text, pos)
        return DiffMonomial.variable(*var, power)


# ------------------------------------------------------------------ entry points


def parse_series(text: str, ctx: ParseContext) -> PowerSeries:
    return _Parser.read(text, ctx, _Parser.parse_series)


def parse_series_tuple(text: str, ctx: ParseContext) -> list[PowerSeries]:
    """A series tuple `phi1;...;phin`, one series per variable."""
    return _Parser.read(text, ctx, lambda p: p.parse_tuple("series", p.parse_series))


def parse_diff_poly(text: str, ctx: ParseContext) -> DiffPolynomial:
    return _Parser.read(text, ctx, lambda p: p.parse_expr(allow_x=True))


def parse_trop_poly(text: str, ctx: ParseContext) -> TropPolynomial:
    return _Parser.read(text, ctx, _Parser.parse_trop_poly)


def parse_system(text: str, ctx: ParseContext) -> list[DiffPolynomial]:
    """One polynomial per line; '#' starts a comment; blank lines skipped."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            out.append(parse_diff_poly(line, ctx))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc.message}", line, exc.pos) from exc
    return out


# ------------------------------------------------------------------ printers


def _series_monomial(exp: Point) -> str:
    parts = []
    for k, e in enumerate(exp, start=1):
        if e == 1:
            parts.append(f"t{k}")
        elif e > 1:
            parts.append(f"t{k}^{e}")
    return "*".join(parts)


def _series_piece(frac: Fraction, sqrt: bool, exp: Point) -> str:
    """One DSL product without its sign; `frac` is the absolute coefficient."""
    parts = []
    mono = _series_monomial(exp)
    if frac != 1 or (not sqrt and not mono):
        parts.append(str(frac))
    if sqrt:
        parts.append("sqrtd")
    if mono:
        parts.append(mono)
    return "*".join(parts)


def _series_pieces(s: PowerSeries) -> list[tuple[int, str]]:
    pieces = []
    for exp, c in s.terms:
        if c.a != 0:
            pieces.append((1 if c.a > 0 else -1, _series_piece(abs(c.a), False, exp)))
        if c.b != 0:
            pieces.append((1 if c.b > 0 else -1, _series_piece(abs(c.b), True, exp)))
    return pieces


def _join_signed(pieces: list[tuple[int, str]]) -> str:
    if not pieces:
        return "0"
    sign, body = pieces[0]
    out = ("-" if sign < 0 else "") + body
    for sign, body in pieces[1:]:
        out += (" - " if sign < 0 else " + ") + body
    return out


def print_series(s: PowerSeries) -> str:
    text = _join_signed(_series_pieces(s))
    if s.precision is not None:
        text += f" + O({s.precision})"
    return text


# A derivative sample repeats few derivative keys and coefficient sets: each
# is printed once.
_point_set_str = functools.lru_cache(maxsize=4096)(print_point_set)


@functools.lru_cache(maxsize=4096)
def _key_str(key: DerivativeKey) -> str:
    return f"x{key.var}[" + ",".join(map(str, key.index)) + "]"


def _diff_monomial_str(mono: DiffMonomial) -> str:
    return "*".join([_key_str(key) if e == 1 else f"{_key_str(key)}^{e}"
                     for key, e in mono.exponents])


def print_diff_poly(p: DiffPolynomial) -> str:
    pieces: list[tuple[int, str]] = []
    for mono, coef in p.terms:
        mstr = _diff_monomial_str(mono)
        sub = _series_pieces(coef)
        # a coefficient of several pieces, or a truncated one with its
        # precision, is parenthesized; a unit one is left out
        sign, body = (sub[0] if len(sub) == 1 and coef.precision is None
                      else (1, "(" + print_series(coef) + ")"))
        if mstr:
            body = mstr if body == "1" else body + "*" + mstr
        pieces.append((sign, body))
    return _join_signed(pieces)


def print_trop_poly(p: TropPolynomial) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for mono, coef in p.terms:
        mstr = _diff_monomial_str(mono)
        cstr = _point_set_str(coef.points)
        parts.append(cstr + "*" + mstr if mstr else cstr)
    return " + ".join(parts)

# ------------------------------------------------------------------ JSON forms


def series_to_json(s: PowerSeries) -> dict:
    return {
        "arity": s.arity,
        "d": s.field.d,
        "precision": s.precision,
        "terms": [
            {"exponent": list(p), "a": str(c.a), "b": str(c.b)}
            for p, c in s.terms
        ],
    }


def _monomial_to_json(mono: DiffMonomial) -> list:
    return [
        {"var": key.var, "index": list(key.index), "power": e}
        for key, e in mono.exponents
    ]


def diff_poly_to_json(p: DiffPolynomial) -> dict:
    return {
        "arity": p.arity,
        "nvars": p.nvars,
        "d": p.field.d,
        "terms": [
            {"monomial": _monomial_to_json(m), "coefficient": series_to_json(c)}
            for m, c in p.terms
        ],
    }


def trop_poly_to_json(p: TropPolynomial) -> dict:
    return {
        "arity": p.arity,
        "nvars": p.nvars,
        "terms": [
            {"monomial": _monomial_to_json(m), "coefficient": vertex_set_to_json(c)}
            for m, c in p.terms
        ],
    }


def report_to_json(r: SolutionReport) -> dict:
    return {
        "evaluation": vertex_set_to_json(r.evaluation),
        "witnesses": {
            print_point(v): list(idx) for v, idx in r.witnesses
        },
        "solution": r.solution,
    }
