"""Text DSL and JSON serialization for every value kind.

Grammar (whitespace insignificant, numbers exact, no floats):

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

    support sets
        support := pointset [ '+' cone ] | cone
        cone    := 'cone' pointset
        pointset:= '{' [ point { ',' point } ] '}'
        point   := '(' nat { ',' nat } ')'

    tropical differential polynomials
        tpoly   := '0' | tterm { '+' tterm }
        tterm   := pointset [ '*' tmono ]
        tmono   := xvar { '*' xvar }

Printing is canonical: terms appear in lexicographic order, so equal values
print identically and `parse(print(v)) == v`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .diffpoly import DiffMonomial, DiffPolynomial
from .errors import ArityError, FieldError, ParseError
from .field import RATIONALS, FieldElement, FieldSpec, power
from .lattice import Point
from .series import PowerSeries
from .supports import SupportSet
from .troppoly import SolutionReport, TropMonomial, TropPolynomial
from .tropical import VertexSet


@dataclass(frozen=True)
class ParseContext:
    """Fixes the ambient arity m, variable count n, and coefficient field."""

    arity: int
    nvars: int = 1
    field: FieldSpec = RATIONALS

    def __post_init__(self):
        if self.arity < 1 or self.nvars < 1:
            raise ArityError("arity and nvars must be >= 1")


# ------------------------------------------------------------------ tokenizer

_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[-+*/^(){}\[\],;])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", text, pos)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


# Each parenthesis level costs four parser frames; this bound keeps deep
# input far from the interpreter's recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, ctx: ParseContext):
        self.text = text
        self.ctx = ctx
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    # --- token plumbing

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.i]

    def advance(self) -> tuple[str, str, int]:
        t = self.toks[self.i]
        self.i += 1
        return t

    def match_sym(self, *syms: str) -> str | None:
        kind, val, _ = self.peek()
        if kind == "sym" and val in syms:
            self.advance()
            return val
        return None

    def expect_sym(self, sym: str) -> None:
        kind, val, pos = self.peek()
        if kind != "sym" or val != sym:
            raise ParseError(f"expected {sym!r}", self.text, pos)
        self.advance()

    def expect_int(self) -> int:
        kind, val, pos = self.peek()
        if kind != "int":
            raise ParseError("expected an integer", self.text, pos)
        self.advance()
        return int(val)

    def expect_end(self) -> None:
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", self.text, pos)

    # --- points and point sets

    def parse_coords(self, open_sym: str, close_sym: str) -> Point:
        """A nonempty comma-separated list of integers between two symbols."""
        self.expect_sym(open_sym)
        coords = [self.expect_int()]
        while self.match_sym(","):
            coords.append(self.expect_int())
        self.expect_sym(close_sym)
        return tuple(coords)

    def parse_point(self) -> Point:
        _, _, pos = self.peek()
        coords = self.parse_coords("(", ")")
        if len(coords) != self.ctx.arity:
            raise ParseError(
                f"point of arity {len(coords)}, expected {self.ctx.arity}",
                self.text, pos,
            )
        return coords

    def parse_point_set(self) -> tuple[Point, ...]:
        self.expect_sym("{")
        pts: list[Point] = []
        if not self.match_sym("}"):
            pts.append(self.parse_point())
            while self.match_sym(","):
                pts.append(self.parse_point())
            self.expect_sym("}")
        return tuple(pts)

    def parse_support(self) -> SupportSet:
        kind, val, _ = self.peek()
        explicit: tuple[Point, ...] = ()
        cones: tuple[Point, ...] = ()
        if kind == "name" and val == "cone":
            self.advance()
            cones = self.parse_point_set()
        else:
            explicit = self.parse_point_set()
            if self.match_sym("+"):
                kind, val, pos = self.peek()
                if kind != "name" or val != "cone":
                    raise ParseError("expected 'cone'", self.text, pos)
                self.advance()
                cones = self.parse_point_set()
        return SupportSet(self.ctx.arity, explicit, cones)

    # --- derivative variables

    def match_derivative_var(self, allowed: bool = True) -> tuple[int, Point] | None:
        """Parse `x<i>[j1,..,jm]` as (i, index), or return None at any other token.

        For n = 1 the bare name `x` means `x1`.  Where `allowed` is false an
        `x` name is an error.  Errors point at the name.
        """
        kind, val, pos = self.peek()
        m_x = re.fullmatch(r"x(\d*)", val) if kind == "name" else None
        if m_x is None:
            return None
        if not allowed:
            raise ParseError("differential variables are not allowed here", self.text, pos)
        self.advance()
        i = int(m_x.group(1)) if m_x.group(1) else None
        if i is None:
            if self.ctx.nvars != 1:
                raise ParseError("bare 'x' is only valid for a single variable",
                                 self.text, pos)
            i = 1
        if not 1 <= i <= self.ctx.nvars:
            raise ParseError(
                f"variable x{i} out of range for {self.ctx.nvars} variables",
                self.text, pos,
            )
        idx = self.parse_coords("[", "]")
        if len(idx) != self.ctx.arity:
            raise ParseError(
                f"derivative index of arity {len(idx)}, expected {self.ctx.arity}",
                self.text, pos,
            )
        return i, idx

    # --- polynomial expressions

    def parse_expr(self, allow_x: bool) -> DiffPolynomial:
        sign = 1
        if self.match_sym("-"):
            sign = -1
        else:
            self.match_sym("+")
        poly = self.parse_term(allow_x)
        if sign < 0:
            poly = -poly
        while True:
            op = self.match_sym("+", "-")
            if op is None:
                return poly
            rhs = self.parse_term(allow_x)
            poly = poly + rhs if op == "+" else poly - rhs

    def parse_term(self, allow_x: bool) -> DiffPolynomial:
        poly = self.parse_factor(allow_x)
        while self.match_sym("*"):
            poly = poly * self.parse_factor(allow_x)
        return poly

    def parse_factor(self, allow_x: bool) -> DiffPolynomial:
        poly = self.parse_atom(allow_x)
        if self.match_sym("^"):
            return power(poly, self.expect_int(), self._const_poly(self.ctx.field.one),
                         DiffPolynomial.__mul__)
        return poly

    def _term(self, coef: PowerSeries, mono: DiffMonomial = DiffMonomial.one()) -> DiffPolynomial:
        return DiffPolynomial(self.ctx.arity, self.ctx.nvars, self.ctx.field, ((mono, coef),))

    def _const_poly(self, c: FieldElement) -> DiffPolynomial:
        return self._term(PowerSeries.constant(self.ctx.arity, c, self.ctx.field))

    def parse_atom(self, allow_x: bool) -> DiffPolynomial:
        kind, val, pos = self.peek()
        if kind == "int":
            self.advance()
            num = int(val)
            if self.match_sym("/"):
                den = self.expect_int()
                if den == 0:
                    raise ParseError("zero denominator", self.text, pos)
                return self._const_poly(self.ctx.field(Fraction(num, den)))
            return self._const_poly(self.ctx.field(num))
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
            m_t = re.fullmatch(r"t(\d*)", val)
            if m_t:
                self.advance()
                k = int(m_t.group(1)) if m_t.group(1) else None
                if k is None:
                    if self.ctx.arity != 1:
                        raise ParseError(
                            "bare 't' is only valid for arity 1", self.text, pos
                        )
                    k = 1
                if not 1 <= k <= self.ctx.arity:
                    raise ParseError(
                        f"variable t{k} out of range for arity {self.ctx.arity}",
                        self.text, pos,
                    )
                return self._term(PowerSeries.variable(self.ctx.arity, k, self.ctx.field))
            var = self.match_derivative_var(allow_x)
            if var is not None:
                one = PowerSeries.one(self.ctx.arity, self.ctx.field)
                return self._term(one, DiffMonomial.variable(*var))
            raise ParseError(f"unknown name {val!r}", self.text, pos)
        raise ParseError("expected a term", self.text, pos)

    # --- tropical polynomials

    def parse_trop_poly(self) -> TropPolynomial:
        kind, val, _ = self.peek()
        if kind == "int" and val == "0":
            self.advance()
            return TropPolynomial.zero(self.ctx.arity, self.ctx.nvars)
        terms = [self.parse_trop_term()]
        while self.match_sym("+"):
            terms.append(self.parse_trop_term())
        return TropPolynomial(self.ctx.arity, self.ctx.nvars, tuple(terms))

    def parse_trop_term(self) -> tuple[TropMonomial, VertexSet]:
        _, _, pos = self.peek()
        pts = self.parse_point_set()
        if not pts:
            raise ParseError("tropical coefficients must be nonempty", self.text, pos)
        coef = VertexSet(self.ctx.arity, pts)
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


def parse_point(text: str, ctx: ParseContext) -> Point:
    p = _Parser(text, ctx)
    out = p.parse_point()
    p.expect_end()
    return out


def parse_support(text: str, ctx: ParseContext) -> SupportSet:
    p = _Parser(text, ctx)
    out = p.parse_support()
    p.expect_end()
    return out


def parse_vertex_set(text: str, ctx: ParseContext) -> VertexSet:
    p = _Parser(text, ctx)
    pts = p.parse_point_set()
    p.expect_end()
    return VertexSet(ctx.arity, pts)


def parse_series(text: str, ctx: ParseContext) -> PowerSeries:
    p = _Parser(text, ctx)
    poly = p.parse_expr(allow_x=False)
    p.expect_end()
    return poly.coefficient(DiffMonomial.one())


def parse_diff_poly(text: str, ctx: ParseContext) -> DiffPolynomial:
    p = _Parser(text, ctx)
    poly = p.parse_expr(allow_x=True)
    p.expect_end()
    return poly


def parse_trop_poly(text: str, ctx: ParseContext) -> TropPolynomial:
    p = _Parser(text, ctx)
    out = p.parse_trop_poly()
    p.expect_end()
    return out


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


def print_point(p: Point) -> str:
    return "(" + ",".join(str(c) for c in p) + ")"


def print_point_set(points: Iterable[Point]) -> str:
    return "{" + ",".join(print_point(p) for p in sorted(points)) + "}"


def print_support(s: SupportSet) -> str:
    if s.is_empty:
        return "{}"
    if not s.cones:
        return print_point_set(s.explicit)
    cone = "cone" + print_point_set(s.cones)
    if not s.explicit:
        return cone
    return print_point_set(s.explicit) + " + " + cone


def print_vertex_set(v: VertexSet) -> str:
    return print_point_set(v.points)


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


def _diff_monomial_str(mono: DiffMonomial) -> str:
    parts = []
    for key, e in mono.exponents:
        v = f"x{key.var}[" + ",".join(str(j) for j in key.index) + "]"
        parts.append(v if e == 1 else f"{v}^{e}")
    return "*".join(parts)


def print_diff_poly(p: DiffPolynomial) -> str:
    if p.is_zero:
        return "0"
    pieces: list[tuple[int, str]] = []
    for mono, coef in p.terms:
        mstr = _diff_monomial_str(mono)
        sub = _series_pieces(coef)
        if not mstr:
            if len(sub) == 1:
                pieces.append(sub[0])
            else:
                pieces.append((1, "(" + _join_signed(sub) + ")"))
        elif len(sub) == 1 and sub[0][1] == "1":
            pieces.append((sub[0][0], mstr))
        elif len(sub) == 1:
            pieces.append((sub[0][0], sub[0][1] + "*" + mstr))
        else:
            pieces.append((1, "(" + _join_signed(sub) + ")*" + mstr))
    return _join_signed(pieces)


def print_trop_poly(p: TropPolynomial) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for mono, coef in p.terms:
        mstr = _diff_monomial_str(mono)
        cstr = print_point_set(coef.points)
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


def support_to_json(s: SupportSet) -> dict:
    return {
        "arity": s.arity,
        "explicit": [list(p) for p in s.explicit],
        "cones": [list(g) for g in s.cones],
    }


def vertex_set_to_json(v: VertexSet) -> list:
    return [list(p) for p in v.points]


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
