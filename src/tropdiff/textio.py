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
        point   := '(' nat { ',' nat } ')'      m coordinates

    command-line arguments
        index   := point | nat { ',' nat }      --index, --box
        tuple   := item { ';' item }            n items: --supports (support),
                                                --at (expr, a series)

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
from typing import Callable, Iterable, TypeVar

from .diffpoly import DiffMonomial, DiffPolynomial
from .errors import ArityError, FieldError, ParseError
from .field import RATIONALS, FieldElement, FieldSpec, power
from .lattice import Point
from .series import PowerSeries
from .supports import SupportSet
from .troppoly import SolutionReport, TropMonomial, TropPolynomial
from .tropical import VertexSet

_T = TypeVar("_T")


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


# The numbered names t<k> and x<i>: what a bare name needs, and the range
# of k in an error.
_NAME_RANGES = {"t": ("arity 1", "arity {}"), "x": ("a single variable", "{} variables")}

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
        if self.match_sym(sym) is None:
            raise ParseError(f"expected {sym!r}", self.text, self.peek()[2])

    def expect_int(self) -> int:
        kind, val, pos = self.advance()
        if kind != "int":
            raise ParseError("expected an integer", self.text, pos)
        return int(val)

    def expect_end(self) -> None:
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", self.text, pos)

    def parse_list(self, item: Callable[[], _T], sep: str) -> list[_T]:
        """`item {sep item}`."""
        items = [item()]
        while self.match_sym(sep):
            items.append(item())
        return items

    # --- points, point sets and tuples

    def parse_coords(self, what: str, delims: str, pos: int) -> Point:
        """`int {',' int}` of arity m, between the two symbols of `delims` if any.

        An arity error names `what` and points at `pos`.
        """
        if delims:
            self.expect_sym(delims[0])
        coords = self.parse_list(self.expect_int, ",")
        if delims:
            self.expect_sym(delims[1])
        if len(coords) != self.ctx.arity:
            raise ParseError(
                f"{what} of arity {len(coords)}, expected {self.ctx.arity}",
                self.text, pos,
            )
        return tuple(coords)

    def parse_point(self) -> Point:
        return self.parse_coords("point", "()", self.peek()[2])

    def parse_index(self) -> Point:
        """A point whose parentheses may be left out: `(1,0)` or `1,0`."""
        _, val, pos = self.peek()
        return self.parse_coords("point", "()" if val == "(" else "", pos)

    def parse_point_set(self) -> tuple[Point, ...]:
        self.expect_sym("{")
        if self.match_sym("}"):
            return ()
        pts = self.parse_list(self.parse_point, ",")
        self.expect_sym("}")
        return tuple(pts)

    def parse_support(self) -> SupportSet:
        explicit: tuple[Point, ...] = ()
        if self.peek()[1] != "cone":
            explicit = self.parse_point_set()
            if not self.match_sym("+"):
                return SupportSet(self.ctx.arity, explicit)
            if self.peek()[1] != "cone":
                raise ParseError("expected 'cone'", self.text, self.peek()[2])
        self.advance()
        return SupportSet(self.ctx.arity, explicit, self.parse_point_set())

    def parse_tuple(self, what: str, item: Callable[[], _T]) -> list[_T]:
        """`item {';' item}` up to the end, one item per variable."""
        items = self.parse_list(item, ";")
        self.expect_end()  # stray input is reported before the count
        if len(items) != self.ctx.nvars:
            raise ParseError(f"expected {self.ctx.nvars} {what}, got {len(items)}")
        return items

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
        op = self.match_sym("+", "-")
        poly = self.parse_term(allow_x)
        if op == "-":
            poly = -poly
        while op := self.match_sym("+", "-"):
            rhs = self.parse_term(allow_x)
            poly = poly + rhs if op == "+" else poly - rhs
        return poly

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
            k = self.match_numbered("t", self.ctx.arity)
            if k is not None:
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
        terms = self.parse_list(self.parse_trop_term, "+")
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


def _parse(text: str, ctx: ParseContext, rule: Callable[[_Parser], _T]) -> _T:
    """Read all of `text` by one grammar rule."""
    p = _Parser(text, ctx)
    out = rule(p)
    p.expect_end()
    return out


def parse_point(text: str, ctx: ParseContext) -> Point:
    """A point whose parentheses may be left out: `(1,0)` or `1,0`."""
    return _parse(text, ctx, _Parser.parse_index)


def parse_support(text: str, ctx: ParseContext) -> SupportSet:
    return _parse(text, ctx, _Parser.parse_support)


def parse_supports(text: str, ctx: ParseContext) -> list[SupportSet]:
    """A support tuple `S1;...;Sn`, one set per variable."""
    return _parse(text, ctx, lambda p: p.parse_tuple("support sets", p.parse_support))


def parse_vertex_set(text: str, ctx: ParseContext) -> VertexSet:
    return VertexSet(ctx.arity, _parse(text, ctx, _Parser.parse_point_set))


def parse_series(text: str, ctx: ParseContext) -> PowerSeries:
    return _parse(text, ctx, _Parser.parse_series)


def parse_series_tuple(text: str, ctx: ParseContext) -> list[PowerSeries]:
    """A series tuple `phi1;...;phin`, one series per variable."""
    return _parse(text, ctx, lambda p: p.parse_tuple("series", p.parse_series))


def parse_diff_poly(text: str, ctx: ParseContext) -> DiffPolynomial:
    return _parse(text, ctx, lambda p: p.parse_expr(allow_x=True))


def parse_trop_poly(text: str, ctx: ParseContext) -> TropPolynomial:
    return _parse(text, ctx, _Parser.parse_trop_poly)


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
    pieces: list[tuple[int, str]] = []
    for mono, coef in p.terms:
        mstr = _diff_monomial_str(mono)
        sub = _series_pieces(coef)
        # a coefficient of several pieces is parenthesized; a unit one is left out
        sign, body = sub[0] if len(sub) == 1 else (1, "(" + _join_signed(sub) + ")")
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
