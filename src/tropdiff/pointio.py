"""The geometry half of the text DSL: lattice points, support sets and vertex sets.

Grammar (whitespace insignificant, numbers exact, no floats):

    support sets
        support := pointset [ '+' cone ] | cone
        cone    := 'cone' pointset
        pointset:= '{' [ point { ',' point } ] '}'
        point   := '(' nat { ',' nat } ')'      m coordinates

    command-line arguments
        index   := point | nat { ',' nat }      --index, --box
        tuple   := item { ';' item }            n items: --supports (support),
                                                --at (expr, a series)

`textio` adds the series, differential and tropical polynomial rules: its
parser subclasses `_PointParser`, so the tokenizer and every rule here are
written once.  This module loads only the lattice layer, so `tropdiff
vertices` reads its set and prints the vertex set without the coefficient
fields or the polynomial types.
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Callable, Iterable, TypeVar

from ._value import Value
from .errors import ParseError
from .lattice import Point, as_count
from .supports import SupportSet
from .tropical import VertexSet

_T = TypeVar("_T")


class PointContext(Value, namedtuple("PointContext", "arity nvars")):
    """The arity m and variable count n, all that the rules here read of a context.

    The rules take a `textio.ParseContext` alike, which adds the coefficient
    field; this one fixes the arity without loading the field layer.
    """

    __slots__ = ()

    def __new__(cls, arity: int, nvars: int = 1):
        return tuple.__new__(cls, (as_count(arity), as_count(nvars, "nvars")))


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


class _PointParser:
    def __init__(self, text: str, ctx: PointContext | None):
        self.text = text
        self.ctx = ctx
        self.arity = ctx and ctx.arity
        self.toks = _tokenize(text)
        self.i = 0

    @classmethod
    def read(cls, text: str, ctx: PointContext | None, rule: Callable[[_PointParser], _T]) -> _T:
        """Read all of `text` by one grammar rule."""
        p = cls(text, ctx)
        out = rule(p)
        p.expect_end()
        return out

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

        An arity error names `what` and points at `pos`.  With the arity still
        open, the coordinates fix it.
        """
        if delims:
            self.expect_sym(delims[0])
        coords = self.parse_list(self.expect_int, ",")
        if delims:
            self.expect_sym(delims[1])
        self.arity = self.arity or len(coords)
        if len(coords) != self.arity:
            raise ParseError(
                f"{what} of arity {len(coords)}, expected {self.arity}",
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
                return SupportSet(self.arity or 1, explicit)
            if self.peek()[1] != "cone":
                raise ParseError("expected 'cone'", self.text, self.peek()[2])
        self.advance()
        cones = self.parse_point_set()  # read before the arity it may fix
        return SupportSet(self.arity or 1, explicit, cones)

    def parse_tuple(self, what: str, item: Callable[[], _T]) -> list[_T]:
        """`item {';' item}` up to the end, one item per variable."""
        items = self.parse_list(item, ";")
        self.expect_end()  # stray input is reported before the count
        if len(items) != self.ctx.nvars:
            raise ParseError(f"expected {self.ctx.nvars} {what}, got {len(items)}")
        return items


# ------------------------------------------------------------------ entry points


def parse_point(text: str, ctx: PointContext) -> Point:
    """A point whose parentheses may be left out: `(1,0)` or `1,0`."""
    return _PointParser.read(text, ctx, _PointParser.parse_index)


def parse_support(text: str, ctx: PointContext | None = None) -> SupportSet:
    """A support set; without a context its first point fixes the arity.

    A set with no point then has arity 1.
    """
    return _PointParser.read(text, ctx, _PointParser.parse_support)


def parse_supports(text: str, ctx: PointContext) -> list[SupportSet]:
    """A support tuple `S1;...;Sn`, one set per variable."""
    return _PointParser.read(text, ctx, lambda p: p.parse_tuple("support sets", p.parse_support))


def parse_vertex_set(text: str, ctx: PointContext) -> VertexSet:
    return VertexSet(ctx.arity, _PointParser.read(text, ctx, _PointParser.parse_point_set))


# ------------------------------------------------------------------ printers


def print_point(p: Point) -> str:
    return "(" + ",".join(str(c) for c in p) + ")"


def print_point_set(points: Iterable[Point]) -> str:
    return "{" + ",".join(print_point(p) for p in points) + "}"


def print_support(s: SupportSet) -> str:
    if not s.cones:
        return print_point_set(s.explicit)
    cone = "cone" + print_point_set(s.cones)
    if not s.explicit:
        return cone
    return print_point_set(s.explicit) + " + " + cone


def print_vertex_set(v: VertexSet) -> str:
    return print_point_set(v.points)


# ------------------------------------------------------------------ JSON forms


def support_to_json(s: SupportSet) -> dict:
    return {
        "arity": s.arity,
        "explicit": [list(p) for p in s.explicit],
        "cones": [list(g) for g in s.cones],
    }


def vertex_set_to_json(v: VertexSet) -> list:
    return [list(p) for p in v.points]
