"""Command-line interface.

Exit codes: 0 for success (and solution: true), 1 for solution: false,
2 for usage, parse, or capacity errors, and for any internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .diffpoly import derivative_sample
from .errors import TropdiffError
from .field import FieldSpec
from .textio import (
    ParseContext,
    diff_poly_to_json,
    parse_diff_poly,
    parse_point,
    parse_series,
    parse_series_tuple,
    parse_support,
    parse_supports,
    parse_system,
    print_diff_poly,
    print_point,
    print_series,
    print_support,
    print_trop_poly,
    print_vertex_set,
    report_to_json,
    series_to_json,
    support_to_json,
    trop_poly_to_json,
    vertex_set_to_json,
)
from .troppoly import (
    DEFAULT_CANDIDATE_CAP,
    enumerate_solutions,
    is_solution_system,
    tropicalize,
    tropicalize_sample,
)


def _context(args) -> ParseContext:
    sqrt = getattr(args, "sqrt", None)
    field = FieldSpec() if sqrt is None else FieldSpec(sqrt)
    return ParseContext(arity=args.arity, nvars=args.nvars, field=field)


def _load_system(args, ctx: ParseContext):
    if args.system is not None:
        with open(args.system, encoding="utf-8") as fh:
            polys = parse_system(fh.read(), ctx)
    else:
        polys = [parse_diff_poly(p, ctx) for p in args.poly]
    if not polys:
        raise TropdiffError("the system is empty")
    return polys


def _emit(args, text: str, payload) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


# ------------------------------------------------------------------ commands


def cmd_vertices(args) -> int:
    arity = args.arity
    if arity is None:
        stripped = args.set.replace(" ", "")
        if "(" not in stripped:
            arity = 1  # empty set: any arity prints the same way
        else:
            inner = stripped.split("(", 1)[1].split(")", 1)[0]
            arity = inner.count(",") + 1
    ctx = ParseContext(arity=arity)
    s = parse_support(args.set, ctx)
    v = s.vertices()
    _emit(args, print_vertex_set(v), {"vertices": vertex_set_to_json(v)})
    return 0


def cmd_trop(args) -> int:
    ctx = _context(args)
    poly = parse_diff_poly(args.poly, ctx)
    tp = tropicalize(poly)
    _emit(args, print_trop_poly(tp), trop_poly_to_json(tp))
    return 0


def cmd_eval(args) -> int:
    ctx = _context(args)
    poly = parse_diff_poly(args.poly, ctx)
    result = poly.evaluate(parse_series_tuple(args.at, ctx))
    _emit(args, print_series(result), series_to_json(result))
    return 0


def cmd_derive(args) -> int:
    ctx = _context(args)
    idx = parse_point(args.index, ctx)
    if args.poly is not None:
        out = parse_diff_poly(args.poly, ctx).theta(idx)
        _emit(args, print_diff_poly(out), diff_poly_to_json(out))
    else:
        out = parse_series(args.series, ctx).theta(idx)
        _emit(args, print_series(out), series_to_json(out))
    return 0


def cmd_check(args) -> int:
    ctx = _context(args)
    polys = _load_system(args, ctx)
    supports = parse_supports(args.supports, ctx)
    sample = tropicalize_sample(polys, args.derive_bound)
    ok, reports = is_solution_system(sample, supports)
    printed = [print_trop_poly(p) for p in sample]
    lines = []
    for text, r in zip(printed, reports):
        lines.append(text)
        lines.append(f"  evaluation: {print_vertex_set(r.evaluation)}")
        for v, idx in r.witnesses:
            lines.append(f"  {print_point(v)}: monomials {list(idx)}")
        lines.append(f"  solution: {str(r.solution).lower()}")
    lines.append(f"overall solution: {str(ok).lower()}")
    payload = {
        "solution": ok,
        "polynomials": [
            {"polynomial": text, "report": report_to_json(r)}
            for text, r in zip(printed, reports)
        ],
    }
    _emit(args, "\n".join(lines), payload)
    return 0 if ok else 1


def cmd_enumerate(args) -> int:
    ctx = _context(args)
    polys = _load_system(args, ctx)
    box = parse_point(args.box, ctx)
    # Passed lazily: the candidate cap is checked before any derivative.
    sample = (tropicalize(q) for q in derivative_sample(polys, args.derive_bound))
    solutions = enumerate_solutions(sample, box, args.max_points, nvars=ctx.nvars,
                                    max_candidates=args.max_candidates)
    lines = [" ; ".join(print_support(s) for s in tup) for tup in solutions]
    lines.append(f"{len(solutions)} solution(s)")
    payload = {"solutions": [[support_to_json(s) for s in tup] for tup in solutions]}
    _emit(args, "\n".join(lines), payload)
    return 0


def cmd_examples(args) -> int:
    # imported here: no other command needs the fixtures, and each CLI call
    # compiles what it imports when no bytecode cache is written
    from . import examples as fixtures

    results = fixtures.run_all()
    ok = all(r.passed for r in results)
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'}  {r.name}")
        lines.extend(f"      {line}" for line in r.details)
    payload = {
        "examples": [
            {"name": r.name, "pass": r.passed, "details": r.details}
            for r in results
        ]
    }
    _emit(args, "\n".join(lines), payload)
    return 0 if ok else 1


# ------------------------------------------------------------------ wiring


def _add_common(p: argparse.ArgumentParser, *, arity_required: bool = True) -> None:
    p.add_argument("--arity", "-m", type=int, required=arity_required,
                   default=None, help="number of series variables t1..tm")
    p.add_argument("--nvars", "-n", type=int, default=1,
                   help="number of differential variables x1..xn")
    p.add_argument("--sqrt", type=int, default=None, metavar="D",
                   help="adjoin sqrt(D) to the rational coefficient field")
    p.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tropdiff",
        description="Exact tropical differential algebra: supports, Newton "
                    "polygon vertex sets, tropicalization, and solution checks.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vertices", help="vertex set of a support set")
    p.add_argument("--set", required=True, help="support set, e.g. '{(1,4),(2,3)}'")
    p.add_argument("--arity", "-m", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_vertices)

    p = sub.add_parser("trop", help="tropicalize a differential polynomial")
    _add_common(p)
    p.add_argument("--poly", required=True)
    p.set_defaults(func=cmd_trop)

    p = sub.add_parser("eval", help="evaluate a differential polynomial at series")
    _add_common(p)
    p.add_argument("--poly", required=True)
    p.add_argument("--at", required=True, help="semicolon-separated series tuple")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("derive", help="apply a derivative operator")
    _add_common(p)
    p.add_argument("--index", required=True, help="multi-index, e.g. '(1,0)' or '1,0'")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--poly")
    g.add_argument("--series")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("check", help="tropical solution check for a support tuple")
    _add_common(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--system", help="file with one polynomial per line")
    g.add_argument("--poly", action="append", default=None)
    p.add_argument("--supports", required=True,
                   help="semicolon-separated support sets, one per variable")
    p.add_argument("--derive-bound", type=int, default=0,
                   help="tropicalize all theta(I)P with ||I||_inf <= this bound")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("enumerate", help="search explicit supports inside a box")
    _add_common(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--system")
    g.add_argument("--poly", action="append", default=None)
    p.add_argument("--box", required=True, help="componentwise bound, e.g. '(5)' or '2,2'")
    p.add_argument("--max-points", type=int, default=None)
    p.add_argument("--max-candidates", type=int, default=DEFAULT_CANDIDATE_CAP,
                   help="refusal cap (default: %(default)s)")
    p.add_argument("--derive-bound", type=int, default=0)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("examples", help="replay the bundled worked examples")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_examples)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (TropdiffError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Last resort: exit code 1 means "solution: false", so an internal
        # error must never end in 0 or 1, nor in a traceback.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
