"""Command-line interface.

Exit codes: 0 for success (and solution: true), 1 for solution: false,
2 for usage, parse, or capacity errors, for any internal error, and,
without a message, when the reader closes stdout before the output ends.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import DEFAULT_CANDIDATE_CAP, TropdiffError

# Each command imports the layer it runs, inside its function: each CLI call
# compiles what it imports when no bytecode cache is written, and `vertices`
# needs only the lattice geometry and its grammar, `pointio`.


def _context(args):
    from .field import FieldSpec
    from .textio import ParseContext

    field = FieldSpec() if args.sqrt is None else FieldSpec(args.sqrt)
    return ParseContext(arity=args.arity, nvars=args.nvars, field=field)


def _load_system(args, ctx):
    from .textio import parse_diff_poly, parse_system

    if args.system is not None:
        with open(args.system, encoding="utf-8") as fh:
            polys = parse_system(fh.read(), ctx)
    else:
        polys = [parse_diff_poly(p, ctx) for p in args.poly]
    if not polys:
        raise TropdiffError("the system is empty")
    return polys


def _emit(args, text: str, payload) -> None:
    """Print `text`, or under --format json the JSON of `payload()`, built only then."""
    if args.format == "json":
        import json  # text output, the common case, never loads it
        print(json.dumps(payload(), indent=2, sort_keys=True))
    else:
        print(text)


# ------------------------------------------------------------------ commands


def cmd_vertices(args) -> int:
    from .pointio import PointContext, parse_support, print_vertex_set, vertex_set_to_json

    # without -m, the first point of the set fixes the arity
    ctx = None if args.arity is None else PointContext(args.arity)
    v = parse_support(args.set, ctx).vertices()
    _emit(args, print_vertex_set(v), lambda: {"vertices": vertex_set_to_json(v)})
    return 0


def cmd_trop(args) -> int:
    from .textio import parse_diff_poly, print_trop_poly, trop_poly_to_json
    from .troppoly import tropicalize

    ctx = _context(args)
    poly = parse_diff_poly(args.poly, ctx)
    tp = tropicalize(poly)
    _emit(args, print_trop_poly(tp), lambda: trop_poly_to_json(tp))
    return 0


def cmd_eval(args) -> int:
    from .textio import parse_diff_poly, parse_series_tuple, print_series, series_to_json

    ctx = _context(args)
    poly = parse_diff_poly(args.poly, ctx)
    result = poly.evaluate(parse_series_tuple(args.at, ctx))
    _emit(args, print_series(result), lambda: series_to_json(result))
    return 0


def cmd_derive(args) -> int:
    from .pointio import parse_point
    from .textio import (diff_poly_to_json, parse_diff_poly, parse_series, print_diff_poly,
                         print_series, series_to_json)

    ctx = _context(args)
    idx = parse_point(args.index, ctx)
    if args.poly is not None:
        out = parse_diff_poly(args.poly, ctx).theta(idx)
        _emit(args, print_diff_poly(out), lambda: diff_poly_to_json(out))
    else:
        out = parse_series(args.series, ctx).theta(idx)
        _emit(args, print_series(out), lambda: series_to_json(out))
    return 0


def cmd_check(args) -> int:
    from .pointio import parse_supports, print_point, print_vertex_set
    from .textio import print_trop_poly, report_to_json
    from .troppoly import _reports, _trop_sample

    ctx = _context(args)
    polys = _load_system(args, ctx)
    supports = parse_supports(args.supports, ctx)
    # Each sample entry is tested, and its report written, as it is derived.
    ok, entries = True, []
    for p, r in _reports(_trop_sample(polys, args.derive_bound), supports):
        ok = ok and r.solution
        text = print_trop_poly(p)
        if args.format == "json":
            entries.append({"polynomial": text, "report": report_to_json(r)})
            continue
        print(text)
        print(f"  evaluation: {print_vertex_set(r.evaluation)}")
        for v, idx in r.witnesses:
            print(f"  {print_point(v)}: monomials {list(idx)}")
        print(f"  solution: {str(r.solution).lower()}")
    _emit(args, f"overall solution: {str(ok).lower()}",
          lambda: {"solution": ok, "polynomials": entries})
    return 0 if ok else 1


def cmd_enumerate(args) -> int:
    from .pointio import parse_point, print_support, support_to_json
    from .troppoly import _solutions, _trop_sample

    ctx = _context(args)
    polys = _load_system(args, ctx)
    box = parse_point(args.box, ctx)
    # Passed lazily: the candidate cap is checked before any derivative, and
    # every refusal comes before the first solution.
    solutions = _solutions(_trop_sample(polys, args.derive_bound), box, args.max_points,
                           ctx.nvars, args.max_candidates,
                           support_to_json if args.format == "json" else print_support)
    count = 0
    if args.format == "text":  # each solution is written as it is found
        for count, texts in enumerate(solutions, 1):
            print(" ; ".join(texts))
    _emit(args, f"{count} solution(s)", lambda: {"solutions": list(solutions)})
    return 0


def cmd_examples(args) -> int:
    from . import examples as fixtures

    results = fixtures.run_all()
    ok = all(r.passed for r in results)
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'}  {r.name}")
        lines.extend(f"      {line}" for line in r.details)
    _emit(args, "\n".join(lines), lambda: {
        "examples": [
            {"name": r.name, "pass": r.passed, "details": r.details}
            for r in results
        ]
    })
    return 0 if ok else 1


# ------------------------------------------------------------------ wiring


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")


def _add_common(p: argparse.ArgumentParser, system: bool = False) -> None:
    """-m, -n, --sqrt and --format; with `system`, the required --system | --poly choice."""
    p.add_argument("--arity", "-m", type=int, required=True,
                   help="number of series variables t1..tm")
    p.add_argument("--nvars", "-n", type=int, default=1,
                   help="number of differential variables x1..xn")
    p.add_argument("--sqrt", type=int, default=None, metavar="D",
                   help="adjoin sqrt(D) to the rational coefficient field")
    _add_format(p)
    if system:
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--system", help="file with one polynomial per line")
        g.add_argument("--poly", action="append", default=None)


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
    _add_format(p)
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

    check = sub.add_parser("check", help="tropical solution check for a support tuple")
    _add_common(check, system=True)
    check.add_argument("--supports", required=True,
                       help="semicolon-separated support sets, one per variable")
    check.set_defaults(func=cmd_check)

    enum = sub.add_parser("enumerate", help="search explicit supports inside a box")
    _add_common(enum, system=True)
    enum.add_argument("--box", required=True, help="componentwise bound, e.g. '(5)' or '2,2'")
    enum.add_argument("--max-points", type=int, default=None)
    enum.add_argument("--max-candidates", type=int, default=DEFAULT_CANDIDATE_CAP,
                      help="refusal cap (default: %(default)s)")
    enum.set_defaults(func=cmd_enumerate)

    for p in (check, enum):  # the last option of both
        p.add_argument("--derive-bound", type=int, default=0,
                       help="tropicalize all theta(I)P with ||I||_inf <= this bound")

    p = sub.add_parser("examples", help="replay the bundled worked examples")
    _add_format(p)
    p.set_defaults(func=cmd_examples)

    return ap


def main(argv: list[str] | None = None) -> int:
    # exact coefficients print in full: lift Python's 4300-digit limit on
    # int-to-string conversion (3.11+) for this process
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: the flush at exit writes to the null device
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 2
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
