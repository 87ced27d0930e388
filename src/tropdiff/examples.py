"""Bundled worked examples, replayed end to end by `tropdiff examples`.

Each fixture builds its inputs through the public DSL, runs the library,
and compares against independently derived expected values.
"""

from __future__ import annotations

from collections import namedtuple

from ._value import Value
from .field import FieldSpec
from .supports import SupportSet
from .pointio import parse_support, print_support, print_vertex_set
from .textio import ParseContext, parse_diff_poly, parse_series
from .tropical import VertexSet
from .troppoly import enumerate_solutions, is_solution, is_solution_system, tropicalize, tropicalize_sample


class ExampleResult(Value, namedtuple("ExampleResult", "name passed details")):
    __slots__ = ()


def vertex_extraction() -> ExampleResult:
    """Vertices of a four-point staircase: the two extreme points remain."""
    ctx = ParseContext(arity=2)
    s = parse_support("{(1,4),(2,3),(3,3),(4,1)}", ctx)
    v = s.vertices()
    expected = VertexSet(2, ((1, 4), (4, 1)))
    return ExampleResult(
        name="vertex-extraction",
        passed=v == expected,
        details=[f"vertices = {print_vertex_set(v)}"],
    )


def quadratic_field_system() -> ExampleResult:
    """Order-two system over Q(sqrt(2)) with an explicit polynomial solution."""
    ctx = ParseContext(arity=2, nvars=2, field=FieldSpec(2))
    polys = [
        parse_diff_poly("x1[1,0]^2 - 4*x1[0,0]", ctx),
        parse_diff_poly("x1[1,1]*x2[0,1] - x1[0,0] + 1", ctx),
        parse_diff_poly("x2[2,0] - x1[1,0]", ctx),
    ]
    phi1 = parse_series("t1^2 + sqrtd*t1*t2 + 1/2*t2^2", ctx)
    phi2 = parse_series(
        "1 - 1/2*sqrtd*t2 + 1/3*t1^3 + 1/2*sqrtd*t1^2*t2 + 1/2*t1*t2^2"
        " + 1/12*sqrtd*t2^3",
        ctx,
    )
    details = []
    ok = True
    for i, p in enumerate(polys, start=1):
        value = p.evaluate((phi1, phi2))
        details.append(f"P{i}(phi) = {'0' if value.is_zero else 'nonzero'}")
        ok = ok and value.is_zero
    s1 = phi1.support()
    s2 = phi2.support()
    expected_s1 = SupportSet(2, ((2, 0), (1, 1), (0, 2)))
    ok = ok and s1 == expected_s1
    details.append(f"support(phi1) = {print_support(s1)}")
    details.append(
        f"support(phi2) = {print_support(s2)} "
        "(note: the t1*t2^2 term contributes exponent (1,2); transcriptions "
        "sometimes list (1,1))"
    )
    sample = tropicalize_sample(polys, 1)
    solved, _ = is_solution_system(sample, (s1, s2))
    details.append(f"tropical check at the computed supports: {solved}")
    return ExampleResult("quadratic-field-system", ok and solved, details)


def four_variable_cancellation() -> ExampleResult:
    """Product of first derivatives against a series coefficient, arity 4."""
    ctx = ParseContext(arity=4, nvars=1)
    p = parse_diff_poly(
        "x1[0,0,1,0]*x1[0,0,0,1] + (-t1^2 + t2^2)*x1[1,0,1,0]", ctx
    )
    phi = parse_series("t1*t3 + t2*t3 + t1*t4 - t2*t4", ctx)
    ok = p.evaluate((phi,)).is_zero
    s = phi.support()
    tp = tropicalize(p)
    # the first term alone: vertex set of {2e1, e1+e2, 2e2}
    inter = VertexSet(4, ((2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)))
    expected = VertexSet(4, ((2, 0, 0, 0), (0, 2, 0, 0)))
    ok = ok and inter == expected
    report = is_solution(tp, (s,))
    ok = ok and report.evaluation == expected and report.solution
    ok = ok and all(len(w) >= 2 for _, w in report.witnesses)
    details = [
        f"support = {print_support(s)}",
        f"evaluation = {print_vertex_set(report.evaluation)}",
        f"witness counts = {[len(w) for _, w in report.witnesses]}",
    ]
    return ExampleResult("four-variable-cancellation", ok, details)


def empty_support_only() -> ExampleResult:
    """First-order equation whose only power-series support is empty."""
    ctx = ParseContext(arity=1, nvars=1)
    p = parse_diff_poly("2*t1*x1[1] - x1[0]", ctx)
    sample = tropicalize_sample([p], 5)
    solutions = enumerate_solutions(sample, (5,), None, nvars=1)
    ok = len(solutions) == 1 and all(s.is_empty for s in solutions[0])
    details = [f"solutions over the box: {len(solutions)} (empty tuple only: {ok})"]
    return ExampleResult("empty-support-only", ok, details)


def run_all() -> list[ExampleResult]:
    return [
        vertex_extraction(),
        quadratic_field_system(),
        four_variable_cancellation(),
        empty_support_only(),
    ]
