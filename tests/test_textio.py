import json
import random

import pytest

from tropdiff import (
    RATIONALS,
    DiffMonomial,
    DiffPolynomial,
    FieldSpec,
    ParseContext,
    ParseError,
    PowerSeries,
    SupportSet,
    VertexSet,
    parse_diff_poly,
    parse_series,
    parse_support,
    parse_system,
    parse_trop_poly,
    parse_vertex_set,
    print_diff_poly,
    print_series,
    print_support,
    print_trop_poly,
    print_vertex_set,
    tropicalize,
)
from tropdiff.textio import (
    MAX_NESTING,
    diff_poly_to_json,
    parse_point,
    parse_series_tuple,
    parse_supports,
    report_to_json,
    series_to_json,
    support_to_json,
    trop_poly_to_json,
)
from tropdiff.troppoly import is_solution

from gen import rand_diff_poly, rand_series, rand_support, rand_trop_poly

Q2 = FieldSpec(2)
CTX71 = ParseContext(arity=2, nvars=2, field=Q2)
S1 = "{(2,0),(1,1),(0,2)}"
S2 = "cone{(0,1)}"


class TestParseDiffPoly:
    def test_two_monomials(self):
        p = parse_diff_poly("x1[1,0]^2 - 4*x1[0,0]", CTX71)
        assert len(p.terms) == 2
        assert DiffMonomial.variable(1, (1, 0), 2) in p.monomials()

    def test_zero(self):
        assert parse_diff_poly("0", CTX71).is_zero

    def test_series_coefficient_m4(self):
        ctx = ParseContext(arity=4, nvars=1)
        p = parse_diff_poly("(-t1^2 + t2^2)*x1[1,0,1,0]", ctx)
        assert len(p.terms) == 1
        ((mono, coef),) = p.terms
        assert mono == DiffMonomial.variable(1, (1, 0, 1, 0))
        assert coef == parse_series("-t1^2 + t2^2", ctx)

    def test_power_of_sum(self):
        ctx = ParseContext(arity=1, nvars=1)
        p = parse_diff_poly("(x1[0] + x1[1])^2", ctx)
        assert len(p.terms) == 3

    def test_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_diff_poly("x1[1,0] + @", CTX71)
        assert exc.value.pos == 10

    def test_bad_variable_index(self):
        with pytest.raises(ParseError):
            parse_diff_poly("x3[0,0]", CTX71)

    def test_bad_index_arity(self):
        with pytest.raises(ParseError):
            parse_diff_poly("x1[1,0,0]", CTX71)

    def test_sqrtd_requires_quadratic_field(self):
        with pytest.raises(ParseError):
            parse_diff_poly("sqrtd*x1[0,0]", ParseContext(arity=2, nvars=2))

    def test_nesting_limit(self):
        ctx = ParseContext(arity=1, nvars=1)
        deepest = "(" * MAX_NESTING + "x1[0]" + ")" * MAX_NESTING
        assert parse_diff_poly(deepest, ctx) == parse_diff_poly("x1[0]", ctx)
        with pytest.raises(ParseError) as exc:
            parse_diff_poly("(" + deepest + ")", ctx)
        assert exc.value.pos == MAX_NESTING

    def test_x_refused_in_series(self):
        with pytest.raises(ParseError):
            parse_series("t1 + x1[0,0]", CTX71)


# Both entry points that read `x<i>[..]`, each with the text that precedes
# the variable (formatted with the coordinates of one point).
VAR_ENTRY_POINTS = [(parse_diff_poly, ""), (parse_trop_poly, "{{({})}}*")]


class TestDerivativeVariables:
    @pytest.mark.parametrize("parse, prefix", VAR_ENTRY_POINTS, ids=["diff", "trop"])
    @pytest.mark.parametrize("var, nvars, arity, message", [
        ("x[0,0]", 2, 2, "bare 'x' is only valid for a single variable"),
        ("x3[0,0]", 2, 2, "variable x3 out of range for 2 variables"),
        ("x0[0]", 1, 1, "variable x0 out of range for 1 variables"),
        ("x1[1]", 1, 2, "derivative index of arity 1, expected 2"),
    ])
    def test_same_errors(self, parse, prefix, var, nvars, arity, message):
        prefix = prefix.format(",".join("0" * arity))
        with pytest.raises(ParseError) as exc:
            parse(prefix + var, ParseContext(arity=arity, nvars=nvars))
        assert exc.value.message == message
        assert exc.value.pos == len(prefix)

    @pytest.mark.parametrize("parse, prefix", VAR_ENTRY_POINTS, ids=["diff", "trop"])
    def test_bare_x_for_one_variable(self, parse, prefix):
        ctx = ParseContext(arity=2, nvars=1)
        prefix = prefix.format("0,0")
        assert parse(prefix + "x[1,0]", ctx) == parse(prefix + "x1[1,0]", ctx)


class TestParseSupport:
    def test_explicit_plus_cone(self):
        s = parse_support("{(1,4),(2,3)} + cone{(0,5)}", CTX71)
        assert s.explicit == ((1, 4), (2, 3)) and s.cones == ((0, 5),)

    def test_empty(self):
        assert parse_support("{}", CTX71).is_empty

    def test_cone_only(self):
        s = parse_support("cone{(1,1),(2,0)}", CTX71)
        assert s.explicit == () and s.cones == ((1, 1), (2, 0))

    def test_arity_checked(self):
        with pytest.raises(ParseError):
            parse_support("{(1,2,3)}", CTX71)

    def test_first_point_fixes_the_arity(self):
        # without a context the first point read, explicit or cone, fixes the
        # arity; a set with no point has arity 1
        assert parse_support("{(1,4),(2,3)} + cone{(0,5)}") == \
            parse_support("{(1,4),(2,3)} + cone{(0,5)}", CTX71)
        assert parse_support("{} + cone{(1,2,3)}") == SupportSet(3, (), [(1, 2, 3)])
        for text in ("{}", "cone{}", "{} + cone{}"):
            assert parse_support(text) == SupportSet(1)
        with pytest.raises(ParseError, match=r"^point of arity 1, expected 2 \(at position 7\)$"):
            parse_support("{(1,2),(3)}")
        with pytest.raises(ParseError, match=r"^point of arity 3, expected 2 \(at position 15\)$"):
            parse_support("{(1,2)} + cone{(1,2,3)}")


class TestParseSeries:
    def test_quadratic_fixture(self):
        phi = parse_series("1/2*t2^2 + sqrtd*t1*t2 + t1^2", CTX71)
        assert phi.support() == SupportSet(2, ((2, 0), (1, 1), (0, 2)))
        assert phi.coeff((1, 1)) == Q2.sqrt_d()

    def test_bare_t_for_arity_one(self):
        ctx = ParseContext(arity=1)
        assert parse_series("2*t", ctx) == parse_series("2*t1", ctx)

    def test_bare_t_rejected_otherwise(self):
        with pytest.raises(ParseError):
            parse_series("2*t", CTX71)

    @pytest.mark.parametrize("text, message", [
        ("1 + t", "bare 't' is only valid for arity 1"),
        ("1 + t3", "variable t3 out of range for arity 2"),
        ("1 + t0", "variable t0 out of range for arity 2"),
        ("1 + x1[0,0]", "differential variables are not allowed here"),
        ("1 + x9", "differential variables are not allowed here"),
    ])
    def test_name_errors_point_at_the_name(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_series(text, CTX71)
        assert (exc.value.message, exc.value.pos) == (message, 4)


class TestParseIndexAndTuples:
    @pytest.mark.parametrize("text", ["(1,0)", "1,0", " ( 1 , 0 ) ", " 1 , 0 "])
    def test_index_parentheses_optional(self, text):
        assert parse_point(text, CTX71) == (1, 0)

    @pytest.mark.parametrize("text, message, pos", [
        ("1", "point of arity 1, expected 2", 0),
        ("(1,0,2)", "point of arity 3, expected 2", 0),
        ("1,0)", "trailing input", 3),
        ("(1,0", "expected ')'", 4),
        ("1,", "expected an integer", 2),
        ("", "expected an integer", 0),
    ])
    def test_index_errors(self, text, message, pos):
        with pytest.raises(ParseError) as exc:
            parse_point(text, CTX71)
        assert (exc.value.message, exc.value.pos) == (message, pos)

    def test_tuples_read_one_item_per_variable(self):
        assert parse_supports(f"{S1} ; {S2}", CTX71) == [
            parse_support(S1, CTX71), parse_support(S2, CTX71)]
        assert parse_series_tuple("t1;1 + t2", CTX71) == [
            parse_series("t1", CTX71), parse_series("1 + t2", CTX71)]

    @pytest.mark.parametrize("parse, text, message, pos", [
        (parse_supports, "{(0,0)}", "expected 2 support sets, got 1", None),
        (parse_supports, "{};{};{}", "expected 2 support sets, got 3", None),
        (parse_supports, "{(0,0)};{(1,)}", "expected an integer", 12),
        (parse_supports, "{} {}", "trailing input", 3),
        (parse_series_tuple, "t1", "expected 2 series, got 1", None),
        (parse_series_tuple, "t1;t2+", "expected a term", 6),
        (parse_series_tuple, "t1;;t2", "expected a term", 3),
    ])
    def test_tuple_errors(self, parse, text, message, pos):
        with pytest.raises(ParseError) as exc:
            parse(text, CTX71)
        assert (exc.value.message, exc.value.pos) == (message, pos)


class TestParseTropPoly:
    def test_simple(self):
        ctx = ParseContext(arity=2, nvars=1)
        tp = parse_trop_poly("{(0,0)}*x1[1,0]^2 + {(2,0),(0,2)}*x1[0,0]", ctx)
        assert len(tp.terms) == 2

    def test_zero(self):
        assert parse_trop_poly("0", ParseContext(arity=2)).is_zero

    def test_constant_term(self):
        ctx = ParseContext(arity=2, nvars=1)
        tp = parse_trop_poly("{(1,1)}", ctx)
        assert tp.terms == ((DiffMonomial.one(), VertexSet(2, ((1, 1),))),)

    @pytest.mark.parametrize("parse, text, message, pos", [
        (parse_support, "{(0,0)} + {(1,1)}", "expected 'cone'", 10),
        (parse_trop_poly, "{(0,0)}*t1", "expected a derivative variable", 8),
        (parse_trop_poly, "{(0,0)}*x1[0,0]^0", "tropical powers must be >= 1", 8),
    ])
    def test_grammar_errors(self, parse, text, message, pos):
        with pytest.raises(ParseError) as exc:
            parse(text, CTX71)
        assert (exc.value.message, exc.value.pos) == (message, pos)

    def test_empty_coefficient_rejected(self):
        with pytest.raises(ParseError):
            parse_trop_poly("{}*x1[0,0]", ParseContext(arity=2, nvars=1))


class TestParseSystem:
    def test_lines_and_comments(self):
        text = """
        # a system of two polynomials
        x1[1,0]^2 - 4*x1[0,0]

        x2[2,0] - x1[1,0]  # trailing comment
        """
        polys = parse_system(text, CTX71)
        assert len(polys) == 2

    def test_line_number_in_error(self):
        with pytest.raises(ParseError) as exc:
            parse_system("x1[0,0]\n???", CTX71)
        assert "line 2" in str(exc.value)


class TestPrinting:
    def test_series_canonical_order(self):
        phi = parse_series("t1^2 + sqrtd*t1*t2 + 1/2*t2^2", CTX71)
        assert print_series(phi) == "1/2*t2^2 + sqrtd*t1*t2 + t1^2"

    def test_equal_values_print_identically(self):
        a = parse_diff_poly("x1[1,0]^2 - 4*x1[0,0]", CTX71)
        b = parse_diff_poly("-4*x1[0,0] + x1[1,0]*x1[1,0]", CTX71)
        assert a == b and print_diff_poly(a) == print_diff_poly(b)

    def test_support_forms(self):
        assert print_support(SupportSet.empty(2)) == "{}"
        assert print_support(SupportSet(2, ((1, 4),))) == "{(1,4)}"
        assert print_support(SupportSet(2, (), ((0, 5),))) == "cone{(0,5)}"
        assert (
            print_support(SupportSet(2, ((1, 4),), ((0, 5),)))
            == "{(1,4)} + cone{(0,5)}"
        )

    def test_truncated_series_marker(self):
        s = PowerSeries.monomial(2, (1, 0), 1).truncate(3)
        assert print_series(s).endswith("+ O(3)")

    def test_truncated_coefficients_print_their_precision(self):
        # as print_series does, parenthesized: an unknown coefficient is not zero
        x0 = DiffMonomial.variable(1, (0,))
        p = DiffPolynomial(1, 1, RATIONALS, [(x0, PowerSeries.one(1).truncate(1))])
        assert print_diff_poly(p) == "(1 + O(1))*x1[0]"
        assert print_diff_poly(p.derive(1)) == "(0 + O(0))*x1[0] + (1 + O(1))*x1[1]"
        coef = parse_series("-sqrtd*t2 + t1^3", CTX71).truncate(2)
        mono = parse_diff_poly("x2[0,1]", CTX71).monomials()[0]
        q = DiffPolynomial(2, 2, Q2, [(mono, coef), (DiffMonomial.one(), coef)])
        assert print_diff_poly(q) == "(-sqrtd*t2 + O(2)) + (-sqrtd*t2 + O(2))*x2[0,1]"
        # exact coefficients print as the DSL reads them
        assert print_diff_poly(parse_diff_poly("-sqrtd*t2*x2[0,1] + x1[0,0]", CTX71)) == (
            "x1[0,0] - sqrtd*t2*x2[0,1]")

    def test_zero_forms(self):
        assert print_series(PowerSeries.zero(2)) == "0"
        assert print_diff_poly(parse_diff_poly("0", CTX71)) == "0"
        assert print_trop_poly(parse_trop_poly("0", ParseContext(arity=2))) == "0"


class TestRoundTrip:
    def test_supports(self):
        rng = random.Random(41)
        for _ in range(150):
            m = rng.choice([1, 2, 3])
            s = rand_support(rng, m)
            ctx = ParseContext(arity=m)
            assert parse_support(print_support(s), ctx) == s

    def test_vertex_sets(self):
        rng = random.Random(42)
        for _ in range(100):
            m = rng.choice([1, 2, 3])
            v = rand_support(rng, m).vertices()
            ctx = ParseContext(arity=m)
            assert parse_vertex_set(print_vertex_set(v), ctx) == v

    def test_series(self):
        rng = random.Random(43)
        for _ in range(150):
            m = rng.choice([1, 2, 3])
            field = rng.choice([FieldSpec(), Q2])
            s = rand_series(rng, m, field)
            ctx = ParseContext(arity=m, field=field)
            assert parse_series(print_series(s), ctx) == s

    def test_diff_polys(self):
        rng = random.Random(44)
        for _ in range(150):
            m = rng.choice([1, 2])
            n = rng.choice([1, 2])
            field = rng.choice([FieldSpec(), Q2])
            p = rand_diff_poly(rng, m, n, field)
            ctx = ParseContext(arity=m, nvars=n, field=field)
            assert parse_diff_poly(print_diff_poly(p), ctx) == p

    def test_trop_polys(self):
        rng = random.Random(45)
        for _ in range(150):
            m = rng.choice([1, 2])
            n = rng.choice([1, 2])
            tp = rand_trop_poly(rng, m, n)
            ctx = ParseContext(arity=m, nvars=n)
            assert parse_trop_poly(print_trop_poly(tp), ctx) == tp


class TestJson:
    def test_series_shape(self):
        phi = parse_series("t1^2 + sqrtd*t1*t2", CTX71)
        data = series_to_json(phi)
        assert data["arity"] == 2 and data["d"] == 2 and data["precision"] is None
        assert {"exponent": [1, 1], "a": "0", "b": "1"} in data["terms"]
        json.dumps(data)

    def test_support_shape(self):
        s = parse_support("{(1,4)} + cone{(0,5)}", CTX71)
        data = support_to_json(s)
        assert data == {"arity": 2, "explicit": [[1, 4]], "cones": [[0, 5]]}

    def test_diff_poly_shape(self):
        p = parse_diff_poly("x1[1,0]^2 - 4*x1[0,0]", CTX71)
        data = diff_poly_to_json(p)
        assert data["nvars"] == 2 and len(data["terms"]) == 2
        json.dumps(data)

    def test_trop_poly_shape(self):
        tp = tropicalize(parse_diff_poly("x1[1,0]^2 - 4*x1[0,0]", CTX71))
        data = trop_poly_to_json(tp)
        assert data["terms"][0]["coefficient"] == [[0, 0]]
        json.dumps(data)

    def test_report_schema(self):
        ctx = ParseContext(arity=1, nvars=1)
        tp = tropicalize(parse_diff_poly("2*t1*x1[1] - x1[0]", ctx))
        report = is_solution(tp, (SupportSet(1, ((0,),)),))
        data = report_to_json(report)
        assert set(data) == {"evaluation", "witnesses", "solution"}
        assert data["evaluation"] == [[0]]
        assert data["witnesses"] == {"(0)": [0]}
        assert data["solution"] is False
        json.dumps(data)
