import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropdiff import (
    ArityError,
    FieldElement,
    FieldError,
    FieldSpec,
    PowerSeries,
    PrecisionError,
    SupportSet,
    VertexSet,
    parse_series,
    ParseContext,
)

from gen import rand_series

Q = FieldSpec()
Q2 = FieldSpec(2)
CTX2 = ParseContext(arity=2, field=Q2)

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def elem(a, b=0, field=Q2):
    return FieldElement(field, Fraction(a), Fraction(b))


class TestField:
    def test_nonsquare_required(self):
        with pytest.raises(FieldError):
            FieldSpec(9)
        with pytest.raises(FieldError):
            FieldSpec(1)

    def test_rational_has_no_sqrt(self):
        with pytest.raises(FieldError):
            Q.sqrt_d()
        with pytest.raises(FieldError):
            FieldElement(Q, Fraction(1), Fraction(1))

    def test_field_mismatch(self):
        with pytest.raises(FieldError):
            elem(1, field=Q2) + elem(1, field=FieldSpec(3))

    @settings(max_examples=200, deadline=None)
    @given(fracs, fracs)
    def test_conjugate_norm(self, a, b):
        x = elem(a, b)
        n = x * x.conjugate()
        assert n == elem(a * a - 2 * b * b)

    @settings(max_examples=200, deadline=None)
    @given(fracs, fracs)
    def test_zero_test_exact(self, a, b):
        assert elem(a, b).is_zero == (a == 0 and b == 0)

    @settings(max_examples=100, deadline=None)
    @given(fracs, fracs, fracs, fracs)
    def test_field_laws(self, a, b, c, d):
        x, y = elem(a, b), elem(c, d)
        assert x + y == y + x
        assert x * y == y * x
        assert x * (y + elem(1)) == x * y + x
        if not y.is_zero:
            assert (x / y) * y == x

    def test_pow(self):
        s = Q2.sqrt_d()
        assert s ** 2 == elem(2)
        assert s ** 0 == Q2.one

    def test_int_on_the_left(self):
        x = elem(2, 1)  # 2 + sqrt 2, of norm 2
        assert 1 - x == elem(-1, -1)
        assert 1 / x == elem(1, Fraction(-1, 2))

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv,
                                    lambda x, y: y / x])
    def test_foreign_operands_are_refused(self, op):
        # the element's own operator answers NotImplemented, and so does the float's
        with pytest.raises(TypeError):
            op(elem(1), 0.5)


class TestArithmetic:
    def test_difference_of_squares(self):
        ctx = ParseContext(arity=2)
        lhs = parse_series("2*t1 + t2", ctx) * parse_series("2*t1 - t2", ctx)
        assert lhs == parse_series("4*t1^2 - t2^2", ctx)

    def test_additive_identity(self):
        rng = random.Random(1)
        phi = rand_series(rng, 2, Q2)
        assert phi + PowerSeries.zero(2, Q2) == phi

    def test_bilinear_combination(self):
        ctx = ParseContext(arity=4)
        phi = parse_series("(t1 + t2)*t3 + (t1 - t2)*t4", ctx)
        assert phi == parse_series("t1*t3 + t2*t3 + t1*t4 - t2*t4", ctx)

    def test_scalar_mul_zero_is_exact_zero(self):
        s = PowerSeries.monomial(2, (1, 0), 1).truncate(3)
        out = s.scalar_mul(0)
        assert out.is_zero and out.is_exact

    def test_non_integer_exponent_refused(self):
        with pytest.raises(ArityError):
            PowerSeries(2, Q, (((1.5, 0), 1),))
        with pytest.raises(ArityError):
            PowerSeries.monomial(1, ("2",), 1)


class TestDerive:
    def test_quadratic_over_sqrt2(self):
        phi1 = parse_series("t1^2 + sqrtd*t1*t2 + 1/2*t2^2", CTX2)
        assert phi1.derive(1) == parse_series("2*t1 + sqrtd*t2", CTX2)

    def test_constant(self):
        assert PowerSeries.constant(2, 5).derive(1).is_zero

    def test_mixed(self):
        ctx = ParseContext(arity=2)
        assert parse_series("t1*t2^2", ctx).derive(2) == parse_series("2*t1*t2", ctx)


class TestTheta:
    def test_mixed_second(self):
        ctx = ParseContext(arity=2)
        assert parse_series("t1^2*t2", ctx).theta((1, 1)) == parse_series("2*t1", ctx)

    def test_zero_index(self):
        rng = random.Random(2)
        phi = rand_series(rng, 2, Q2)
        assert phi.theta((0, 0)) == phi

    def test_second_component_relation(self):
        # d^2/dt1^2 of the degree-3 series equals d/dt1 of the quadratic one
        phi1 = parse_series("t1^2 + sqrtd*t1*t2 + 1/2*t2^2", CTX2)
        phi2 = parse_series(
            "1 - 1/2*sqrtd*t2 + 1/3*t1^3 + 1/2*sqrtd*t1^2*t2 + 1/2*t1*t2^2"
            " + 1/12*sqrtd*t2^3",
            CTX2,
        )
        assert phi2.theta((2, 0)) == phi1.derive(1)

    def test_only_an_exact_zero_ends_the_derivations(self, monkeypatch):
        # an exact zero is its own derivative; a truncated one loses a degree each time
        assert PowerSeries(2, Q2, precision=5).theta((2, 1)) == PowerSeries(2, Q2, precision=2)
        assert PowerSeries(1, precision=3).theta((7,)) == PowerSeries(1, precision=0)
        rng = random.Random(8)
        for _ in range(30):
            s = rand_series(rng, 2, Q2, precision=rng.choice([None, 1, 3, 5]))
            j = (rng.randint(0, 5), rng.randint(0, 5))
            want = s
            for k, n in enumerate(j):
                for _ in range(n):
                    want = want.derive(k + 1)
            assert s.theta(j) == want
        calls = []
        derive = PowerSeries.derive
        monkeypatch.setattr(PowerSeries, "derive", lambda s, k: calls.append(k) or derive(s, k))
        # one pass over the terms: no derivation, whatever the order
        assert parse_series("t1*t2", CTX2).theta((10**8, 1)) == PowerSeries.zero(2, Q2)
        assert calls == []


class TestSupportAndTrop:
    def test_support_quadratic(self):
        phi1 = parse_series("t1^2 + sqrtd*t1*t2 + 1/2*t2^2", CTX2)
        assert phi1.support() == SupportSet(2, ((2, 0), (1, 1), (0, 2)))

    def test_support_zero(self):
        assert PowerSeries.zero(2).support().is_empty

    def test_support_with_constant(self):
        ctx = ParseContext(arity=2)
        got = parse_series("1 + t1^3", ctx).support()
        assert got == SupportSet(2, ((0, 0), (3, 0)))

    def test_trop_dominating_corner(self):
        ctx = ParseContext(arity=2)
        got = parse_series("2*t1 + t1^2 + 3*t1*t2", ctx).trop()
        assert got == VertexSet(2, ((1, 0),))

    def test_trop_zero_and_units(self):
        assert PowerSeries.zero(2).trop().is_empty
        assert PowerSeries.constant(2, -1).trop() == VertexSet.unit(2)
        assert PowerSeries.constant(2, 1).trop() == VertexSet.unit(2)

    def test_truncated_refused(self):
        s = PowerSeries.monomial(2, (1, 0), 1).truncate(3)
        with pytest.raises(PrecisionError):
            s.support()
        with pytest.raises(PrecisionError):
            s.trop()


class TestTaylorCoefficients:
    def test_square(self):
        s = PowerSeries.monomial(2, (2, 0), 1)
        assert s.taylor_coefficients() == {(2, 0): FieldElement(Q, Fraction(2))}

    def test_mixed(self):
        s = PowerSeries.monomial(2, (1, 1), 1)
        assert s.taylor_coefficients()[(1, 1)] == FieldElement(Q, Fraction(1))

    def test_half_coefficient(self):
        s = PowerSeries.monomial(2, (0, 2), Fraction(1, 2))
        assert s.taylor_coefficients()[(0, 2)] == FieldElement(Q, Fraction(1))

    def test_query_beyond_precision(self):
        s = PowerSeries.monomial(2, (1, 0), 1).truncate(2)
        assert s.taylor_coefficient((1, 0)) == FieldElement(Q, Fraction(1))
        with pytest.raises(PrecisionError):
            s.taylor_coefficient((2, 0))
        with pytest.raises(PrecisionError):
            s.taylor_coefficients()


class TestPrecision:
    def test_add_min(self):
        a = PowerSeries.monomial(2, (1, 0), 1).truncate(4)
        b = PowerSeries.monomial(2, (0, 1), 1).truncate(2)
        assert (a + b).precision == 2

    def test_mul_shifts_by_order(self):
        # error of the degree-<3 factor is pushed up by the order-2 factor
        a = PowerSeries.monomial(2, (2, 0), 1)
        b = PowerSeries.monomial(2, (0, 1), 1).truncate(3)
        assert (a * b).precision == 5

    def test_product_matches_exact_below_precision(self):
        rng = random.Random(3)
        for _ in range(100):
            x = rand_series(rng, 2, Q, hi=3, kmax=3)
            y = rand_series(rng, 2, Q, hi=3, kmax=3)
            n = rng.randint(1, 4)
            exact = x * y
            trunc = x.truncate(n) * y.truncate(n)
            assert trunc.precision is not None
            for p, c in exact.terms:
                if sum(p) < trunc.precision:
                    assert trunc.coeff(p) == c
            for p, c in trunc.terms:
                assert exact.coeff(p) == c

    def test_derive_lowers_precision(self):
        s = PowerSeries.monomial(2, (2, 0), 1).truncate(4)
        assert s.derive(1).precision == 3


class TestValuationLaws:
    def test_multiplicative(self):
        rng = random.Random(4)
        for _ in range(60):
            m = rng.choice([1, 2])
            x = rand_series(rng, m, Q2, nonzero=True)
            y = rand_series(rng, m, Q2, nonzero=True)
            assert (x * y).trop() == x.trop().odot(y.trop())

    def test_subadditive(self):
        rng = random.Random(5)
        for _ in range(60):
            m = rng.choice([1, 2])
            x = rand_series(rng, m, Q2)
            y = rand_series(rng, m, Q2)
            lhs = (x + y).trop().oplus(x.trop()).oplus(y.trop())
            assert lhs == x.trop().oplus(y.trop())

    def test_nondegenerate(self):
        rng = random.Random(6)
        for _ in range(60):
            x = rand_series(rng, 2, Q2)
            assert x.trop().is_empty == x.is_zero

    def test_support_subadditivity(self):
        rng = random.Random(7)
        for _ in range(60):
            m = rng.choice([1, 2])
            x = rand_series(rng, m, Q2)
            y = rand_series(rng, m, Q2)
            union = x.support().union(y.support())
            for p, _ in (x + y).terms:
                assert union.member(p)
            mink = x.support().minkowski(y.support())
            for p, _ in (x * y).terms:
                assert mink.member(p)
