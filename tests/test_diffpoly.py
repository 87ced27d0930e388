import itertools
import random
import tracemalloc

import pytest

from tropdiff import (
    ArityError,
    DerivativeKey,
    DiffMonomial,
    DiffPolynomial,
    FieldSpec,
    ParseContext,
    PowerSeries,
    VertexSet,
    derivative_sample,
    eval_monomial,
    parse_diff_poly,
    parse_series,
    tropicalize,
)
from tropdiff import diffpoly
from tropdiff.diffpoly import MAX_SAMPLE_SIZE
from tropdiff.errors import SampleCapError
from tropdiff.series import factorial_of

from gen import (
    rand_diff_monomial,
    rand_diff_poly,
    rand_point,
    rand_polynomial_tuple,
    rand_series,
)

Q = FieldSpec()
Q2 = FieldSpec(2)
CTX71 = ParseContext(arity=2, nvars=2, field=Q2)
CTX72 = ParseContext(arity=4, nvars=1)
CTX73 = ParseContext(arity=1, nvars=1)


def p1():
    return parse_diff_poly("x1[1,0]^2 - 4*x1[0,0]", CTX71)


def phis_71():
    phi1 = parse_series("t1^2 + sqrtd*t1*t2 + 1/2*t2^2", CTX71)
    phi2 = parse_series(
        "1 - 1/2*sqrtd*t2 + 1/3*t1^3 + 1/2*sqrtd*t1^2*t2 + 1/2*t1*t2^2"
        " + 1/12*sqrtd*t2^3",
        CTX71,
    )
    return phi1, phi2


class TestTheta:
    def test_leibniz_square(self):
        got = p1().theta((1, 0))
        assert got == parse_diff_poly("2*x1[1,0]*x1[2,0] - 4*x1[1,0]", CTX71)

    def test_zero_index(self):
        rng = random.Random(21)
        p = rand_diff_poly(rng, 2, 2, Q2)
        assert p.theta((0, 0)) == p

    def test_series_coefficient_derived(self):
        p = parse_diff_poly("2*t1*x1[1] - x1[0]", CTX73)
        assert p.theta((1,)) == parse_diff_poly("2*t1*x1[2] + x1[1]", CTX73)

    def test_derivations_stop_at_zero(self, monkeypatch):
        calls = []
        derive = diffpoly._derive_form
        monkeypatch.setattr(diffpoly, "_derive_form",
                            lambda form, i: calls.append(i + 1) or derive(form, i))
        p = parse_diff_poly("t1^2 - 2*t1", CTX73)
        assert p.theta((50,)) == parse_diff_poly("0", CTX73)
        assert calls == [1, 1, 1]

    def test_memory_follows_the_form(self):
        # theta(40) of x^3 derives 40 forms; only the current one is kept
        p = parse_diff_poly("x[0]^3", CTX73)
        p.theta((2,))
        tracemalloc.start()
        try:
            p.theta((40,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    def test_derivations_commute(self):
        rng = random.Random(22)
        for _ in range(40):
            p = rand_diff_poly(rng, 2, 2, Q2)
            for j, k in itertools.product((1, 2), repeat=2):
                assert p.derive(j).derive(k) == p.derive(k).derive(j)


class TestEvaluate:
    def test_known_root(self):
        assert p1().evaluate(phis_71()).is_zero

    def test_zero_tuple_no_constant_monomial(self):
        rng = random.Random(23)
        zero = PowerSeries.zero(2, Q2)
        for _ in range(20):
            p = rand_diff_poly(rng, 2, 2, Q2)
            dropped = DiffPolynomial(
                2, 2, Q2,
                tuple((m, c) for m, c in p.terms if not m.is_constant),
            )
            assert dropped.evaluate((zero, zero)).is_zero

    def test_four_variable_cancellation(self):
        p = parse_diff_poly(
            "x1[0,0,1,0]*x1[0,0,0,1] + (-t1^2 + t2^2)*x1[1,0,1,0]", CTX72
        )
        phi = parse_series("(t1 + t2)*t3 + (t1 - t2)*t4", CTX72)
        assert p.evaluate((phi,)).is_zero

    def test_evaluation_is_ring_homomorphism(self):
        rng = random.Random(24)
        for _ in range(25):
            p = rand_diff_poly(rng, 2, 2, Q2, max_terms=2)
            q = rand_diff_poly(rng, 2, 2, Q2, max_terms=2)
            phi = rand_polynomial_tuple(rng, 2, 2, Q2)
            assert (p * q).evaluate(phi) == p.evaluate(phi) * q.evaluate(phi)
            assert (p + q).evaluate(phi) == p.evaluate(phi) + q.evaluate(phi)

    def test_chain_compatibility(self):
        rng = random.Random(25)
        for _ in range(25):
            p = rand_diff_poly(rng, 2, 2, Q2, max_terms=2)
            phi = rand_polynomial_tuple(rng, 2, 2, Q2)
            i = rand_point(rng, 2, 2)
            assert p.theta(i).evaluate(phi) == p.evaluate(phi).theta(i)

    def test_mismatched_tuple_length(self):
        with pytest.raises(ArityError):
            p1().evaluate((PowerSeries.zero(2, Q2),))


class TestTaylorCoeffPoly:
    def test_constant_coefficients_unchanged(self):
        got = p1().taylor_coeff_poly((0, 0))
        assert got == p1()

    def test_vanishing_series_coefficient_dropped(self):
        p = parse_diff_poly("2*t1*x1[1] - x1[0]", CTX73)
        assert p.taylor_coeff_poly((0,)) == parse_diff_poly("-x1[0]", CTX73)

    def test_three_term_polynomial(self):
        p2 = parse_diff_poly("x1[1,1]*x2[0,1] - x1[0,0] + 1", CTX71)
        assert p2.taylor_coeff_poly((0, 0)) == p2

    def test_taylor_formula(self):
        rng = random.Random(26)
        for _ in range(15):
            m = rng.choice([1, 2])
            n = rng.choice([1, 2])
            p = rand_diff_poly(rng, m, n, Q, max_terms=2, coeff_hi=2)
            phi = rand_polynomial_tuple(rng, m, n, Q)
            taylor = [s.taylor_coefficients() for s in phi]
            lookup = lambda i, j: taylor[i - 1].get(j, Q.zero)  # noqa: E731
            value = p.evaluate(phi)
            for i_idx in itertools.product(range(3), repeat=m):
                f = p.taylor_coeff_poly(i_idx)
                expected = f.eval_at_constants(lookup) / factorial_of(i_idx)
                assert value.coeff(i_idx) == expected


class TestTropicalize:
    def test_constant_coefficients(self):
        tp = tropicalize(p1())
        assert len(tp.terms) == 2
        assert all(c == VertexSet.unit(2) for _, c in tp.terms)
        monos = tp.monomials()
        assert DiffMonomial.variable(1, (0, 0)) in monos
        assert DiffMonomial.variable(1, (1, 0), 2) in monos

    def test_series_coefficient(self):
        p = parse_diff_poly(
            "x1[0,0,1,0]*x1[0,0,0,1] + (-t1^2 + t2^2)*x1[1,0,1,0]", CTX72
        )
        tp = tropicalize(p)
        assert len(tp.terms) == 2
        coeffs = {m: c for m, c in tp.terms}
        second = DiffMonomial.variable(1, (1, 0, 1, 0))
        assert coeffs[second] == VertexSet(4, ((2, 0, 0, 0), (0, 2, 0, 0)))
        first = DiffMonomial.variable(1, (0, 0, 1, 0)) * DiffMonomial.variable(1, (0, 0, 0, 1))
        assert coeffs[first] == VertexSet.unit(4)

    def test_constant_times_monomial(self):
        mono = DiffMonomial.variable(1, (1, 1), 2)
        p = DiffPolynomial(2, 1, Q, ((mono, PowerSeries.constant(2, 7)),))
        tp = tropicalize(p)
        assert tp.terms == ((mono, VertexSet.unit(2)),)

    def test_monomial_tropicalization_law(self):
        rng = random.Random(27)
        for _ in range(50):
            m = rng.choice([1, 2])
            n = rng.choice([1, 2])
            mono = rand_diff_monomial(rng, m, n)
            phi = rand_polynomial_tuple(rng, m, n, Q, nonzero=True)
            e_m = DiffPolynomial(m, n, Q, ((mono, PowerSeries.one(m, Q)),))
            lhs = e_m.evaluate(phi).trop()
            rhs = eval_monomial(mono, tuple(s.support() for s in phi), arity=m)
            assert lhs == rhs


class TestDerivativeSample:
    def test_derivative_sample_count(self):
        assert len(tuple(derivative_sample((p1(),), 1))) == 4
        assert len(tuple(derivative_sample((p1(),), 0))) == 1

    def test_matches_theta_in_product_order(self):
        rng = random.Random(41)
        truncated = PowerSeries.monomial(2, (3, 1), 2).truncate(5)
        mixed = DiffPolynomial(2, 1, Q, (
            (DiffMonomial.variable(1, (1, 0), 2), truncated),
            (DiffMonomial.variable(1, (0, 0)), PowerSeries.variable(2, 1, Q)),
        ))
        cases = [([mixed], 3)]
        for m, k, n, field in itertools.product((1, 2, 3), range(4), (1, 2), (Q, Q2)):
            # square-free monomials and low coefficients keep theta(I) small at ||I||_1 = 3m
            polys = [
                DiffPolynomial(m, n, field, tuple(
                    (rand_diff_monomial(rng, m, n, max_exp=1),
                     rand_series(rng, m, field, hi=1, kmax=2, nonzero=True))
                    for _ in range(2)
                ))
                for _ in range(2)
            ]
            cases.append((polys, k))
        for polys, k in cases:
            m = polys[0].arity
            want = [p.theta(idx) for p in polys
                    for idx in itertools.product(range(k + 1), repeat=m)]
            assert list(derivative_sample(polys, k)) == want

    def test_one_derivation_per_index(self, monkeypatch):
        calls = []
        derive = diffpoly._derive_form

        def counting(form, i):
            calls.append(i + 1)
            return derive(form, i)

        monkeypatch.setattr(diffpoly, "_derive_form", counting)
        rng = random.Random(42)
        for m in (1, 2, 3):
            polys = [rand_diff_poly(rng, m, 2, Q) for _ in range(3)]
            for k in range(4):
                calls.clear()
                assert next(derivative_sample(polys, k)) is polys[0] and not calls
                tuple(derivative_sample(polys, k))
                assert len(calls) == len(polys) * ((k + 1) ** m - 1)

    def test_negative_bound(self):
        with pytest.raises(ValueError):
            tuple(derivative_sample((p1(),), -1))

    def test_cap_refused_before_any_derivation(self, monkeypatch):
        calls = []
        monkeypatch.setattr(diffpoly, "_derive_form", lambda form, i: calls.append(i))
        line = parse_diff_poly("x1[1] - x1[0]", CTX73)
        # exactly MAX_SAMPLE_SIZE entries are admitted, one more is refused
        assert next(derivative_sample([line], MAX_SAMPLE_SIZE - 1)) is line
        assert next(derivative_sample([line, line], MAX_SAMPLE_SIZE // 2 - 1)) is line
        for polys, k in (([line], MAX_SAMPLE_SIZE), ([line, line], MAX_SAMPLE_SIZE // 2),
                         ([p1()], 100)):
            sample = derivative_sample(polys, k)
            with pytest.raises(SampleCapError, match="exceeding the cap of 10000"):
                next(sample)
        assert calls == []

    def test_cap_estimate_at_any_arity(self):
        # (k+1)^m is never computed in full, so a large arity costs nothing
        wide = DiffPolynomial(10_000, 1)
        assert next(derivative_sample([wide], 0)) is wide
        with pytest.raises(SampleCapError):
            next(derivative_sample([wide], 10**6))
