import itertools
import math
import random

import pytest

from tropdiff import (
    ArityError,
    CandidateCapError,
    DiffMonomial,
    DiffPolynomial,
    FieldSpec,
    ParseContext,
    PowerSeries,
    SupportSet,
    TropPolynomial,
    VertexSet,
    enumerate_solutions,
    eval_monomial,
    is_solution,
    is_solution_system,
    parse_diff_poly,
    parse_series,
    tropicalize,
    tropicalize_sample,
)
from tropdiff.troppoly import count_candidates

from gen import (
    rand_diff_monomial,
    rand_diff_poly,
    rand_polynomial_tuple,
    rand_support,
    rand_trop_poly,
)
from oracles import enumerate_bruteforce, eval_monomial_minkowski

Q = FieldSpec()
Q2 = FieldSpec(2)
CTX71 = ParseContext(arity=2, nvars=2, field=Q2)
CTX72 = ParseContext(arity=4, nvars=1)
CTX73 = ParseContext(arity=1, nvars=1)

S1 = SupportSet(2, ((2, 0), (1, 1), (0, 2)))


def system_71():
    return [
        parse_diff_poly("x1[1,0]^2 - 4*x1[0,0]", CTX71),
        parse_diff_poly("x1[1,1]*x2[0,1] - x1[0,0] + 1", CTX71),
        parse_diff_poly("x2[2,0] - x1[1,0]", CTX71),
    ]


def supports_71():
    phi1 = parse_series("t1^2 + sqrtd*t1*t2 + 1/2*t2^2", CTX71)
    phi2 = parse_series(
        "1 - 1/2*sqrtd*t2 + 1/3*t1^3 + 1/2*sqrtd*t1^2*t2 + 1/2*t1*t2^2"
        " + 1/12*sqrtd*t2^3",
        CTX71,
    )
    return phi1.support(), phi2.support()


def poly_72():
    return parse_diff_poly(
        "x1[0,0,1,0]*x1[0,0,0,1] + (-t1^2 + t2^2)*x1[1,0,1,0]", CTX72
    )


def support_72():
    return parse_series("(t1 + t2)*t3 + (t1 - t2)*t4", CTX72).support()


def poly_73():
    return parse_diff_poly("2*t1*x1[1] - x1[0]", CTX73)


class TestEvalMonomial:
    def test_squared_first_derivative(self):
        eps = DiffMonomial.variable(1, (1, 0), 2)
        assert eval_monomial(eps, (S1,)) == VertexSet(2, ((2, 0), (0, 2)))

    def test_plain_variable(self):
        eps = DiffMonomial.variable(1, (0, 0))
        assert eval_monomial(eps, (S1,)) == VertexSet(2, ((2, 0), (0, 2)))

    def test_annihilated(self):
        eps = DiffMonomial.variable(1, (5, 5)) * DiffMonomial.variable(1, (0, 0))
        assert eval_monomial(eps, (S1,)).is_empty
        # an annihilated product still checks every support's arity first
        x = DiffMonomial.variable(1, (0, 0))
        for supports, arity in [
            ((SupportSet.empty(2),), 3),
            ((S1,), 3),
            ((SupportSet.empty(2), SupportSet.empty(3)), 3),
            ((SupportSet.empty(2), SupportSet.empty(3)), None),
        ]:
            with pytest.raises(ArityError, match="support arity differs"):
                eval_monomial(x, supports, arity=arity)
        # and every variable's range, also past an empty factor
        with pytest.raises(ArityError, match="^variable x2 out of range$"):
            eval_monomial(eps * DiffMonomial.variable(2, (0, 0)), (S1,))

    def test_routes_agree(self):
        rng = random.Random(31)
        for _ in range(80):
            m = rng.choice([1, 2])
            n = rng.choice([1, 2])
            mono = rand_diff_monomial(rng, m, n, order=2)
            supports = tuple(rand_support(rng, m) for _ in range(n))
            assert eval_monomial(mono, supports, arity=m) == \
                eval_monomial_minkowski(mono, supports, arity=m)


class TestEval:
    def test_quadratic_fixture(self):
        tp = tropicalize(system_71()[0])
        s1, s2 = supports_71()
        assert is_solution(tp, (s1, s2)).evaluation == VertexSet(2, ((2, 0), (0, 2)))

    def test_four_variable_fixture(self):
        tp = tropicalize(poly_72())
        got = is_solution(tp, (support_72(),)).evaluation
        assert got == VertexSet(4, ((2, 0, 0, 0), (0, 2, 0, 0)))

    def test_empty_polynomial(self):
        tp = TropPolynomial.zero(2, 1)
        assert is_solution(tp, (S1,)).evaluation.is_empty

    def test_consistency_with_support_route(self):
        rng = random.Random(32)
        for _ in range(60):
            m = rng.choice([1, 2])
            n = rng.choice([1, 2])
            tp = rand_trop_poly(rng, m, n)
            supports = tuple(rand_support(rng, m) for _ in range(n))
            acc = VertexSet.empty(m)
            for mono, coef in tp.terms:
                acc = acc.oplus(coef.odot(eval_monomial_minkowski(mono, supports, arity=m)))
            assert is_solution(tp, supports).evaluation == acc


class TestIsSolution:
    def test_four_variable_solution(self):
        report = is_solution(tropicalize(poly_72()), (support_72(),))
        assert report.solution is True
        assert report.evaluation == VertexSet(4, ((2, 0, 0, 0), (0, 2, 0, 0)))
        for _, wit in report.witnesses:
            assert 2 <= len(wit) <= 3

    def test_origin_support_fails(self):
        report = is_solution(tropicalize(poly_73()), (SupportSet(1, ((0,),)),))
        assert report.solution is False
        assert report.evaluation == VertexSet(1, ((0,),))
        ((vertex, wit),) = report.witnesses
        assert vertex == (0,) and len(wit) == 1

    def test_all_vals_empty(self):
        # every monomial mentions a variable, so empty supports kill all terms
        tp = tropicalize(poly_73())
        report = is_solution(tp, (SupportSet.empty(1),))
        assert report.solution is True and report.evaluation.is_empty

    def test_report_soundness_replay(self):
        rng = random.Random(33)
        for _ in range(60):
            m = rng.choice([1, 2])
            n = rng.choice([1, 2])
            tp = rand_trop_poly(rng, m, n)
            supports = tuple(rand_support(rng, m) for _ in range(n))
            report = is_solution(tp, supports)
            sets = [coef.odot(eval_monomial(mono, supports, arity=m))
                    for mono, coef in tp.terms]
            for vertex, wit in report.witnesses:
                expect = tuple(i for i, ts in enumerate(sets) if ts.member(vertex))
                assert wit == expect
            expected_verdict = report.evaluation.is_empty or all(
                len(w) >= 2 for _, w in report.witnesses
            )
            assert report.solution == expected_verdict


class TestIsSolutionSystem:
    def test_quadratic_system_with_first_derivatives(self):
        sample = tropicalize_sample(system_71(), 1)
        ok, reports = is_solution_system(sample, supports_71())
        assert ok is True
        assert len(reports) == 12  # 3 polynomials x 4 derivative operators

    def test_empty_family(self):
        ok, reports = is_solution_system([], (S1,))
        assert ok is True and reports == ()

    def test_singleton_witness_at_matching_derivative(self):
        sample = tropicalize_sample([poly_73()], 5)
        for k in range(6):
            s = SupportSet(1, ((k,),))
            ok, reports = is_solution_system(sample, (s,))
            assert ok is False
            # the report for I = k shows the vertex (0) witnessed only once
            bad = reports[k]
            assert bad.solution is False
            assert any(len(w) == 1 for _, w in bad.witnesses)

    def test_false_stays_false_at_a_larger_bound(self):
        # the sample at bound k is part of the sample at bound k + 1
        rng = random.Random(61)
        falses = 0
        for _ in range(60):
            m, n = rng.randint(1, 2), rng.randint(1, 2)
            field = rng.choice([Q, Q2])
            polys = [rand_diff_poly(rng, m, n, field) for _ in range(rng.randint(1, 2))]
            supports = tuple(rand_support(rng, m) for _ in range(n))
            k = rng.randint(0, 2)
            ok, _ = is_solution_system(tropicalize_sample(polys, k), supports)
            if not ok:
                ok_next, _ = is_solution_system(tropicalize_sample(polys, k + 1), supports)
                assert ok_next is False, (polys, supports, k)
                falses += 1
        assert falses >= 30

    def test_reports_match_is_solution_per_member(self):
        # the family shares its valuations; `is_solution` computes them
        # afresh for each member
        rng = random.Random(67)
        verdicts = set()
        for _ in range(60):
            m, n = rng.randint(1, 2), rng.randint(1, 2)
            field = rng.choice([Q, Q2])
            polys = [rand_diff_poly(rng, m, n, field) for _ in range(rng.randint(1, 2))]
            sample = tropicalize_sample(polys, rng.randint(0, 2))
            supports = tuple(
                SupportSet.empty(m) if rng.random() < 0.25
                else rand_support(rng, m, cone_prob=0.6)
                for _ in range(n)
            )
            ok, reports = is_solution_system(sample, supports)
            assert reports == tuple(is_solution(p, supports) for p in sample)
            assert ok == all(r.solution for r in reports)
            verdicts.add(ok)
        assert verdicts == {True, False}


class TestValMemo:
    def test_one_val_computation_per_set_and_shift(self, monkeypatch):
        calls = []
        shifted = SupportSet._shifted

        def counting(self, shift):
            calls.append((id(self), tuple(shift)))
            return shifted(self, shift)

        monkeypatch.setattr(SupportSet, "_shifted", counting)
        sample = tropicalize_sample(system_71(), 2)
        supports = supports_71()
        is_solution_system(sample, supports)
        assert calls and len(calls) == len(set(calls))


class TestEasyDirection:
    def test_constructed_cancellation(self):
        rng = random.Random(34)
        done = 0
        while done < 30:
            m = rng.choice([1, 2])
            n = rng.choice([1, 2])
            e1 = rand_diff_monomial(rng, m, n)
            e2 = rand_diff_monomial(rng, m, n)
            if e1 == e2:
                continue
            phi = rand_polynomial_tuple(rng, m, n, Q, nonzero=True)
            one = PowerSeries.one(m, Q)
            c = DiffPolynomial(m, n, Q, ((e1, one),)).evaluate(phi)
            d = DiffPolynomial(m, n, Q, ((e2, one),)).evaluate(phi)
            if c.is_zero or d.is_zero:
                continue
            p = DiffPolynomial(m, n, Q, ((e1, d), (e2, -c)))
            assert p.evaluate(phi).is_zero
            supports = tuple(s.support() for s in phi)
            for i_idx in itertools.product(range(2), repeat=m):
                report = is_solution(tropicalize(p.theta(i_idx)), supports)
                assert report.solution is True
            done += 1


class TestEnumerate:
    def test_only_empty_support(self):
        sample = tropicalize_sample([poly_73()], 5)
        sols = enumerate_solutions(sample, (5,), None, nvars=1)
        assert len(sols) == 1
        assert all(s.is_empty for s in sols[0])

    def test_empty_system_returns_all(self):
        sols = enumerate_solutions([], (1, 1), None, nvars=1)
        assert len(sols) == 2 ** 4

    def test_deduction_on_box(self):
        # within [0,2]^2: (0,0) in S1 forces (1,0) in S1, and conversely
        tp = tropicalize(parse_diff_poly("x1[1,0]^2 - 4*x1[0,0]",
                                         ParseContext(arity=2, nvars=1, field=Q2)))
        grid = list(itertools.product(range(3), repeat=2))
        for bits in itertools.product((0, 1), repeat=len(grid)):
            pts = tuple(p for p, b in zip(grid, bits) if b)
            s = SupportSet(2, pts)
            has0 = (0, 0) in pts
            has1 = (1, 0) in pts
            if has0 != has1:
                assert is_solution(tp, (s,)).solution is False

    def test_cap_refusal(self):
        with pytest.raises(CandidateCapError) as exc:
            enumerate_solutions([], (3, 3), None, nvars=1, max_candidates=100)
        assert exc.value.estimate == 2 ** 16

    def test_count_candidates_sums_the_shorter_side(self):
        for box in ((0,), (1,), (4,), (9,), (2, 2), (3, 1), (1, 1, 1)):
            grid = math.prod(b + 1 for b in box)
            for max_points in (None, *range(grid + 2)):
                top = grid if max_points is None else min(max_points, grid)
                per_component = sum(math.comb(grid, k) for k in range(top + 1))
                for nvars in (1, 2, 3):
                    assert count_candidates(box, max_points, nvars) == per_component ** nvars
        assert count_candidates((10**6,), 2, 1) == 1 + (10**6 + 1) + math.comb(10**6 + 1, 2)
        assert count_candidates((10**6,), 10**6, 1) == 2 ** (10**6 + 1) - 1

    def test_count_candidates_refuses_past_the_cap(self):
        # below the cap the count is exact; above it, a count under 2^100 is
        # exact in the error, and a larger one a true lower bound 2^k
        for box in ((0,), (4,), (9,), (2, 2), (3, 1), (40,), (200,)):
            grid = math.prod(b + 1 for b in box)
            for max_points in (None, 0, 1, 2, grid // 2, grid - 1, grid):
                for nvars, cap in itertools.product((1, 2, 3), (0, 5, 1000, 2**120)):
                    count = count_candidates(box, max_points, nvars)
                    if count <= cap:
                        assert count_candidates(box, max_points, nvars, cap) == count
                        continue
                    with pytest.raises(CandidateCapError) as exc:
                        count_candidates(box, max_points, nvars, cap)
                    err = exc.value
                    assert err.cap == cap
                    if count < 2**100:
                        assert err.estimate == count
                    elif err.estimate is None:
                        k = int(str(err).split("2^")[1].split(" ")[0])
                        assert 100 <= k <= count.bit_length() - 1
                    else:
                        assert err.estimate == count
        with pytest.raises(CandidateCapError) as exc:
            count_candidates((10**12,), None, 2, 100)
        assert exc.value.estimate is None and "2^2000000000002 or more" in str(exc.value)

    def test_cap_message_shows_long_estimates_by_magnitude(self):
        short = CandidateCapError(10**30 - 1, 5)
        assert str(short) == ("enumeration would visit an estimated " + "9" * 30
                              + " candidate tuples, exceeding the cap of 5")
        for estimate, k in ((10**30, 99), (2 ** 20000 + 1, 20000), (10**5000, 16609)):
            err = CandidateCapError(estimate, 7)
            assert err.estimate == estimate
            assert str(err) == (f"enumeration would visit an estimated 2^{k} or more "
                                "candidate tuples, exceeding the cap of 7")

    def test_max_points_limits_size(self):
        sols = enumerate_solutions([], (1,), 1, nvars=1)
        assert len(sols) == 3  # empty, {(0)}, {(1)}

    def test_negative_max_points_refused(self):
        # not even the empty support would be tried, and it solves x[0]
        with pytest.raises(ValueError, match="max_points must be >= 0"):
            enumerate_solutions([tropicalize(poly_73())], (2,), -1, nvars=1)

    def test_negative_cap_refused(self):
        with pytest.raises(ValueError, match="max_candidates must be >= 0"):
            enumerate_solutions([], (1,), nvars=1, max_candidates=-5)

    def test_cap_checked_before_reading_polys(self):
        def sample():
            raise AssertionError("the sample was read")
            yield

        with pytest.raises(CandidateCapError):
            enumerate_solutions(sample(), (30,), nvars=1)

    def test_builds_few_support_sets(self, monkeypatch):
        # [0,3]x[0,2] has 4096 components; a SupportSet is built only for
        # each component of a solution, once, and without validation
        ctx = ParseContext(arity=2, nvars=1)
        sample = tropicalize_sample(
            [parse_diff_poly("x1[1,0]*x1[0,1] - x1[0,0]", ctx)], 1)
        built, validated = [], []
        new, trusted = SupportSet.__new__, SupportSet._trusted

        def counting_new(cls, *args, **kwargs):
            validated.append(new(cls, *args, **kwargs))
            return validated[-1]

        def counting_trusted(cls, *args):
            built.append(trusted(*args))
            return built[-1]

        monkeypatch.setattr(SupportSet, "__new__", counting_new)
        monkeypatch.setattr(SupportSet, "_trusted", classmethod(counting_trusted))
        sols = enumerate_solutions(sample, (3, 2), nvars=1)
        assert len(built) == len(sols) == 753 and validated == []
        assert ((1, 1),) in [s.explicit for (s,) in sols]

    def test_matches_bruteforce_scan(self):
        # the signature memo must give the plain scan's list, in its order
        rng = random.Random(53)
        boxes = {1: [(2,), (3,)], 2: [(1, 1), (2, 1), (1, 2)]}
        constant = TropPolynomial(1, 1, ((DiffMonomial.one(), VertexSet.unit(1)),))
        cases = [([], (2,), None, 1), ([], (1, 1), 2, 2), ([constant], (3,), None, 1)]
        for _ in range(60):
            m, n = rng.randint(1, 2), rng.randint(1, 2)
            box = rng.choice(boxes[m])
            max_points = rng.choice([None, 1, 2])
            polys = [rand_trop_poly(rng, m, n) for _ in range(rng.randint(1, 3))]
            cases.append((polys, box, max_points, n))
        # arity 3: eight grid points, so two variables take at most one each
        for _ in range(8):
            n = rng.randint(1, 2)
            max_points = rng.choice([None, 2]) if n == 1 else 1
            polys = [rand_trop_poly(rng, 3, n) for _ in range(rng.randint(1, 2))]
            cases.append((polys, (1, 1, 1), max_points, n))
        # derivative orders up to 3 put many J outside the box: empty restrictions
        for _ in range(15):
            m, n = rng.randint(1, 2), rng.randint(1, 2)
            box = rng.choice(boxes[m])
            polys = [rand_trop_poly(rng, m, n, order=3) for _ in range(rng.randint(1, 3))]
            cases.append((polys, box, rng.choice([None, 2]), n))
        # on [0,2]^2 many components share a minimal antichain per key, and
        # {(0,2),(1,1),(2,0)} and {(0,2),(2,0)} share their vertex set
        ctx = ParseContext(arity=2, nvars=1)
        for text in ("x1[0,0]^2 + t1*t2*x1[1,1] + x1[1,0]*x1[0,1]",
                     "x1[1,1]*x1[0,0] + x1[1,0]*x1[0,1]",
                     "t1*t2*x1[1,1] + x1[0,0] + t1^2*t2^2"):
            polys = [tropicalize(parse_diff_poly(text, ctx))]
            cases.append((polys, (2, 2), None, 1))
        found = 0
        for polys, box, max_points, n in cases:
            got = enumerate_solutions(polys, box, max_points, nvars=n)
            assert got == enumerate_bruteforce(polys, box, max_points, n), (polys, box)
            found += len(got)
        assert found > 100


class TestTropPolynomialType:
    def test_rejects_empty_coefficient(self):
        with pytest.raises(ValueError):
            TropPolynomial(2, 1, ((DiffMonomial.one(), VertexSet.empty(2)),))

    def test_merges_duplicate_monomials(self):
        mono = DiffMonomial.variable(1, (0, 0))
        tp = TropPolynomial(
            2, 1,
            ((mono, VertexSet(2, ((1, 4),))), (mono, VertexSet(2, ((4, 1),)))),
        )
        assert tp.terms == ((mono, VertexSet(2, ((1, 4), (4, 1)))),)
