"""Trusted construction: values valid by construction skip re-validation.

Each private `_trusted` constructor must give the value the public
constructor gives on the same input, and each value a trusted path builds
must come back unchanged through the public constructor.  `derive`, which
sums through the series normalizer and builds its result on trusted paths
only, is checked against `oracles.derive_validated`, which goes through the
public ones.  Field and series arithmetic, which build their results on
trusted paths too, are checked against the `Fraction`-pair references in
`oracles`, which share no code with them.
"""

import copy
import itertools
import pickle
import random
import sys
from fractions import Fraction

import pytest

from tropdiff import (
    DerivativeKey,
    DiffMonomial,
    DiffPolynomial,
    FieldElement,
    FieldSpec,
    ParseContext,
    PowerSeries,
    SupportSet,
    TropPolynomial,
    VertexSet,
    derivative_sample,
    is_solution,
    is_solution_system,
    parse_diff_poly,
    tropicalize,
)
from tropdiff.lattice import add, canon

from gen import (
    rand_diff_monomial,
    rand_diff_poly,
    rand_field_element,
    rand_fraction,
    rand_point,
    rand_points,
    rand_series,
    rand_support,
    rand_trop_poly,
    rand_vertex_set,
)
from oracles import derive_validated, pairs_add, pairs_mul, pairs_of, pairs_truncate

Q = FieldSpec()
Q2 = FieldSpec(2)


def shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return tuple(items)


def revalidated(v: VertexSet) -> VertexSet:
    return VertexSet(v.arity, v.points)


def test_field_element():
    rng = random.Random(91)
    for field in (Q, Q2):
        for _ in range(100):
            a = rand_fraction(rng)
            b = rand_fraction(rng) if field.d is not None else Fraction(0)
            c = FieldElement._trusted(field, a, b)
            assert c == field(a, b) and hash(c) == hash(field(a, b))
            for n in range(5):
                assert c._scaled(n) == c * n
            e = rand_field_element(rng, field)
            d = field.d or 0
            built = [
                (c + e, (a + e.a, b + e.b)),
                (c - e, (a - e.a, b - e.b)),
                (c - c, (0, 0)),
                (-c, (-a, -b)),
                (c * e, (a * e.a + d * b * e.b, a * e.b + b * e.a)),
            ]
            for got, (want_a, want_b) in built:
                assert (got.a, got.b) == (want_a, want_b)
                assert type(got.a) is type(got.b) is Fraction
                assert got == field(want_a, want_b) and hash(got) == hash(field(want_a, want_b))


def test_derivative_key():
    rng = random.Random(92)
    for m in (1, 2, 3):
        for _ in range(50):
            var, idx = rng.randint(1, 3), rand_point(rng, m, 4)
            key = DerivativeKey._trusted(var, idx)
            assert key == DerivativeKey(var, idx) and hash(key) == hash(DerivativeKey(var, idx))
            assert (key.var, key.index) == (var, idx)
            for k in range(1, m + 1):
                bumped = tuple(j + (i == k - 1) for i, j in enumerate(idx))
                assert key.bump(k) == DerivativeKey(var, bumped)
        keys = [DerivativeKey(rng.randint(1, 3), rand_point(rng, m, 4)) for _ in range(40)]
        assert [(k.var, k.index) for k in sorted(keys)] == sorted((k.var, k.index) for k in keys)
    key = DerivativeKey(1, (0,))
    assert repr(key) == str(key) == "DerivativeKey(var=1, index=(0,))"
    with pytest.raises(ValueError, match=r"^negative exponent on DerivativeKey\(var=1, index=\(0,\)\)$"):
        DiffMonomial(((key, -1),))
    with pytest.raises(AttributeError):
        key.var = 2
    assert copy.deepcopy(key) == pickle.loads(pickle.dumps(key)) == key
    # both rebuild through the validating __new__
    for rebuild in (copy.deepcopy, lambda k: pickle.loads(pickle.dumps(k))):
        with pytest.raises(ValueError, match="non-integer variable number"):
            rebuild(DerivativeKey._trusted(1.5, (0,)))


def test_diff_monomial():
    rng = random.Random(93)
    for m in (1, 2, 3):
        for _ in range(50):
            mono = rand_diff_monomial(rng, m, 2, order=2, max_keys=4, max_exp=3)
            raw = shuffled(rng, mono.exponents)
            assert DiffMonomial._trusted(mono.exponents) == DiffMonomial(raw)
            other = rand_diff_monomial(rng, m, 2, order=2, max_keys=4, max_exp=3)
            assert mono * other == DiffMonomial(raw + other.exponents)


def test_power_series():
    rng = random.Random(94)
    for m, field in itertools.product((1, 2, 3), (Q, Q2)):
        for _ in range(30):
            precision = rng.choice((None, 2, 4, 6))
            s = rand_series(rng, m, field, hi=3, kmax=5, precision=precision)
            trusted = PowerSeries._trusted(m, field, s.terms, s.precision)
            assert trusted == PowerSeries(m, field, shuffled(rng, s.terms), precision)
            for k in range(1, m + 1):
                d = s.derive(k)
                assert d == PowerSeries(m, field, d.terms, d.precision)
            c = rand_field_element(rng, field, nonzero=True)
            scaled = s.scalar_mul(c)
            assert scaled == PowerSeries(m, field, tuple((p, c * v) for p, v in s.terms),
                                         s.precision)
            t = rand_series(rng, m, field, hi=3, kmax=5, precision=rng.choice((None, 3, 5)))
            x, y = pairs_of(s), pairs_of(t)
            negated = tuple((p, (-a, -b)) for p, (a, b) in y[0]), y[1]
            n = rng.randint(0, 6)
            built = [
                (s + t, pairs_add(x, y)),
                (s - t, pairs_add(x, negated)),
                (t - t, ((), y[1])),
                (-t, negated),
                (s * t, pairs_mul(x, y, field.d)),
                (s.truncate(n), pairs_truncate(x, n)),
            ]
            for got, want in built:
                assert pairs_of(got) == want


def test_vertex_set():
    rng = random.Random(95)
    for m in (1, 2, 3):
        for _ in range(60):
            pts = rand_points(rng, m, 5, 8)
            raw = shuffled(rng, pts + pts[: rng.randint(0, len(pts))])
            want = VertexSet(m, pts)
            assert VertexSet._normal(m, raw) == want
            # _trusted keeps its points as they are, vertex set or not
            assert VertexSet._trusted(m, want.points) == want
            assert VertexSet._trusted(m, raw).points is raw


def test_support_set():
    rng = random.Random(101)
    for m in (1, 2, 3):
        for _ in range(60):
            s = rand_support(rng, m)
            trusted = SupportSet._trusted(m, s.explicit, s.cones)
            assert trusted == SupportSet(m, shuffled(rng, s.explicit), shuffled(rng, s.cones))
            # explicit points alone, canonical, are already in normal form
            pts = canon(rand_points(rng, m, 4, 6), m)
            assert SupportSet._trusted(m, pts, ()) == SupportSet(m, shuffled(rng, pts))


def test_vertex_set_operations():
    rng = random.Random(96)
    for m in (1, 2, 3):
        for _ in range(40):
            a, b = rand_vertex_set(rng, m, kmax=4), rand_vertex_set(rng, m, kmax=4)
            prod = a.odot(b)
            assert prod == revalidated(prod)
            if not (a.is_empty or b.is_empty):
                assert prod == VertexSet(m, [add(p, q) for p in a for q in b])
            assert a.oplus(b) == VertexSet(m, a.points + b.points)
            for n in range(1, 4):
                assert a.odot_power(n) == VertexSet(m, [tuple(n * c for c in p) for p in a])
            s = rand_support(rng, m)
            for shift in itertools.product(range(3), repeat=m):
                v = s.val(shift)
                assert v == revalidated(v)
            series = rand_series(rng, m, Q, kmax=5)
            assert series.trop() == VertexSet(m, [p for p, _ in series.terms])


def test_trop_polynomial_and_evaluation():
    rng = random.Random(97)
    for m, n in itertools.product((1, 2), (1, 2)):
        for _ in range(20):
            p = rand_diff_poly(rng, m, n, Q)
            tp = tropicalize(p)
            assert tp == TropPolynomial(m, n, tuple((mono, c.trop()) for mono, c in p.terms))
            tq = rand_trop_poly(rng, m, n)
            supports = tuple(rand_support(rng, m) for _ in range(n))
            ev = is_solution(tq, supports).evaluation
            assert ev == revalidated(ev)


def test_diff_polynomial():
    rng = random.Random(98)
    for m, n, field in itertools.product((1, 2), (1, 2), (Q, Q2)):
        for _ in range(20):
            p = rand_diff_poly(rng, m, n, field, max_terms=4)
            groups = {mono.exponents: [(c.terms, c.precision)]
                      for mono, c in shuffled(rng, p.terms)}
            trusted = DiffPolynomial._normal(m, n, field, groups)
            assert trusted == DiffPolynomial(m, n, field, shuffled(rng, p.terms))


def split(rng, coef: PowerSeries) -> list:
    """`coef` as one to three `(terms, precision)` parts, each in series normal form.

    Its terms are dealt out at random, and some coefficients are split into
    two nonzero summands that land in different parts.
    """
    pieces = [[] for _ in range(rng.randint(1, 3))]
    for p, c in coef.terms:
        summands = [c]
        a = rand_field_element(rng, coef.field, nonzero=True)
        if len(pieces) > 1 and a != c and rng.random() < 0.5:
            summands = [a, c - a]
        for piece, s in zip(rng.sample(pieces, len(summands)), summands):
            piece.append((p, s))
    return [(tuple(piece), coef.precision) for piece in pieces]


def test_diff_polynomial_normal_form_of_split_parts():
    # duplicate monomials from a pool of three, truncated coefficients, and
    # negated copies whose sums cancel; the expected coefficients are summed
    # by the Fraction-pair reference
    rng = random.Random(100)
    cancelled = 0
    for m, n, field in itertools.product((1, 2), (1, 2), (Q, Q2)):
        pool = [rand_diff_monomial(rng, m, n, order=2, max_keys=3) for _ in range(3)]
        for _ in range(40):
            terms, negated = [], set()
            for _ in range(rng.randint(0, 5)):
                mono = rng.choice(pool)
                coef = rand_series(rng, m, field, hi=3, kmax=4,
                                   precision=rng.choice((None, None, 1, 3, 5)))
                terms.append((mono, coef))
                if rng.random() < 0.3:
                    terms.append((mono, -coef))
                    negated.add(mono)
            groups: dict = {}
            for mono, coef in shuffled(rng, terms):
                groups.setdefault(mono.exponents, []).extend(split(rng, coef))
            for parts in groups.values():
                rng.shuffle(parts)
            got = DiffPolynomial._normal(m, n, field, groups)
            assert got == DiffPolynomial(m, n, field, shuffled(rng, terms))
            want: dict = {}
            for mono, coef in terms:
                want[mono] = pairs_add(want[mono], pairs_of(coef)) if mono in want \
                    else pairs_of(coef)
            assert {mono: pairs_of(c) for mono, c in got.terms} == {
                mono: x for mono, x in want.items() if x[0]}
            assert [mono.exponents for mono in got.monomials()] == sorted(
                mono.exponents for mono in got.monomials())
            cancelled += len(negated - set(got.monomials()))
    assert cancelled > 20


def cancelling(m: int, n: int, k: int, var: int, index, c: FieldElement) -> DiffPolynomial:
    """c*t_k*x_{var,J+e_k} - c*x_{var,J}: its derivative along k loses x_{var,J+e_k}."""
    field = c.field
    up = tuple(j + (i == k - 1) for i, j in enumerate(index))
    return DiffPolynomial(m, n, field, (
        (DiffMonomial.variable(var, up), PowerSeries.variable(m, k, field).scalar_mul(c)),
        (DiffMonomial.variable(var, index), PowerSeries.constant(m, -c, field)),
    ))


def test_derive_matches_validated_oracle():
    rng = random.Random(99)
    cases = 0
    for field, m, n in itertools.product((Q, Q2), (1, 2, 3), (1, 2)):
        for _ in range(8):
            terms = []
            for _ in range(rng.randint(1, 4)):
                mono = rand_diff_monomial(rng, m, n, order=2, max_keys=3, max_exp=3)
                precision = rng.choice((None, None, 1, 2, 3, 5))
                coef = rand_series(rng, m, field, hi=3, kmax=4, nonzero=True,
                                   precision=precision)
                if not coef.is_zero:
                    terms.append((mono, coef))
            p = DiffPolynomial(m, n, field, tuple(terms))
            k = rng.randint(1, m)
            pair = cancelling(m, n, k, rng.randint(1, n), rand_point(rng, m, 2),
                              rand_field_element(rng, field, nonzero=True))
            for q in (p, pair, p + pair, p * p):
                for axis in range(1, m + 1):
                    d = q.derive(axis)
                    assert d == derive_validated(q, axis)
                    assert d.derive(k) == derive_validated(d, k)
                    cases += 1
    assert cases > 500


def test_derive_drops_cancelled_monomials():
    for field in (Q, Q2):
        p = cancelling(2, 1, 1, 1, (0, 1), field(3))
        d = p.derive(1)
        assert d == derive_validated(p, 1)
        assert d.monomials() == (DiffMonomial.variable(1, (2, 1)),)


def test_derive_refuses_bad_axis():
    p = parse_diff_poly("x[1] - x[0]", ParseContext(arity=1, nvars=1))
    for k in (0, 2):
        with pytest.raises(ValueError):
            p.derive(k)


# The bundled order-two system over Q(sqrt 2), and the supports of its
# polynomial solution (t1^2 + sqrt2*t1*t2 + t2^2/2, 1 - sqrt2/2*t2 + ...).
BUNDLED = ("x1[1,0]^2 - 4*x1[0,0]", "x1[1,1]*x2[0,1] - x1[0,0] + 1", "x2[2,0] - x1[1,0]")
BUNDLED_SUPPORTS = (((2, 0), (1, 1), (0, 2)),
                    ((0, 0), (0, 1), (3, 0), (2, 1), (1, 2), (0, 3)))


def bundled_polys():
    ctx = ParseContext(arity=2, nvars=2, field=Q2)
    return [parse_diff_poly(text, ctx) for text in BUNDLED]


def test_sample_builds_nothing_through_validation(monkeypatch):
    polys = bundled_polys()
    calls = []
    for cls in (PowerSeries, DiffMonomial, DiffPolynomial):
        original = cls.__new__

        def counting(cls, *args, original=original, **kwargs):
            calls.append(cls.__name__)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", counting)
    sample = tuple(derivative_sample(polys, 2))
    assert len(sample) == 27 and calls == []
    DiffMonomial()  # the counter does count a validated construction
    assert calls == ["DiffMonomial"]


def test_monomial_products_build_nothing_through_validation(monkeypatch):
    # the parser's atoms (`DiffMonomial.variable`) validate, their products do not
    callers, products = [], []
    new, mul = DiffMonomial.__new__, DiffMonomial.__mul__

    def counting_new(cls, *args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return new(cls, *args, **kwargs)

    def counting_mul(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(DiffMonomial, "__new__", counting_new)
    monkeypatch.setattr(DiffMonomial, "__mul__", counting_mul)
    bundled_polys()
    assert products and "variable" in callers and "__mul__" not in callers


def test_ring_operations_build_nothing_through_validation(monkeypatch):
    p, q, r = bundled_polys()
    truncated = DiffPolynomial(2, 2, Q2, (
        (DiffMonomial.variable(1, (0, 1)), PowerSeries(2, Q2, (((0, 0), 2), ((1, 0), 3)), 3)),
        (DiffMonomial(), PowerSeries.one(2, Q2).truncate(2)),
    ))
    calls = []
    for cls in (PowerSeries, DiffPolynomial):
        original = cls.__new__

        def counting(cls, *args, original=original, **kwargs):
            calls.append(cls.__name__)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", counting)
    built = [p + q, p - q, q - q, -r, p * q, r * truncated, truncated + truncated,
             p.derive(1), truncated.derive(2), q.theta((1, 1)),
             r.taylor_coeff_poly((1, 0)), truncated.taylor_coeff_poly((0, 1))]
    assert calls == [] and built[2].is_zero and not built[-1].is_zero
    DiffPolynomial(2, 2, Q2)  # the counter does count a validated construction
    assert calls == ["DiffPolynomial"]


def test_check_evaluates_nothing_through_validation(monkeypatch):
    sample = [tropicalize(q) for q in derivative_sample(bundled_polys(), 2)]
    supports = tuple(SupportSet(2, pts) for pts in BUNDLED_SUPPORTS)
    calls = []
    original = VertexSet.__new__

    def counting(cls, *args, **kwargs):
        calls.append(original(cls, *args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(VertexSet, "__new__", counting)
    ok, reports = is_solution_system(sample, supports)
    assert ok and len(reports) == 27 and calls == []
    VertexSet.unit(2)  # the counter does count a validated construction
    assert len(calls) == 1
