"""The exact series kernel against independent `Fraction`-pair arithmetic.

`PowerSeries` products, powers and derivatives run on integer forms over a
common denominator, and so do the ring operations of `DiffPolynomial` on
their coefficients; `oracles.pairs_add`, `pairs_mul` and `pairs_theta`
redo them on `(a, b)` pairs of `Fraction`s and share no code with the
package.  The cases cover Q and Q(sqrt 2), non-unit denominators, exact and
truncated series, arity 1-3, bases without a constant term, and sums and
products whose terms cancel.
"""

import random
from fractions import Fraction

import pytest

from tropdiff import DiffPolynomial, FieldSpec, PowerSeries

from gen import rand_diff_monomial, rand_field_element, rand_point, rand_series
from oracles import pairs_add, pairs_mul, pairs_of, pairs_theta

Q = FieldSpec()
Q2 = FieldSpec(2)
FIELDS = pytest.mark.parametrize("field", [Q, Q2], ids=["Q", "Q2"])
PRECISION_IDS = {"ids": lambda p: f"precision={p}"}


@FIELDS
@pytest.mark.parametrize("precision", [None, 0, 3, 6], **PRECISION_IDS)
def test_theta_against_pairs(field, precision):
    rng = random.Random(41)
    denominators = set()
    for m in (1, 2, 3):
        for _ in range(40):
            s = rand_series(rng, m, field, hi=5, kmax=6, precision=precision)
            j = rand_point(rng, m, 3)
            x = pairs_of(s)
            denominators.update(v.denominator for _, ab in x[0] for v in ab)
            assert pairs_of(s.theta(j)) == pairs_theta(x, j)
    assert precision == 0 or max(denominators) > 1


def dense_base(rng: random.Random, m: int, field: FieldSpec, g0: bool,
               precision: int | None) -> PowerSeries:
    """a + b*t1 + c*t2 (a + b*t1 in arity 1) with b, c != 0, and a = 0 unless `g0`."""
    units = [(0,) * m] + [tuple(int(i == k) for i in range(m)) for k in range(min(m, 2))]
    coefs = [rand_field_element(rng, field, nonzero=True) for _ in units]
    if not g0:
        coefs[0] = field.zero
    return PowerSeries(m, field, zip(units, coefs), precision)


POWERS = {0, 1, 2, 3, 5, 8, 13, 16, 31, 40}


@FIELDS
@pytest.mark.parametrize("g0", [True, False], ids=["g0!=0", "g0=0"])
@pytest.mark.parametrize("precision", [None, 7], **PRECISION_IDS)
def test_dense_powers_against_chained_pairs_mul(field, g0, precision):
    rng = random.Random(42)
    for m in (1, 2, 3):
        g = dense_base(rng, m, field, g0, precision)
        x = pairs_of(g)
        want = ((((0,) * m, (Fraction(1), Fraction(0))),), None)
        for n in range(max(POWERS) + 1):
            if n in POWERS:
                assert pairs_of(g ** n) == want, (m, n)
            want = pairs_mul(want, x, field.d)



def pairs_poly(poly: DiffPolynomial) -> list:
    """A polynomial's terms as (monomial exponents, pairs of its coefficient), in order."""
    return [(mono.exponents, pairs_of(coef)) for mono, coef in poly.terms]


def pairs_neg(x: tuple) -> tuple:
    return tuple((p, (-a, -b)) for p, (a, b) in x[0]), x[1]


def normal_terms(polys: dict) -> list:
    """{exponents: pairs} as sorted terms, without exact zero coefficients."""
    return sorted((e, x) for e, x in polys.items() if x != ((), None))


def monomial_product(e: tuple, f: tuple) -> tuple:
    """The exponents of a monomial product: exponents of equal keys add."""
    acc = dict(e)
    for key, n in f:
        acc[key] = acc.get(key, 0) + n
    return tuple(sorted(acc.items()))


def rand_ring_poly(rng: random.Random, m: int, field: FieldSpec, cancel=()) -> DiffPolynomial:
    """A polynomial in two variables with exact or truncated coefficients.

    Its terms are drawn from a small pool of monomials, so sums and products
    meet equal monomials, and it holds the negation of each term of `cancel`.
    """
    terms = [(rand_diff_monomial(rng, m, 2), rand_series(
        rng, m, field, hi=2, kmax=3, precision=rng.choice([None, None, 2, 4])))
        for _ in range(rng.randint(0, 4))]
    terms += [(mono, -coef) for mono, coef in cancel]
    return DiffPolynomial(m, 2, field, terms)


@FIELDS
def test_ring_operations_against_pairs(field):
    rng = random.Random(43)
    zero = ((), None)
    cancelled = 0
    for m in (1, 2, 3):
        for _ in range(60):
            p = rand_ring_poly(rng, m, field)
            q = rand_ring_poly(rng, m, field, rng.sample(p.terms, rng.randint(0, len(p.terms))))
            x, y = dict(pairs_poly(p)), dict(pairs_poly(q))
            neg_y = {e: pairs_neg(c) for e, c in y.items()}
            added = {e: pairs_add(x.get(e, zero), y.get(e, zero)) for e in x.keys() | y.keys()}
            subtracted = {e: pairs_add(x.get(e, zero), neg_y.get(e, zero))
                          for e in x.keys() | y.keys()}
            multiplied: dict = {}
            for e, c in x.items():
                for f, g in y.items():
                    ef = monomial_product(e, f)
                    multiplied[ef] = pairs_add(multiplied.get(ef, zero), pairs_mul(c, g, field.d))
            assert pairs_poly(p + q) == normal_terms(added)
            assert pairs_poly(p - q) == normal_terms(subtracted)
            assert pairs_poly(-q) == normal_terms(neg_y)
            assert pairs_poly(p * q) == normal_terms(multiplied)
            cancelled += len(normal_terms(added)) < len(added)
    assert cancelled > 0
