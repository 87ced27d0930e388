"""The one power routine against the retired n-step loop.

`field.power` squares and multiplies; `oracles.power_repeated` multiplies
by the base n times.  Every product here is exact and associative, so the
two agree value for value, down to the precision of a truncated series.
"""

import random

import pytest

from tropdiff import (
    DiffPolynomial,
    FieldElement,
    FieldSpec,
    ParseContext,
    PowerSeries,
    SupportSet,
    parse_diff_poly,
    print_diff_poly,
)
from tropdiff.field import power

from gen import rand_diff_poly, rand_field_element, rand_series, rand_support
from oracles import power_repeated

Q = FieldSpec()
Q2 = FieldSpec(2)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 100, 2**20 + 5])
def test_products_grow_with_the_bit_length(n):
    calls = []

    def mul(a, b):
        calls.append(None)
        return a * b

    assert power(3, n, 1, mul) == 3 ** n
    # one squaring per bit after the leading one, one product per further set bit
    assert len(calls) == max(n.bit_length() + bin(n).count("1") - 2, 0)


@pytest.mark.parametrize("field", [Q, Q2], ids=["Q", "Q2"])
def test_field_element_powers(field):
    rng = random.Random(11)
    for _ in range(40):
        x = rand_field_element(rng, field, nonzero=True)
        for n in range(-4, 10):
            want = power_repeated(x, abs(n), field.one, FieldElement.__mul__)
            if n >= 0:
                assert power(x, n, field.one, FieldElement.__mul__) == want
            else:
                want = field.one / want
            assert x ** n == want


@pytest.mark.parametrize("precision", [None, 0, 2, 5], ids=lambda p: f"precision={p}")
def test_series_powers(precision):
    rng = random.Random(12)
    for _ in range(20):
        m = rng.randint(1, 2)
        field = rng.choice([Q, Q2])
        s = rand_series(rng, m, field, hi=2, kmax=3, precision=precision)
        for n in range(7):
            got = s ** n
            want = power_repeated(s, n, PowerSeries.one(m, field), PowerSeries.__mul__)
            assert (got.terms, got.precision) == (want.terms, want.precision)


def test_support_n_fold():
    rng = random.Random(13)
    for _ in range(30):
        m = rng.randint(1, 3)
        for s in (rand_support(rng, m, hi=3, cone_prob=0.7), SupportSet.empty(m)):
            for n in range(6):
                want = power_repeated(s, n, SupportSet.origin(m), SupportSet.minkowski)
                assert s.n_fold(n) == want


def test_negative_exponents_keep_their_errors():
    with pytest.raises(ValueError, match="series powers require n >= 0"):
        PowerSeries.one(1) ** -1
    with pytest.raises(ValueError, match="Minkowski powers require n >= 0"):
        SupportSet.origin(1).n_fold(-1)
    with pytest.raises(ZeroDivisionError):
        Q.zero ** -2


def test_dsl_power_is_the_repeated_product():
    rng = random.Random(14)
    for _ in range(20):
        m, nvars = rng.randint(1, 2), rng.randint(1, 2)
        field = rng.choice([Q, Q2])
        ctx = ParseContext(arity=m, nvars=nvars, field=field)
        p = rand_diff_poly(rng, m, nvars, field, max_terms=2)
        text = print_diff_poly(p)
        for n in range(5):
            product = "*".join([f"({text})"] * n) or "1"
            want = parse_diff_poly(product, ctx)
            assert parse_diff_poly(f"({text})^{n}", ctx) == want
            assert want == power_repeated(p, n, parse_diff_poly("1", ctx),
                                          DiffPolynomial.__mul__)
