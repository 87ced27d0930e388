"""The exact series kernel against independent `Fraction`-pair arithmetic.

`PowerSeries` products, powers and derivatives run on integer forms over a
common denominator; `oracles.pairs_mul` and `oracles.pairs_theta` redo them
on `(a, b)` pairs of `Fraction`s and share no code with the package.  The
cases cover Q and Q(sqrt 2), non-unit denominators, exact and truncated
series, arity 1-3, and bases without a constant term.
"""

import random
from fractions import Fraction

import pytest

from tropdiff import FieldSpec, PowerSeries

from gen import rand_field_element, rand_point, rand_series
from oracles import pairs_mul, pairs_of, pairs_theta

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
