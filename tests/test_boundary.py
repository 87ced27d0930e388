"""Non-integer lattice data and non-exact scalars are refused, never truncated.

Each rule has one owner: `as_point` for coordinates and derivative
indices, `DerivativeKey` for variable numbers, `DiffMonomial` for
exponents, `FieldElement` for scalar parts and `FieldSpec` for `d`.  Each
row reaches that owner through a different public entry point.
"""

import pytest

from tropdiff import (
    RATIONALS,
    ArityError,
    DerivativeKey,
    DiffMonomial,
    FieldElement,
    FieldError,
    FieldSpec,
    PowerSeries,
    enumerate_solutions,
)

REFUSED = [
    ("index-float", lambda: DiffMonomial.variable(1, (1.5,)), ArityError),
    ("index-str", lambda: DiffMonomial.variable(1, ("2",)), ArityError),
    ("box-float", lambda: enumerate_solutions([], (1.7,), nvars=1), ArityError),
    ("var-float", lambda: DerivativeKey(1.0, (0,)), ArityError),
    ("exponent-float", lambda: DiffMonomial.variable(1, (0,), 1.5), ValueError),
    ("constant-float", lambda: PowerSeries.constant(1, 0.1), FieldError),
    ("field-call-float", lambda: RATIONALS(0.5), FieldError),
    ("element-float", lambda: FieldElement(RATIONALS, 0.5), FieldError),
    ("scalar-mul-float", lambda: PowerSeries.one(1).scalar_mul(0.5), FieldError),
    ("coefficient-str", lambda: PowerSeries(1, RATIONALS, (((0,), "1/3"),)), FieldError),
    ("d-float", lambda: FieldSpec(2.0), FieldError),
    ("d-str", lambda: FieldSpec("2"), FieldError),
]


@pytest.mark.parametrize(
    "build, error", [row[1:] for row in REFUSED], ids=[row[0] for row in REFUSED]
)
def test_refused(build, error):
    with pytest.raises(error):
        build()


def test_derivative_key_freezes_its_index():
    key = DerivativeKey(1, [0])
    assert key.index == (0,)
    assert hash(key) == hash(DerivativeKey(1, (0,)))
