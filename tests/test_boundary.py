"""Non-integer lattice data and non-exact scalars are refused, never truncated.

Each rule has one owner: `as_point` for coordinates and derivative
indices, `as_count` for arities and variable counts (an int >= 1),
`as_natural` for derivative bounds and enumeration caps (an int >= 0),
`DerivativeKey` for variable numbers, `DiffMonomial` for exponents,
`FieldElement` for scalar parts and `FieldSpec` for `d`.  Each row reaches
that owner through a different public entry point.
"""

import pytest

from tropdiff import (
    RATIONALS,
    ArityError,
    DerivativeKey,
    DiffMonomial,
    DiffPolynomial,
    FieldElement,
    FieldError,
    FieldSpec,
    ParseContext,
    PowerSeries,
    SupportSet,
    TropPolynomial,
    VertexSet,
    derivative_sample,
    enumerate_solutions,
    eval_monomial,
    tropicalize_sample,
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
    ("support-arity-float", lambda: SupportSet(1.5), ArityError),
    ("support-arity-str", lambda: SupportSet("2"), ArityError),
    ("vertex-arity-float", lambda: VertexSet(2.0, [(1, 2)]), ArityError),
    ("series-arity-float", lambda: PowerSeries(2.5), ArityError),
    ("context-arity-float", lambda: ParseContext(arity=1.5), ArityError),
    ("poly-arity-zero", lambda: DiffPolynomial(0, 1), ArityError),
    ("trop-arity-zero", lambda: TropPolynomial(0, 1), ArityError),
    ("poly-nvars-float", lambda: DiffPolynomial(2, 1.5), ArityError),
    ("trop-nvars-float", lambda: TropPolynomial(1, 2.5), ArityError),
    ("monomial-arity-float", lambda: eval_monomial(DiffMonomial.one(), (), arity=1.5),
     ArityError),
    ("enumerate-nvars-zero", lambda: enumerate_solutions([], (1,), nvars=0), ArityError),
    ("enumerate-nvars-float", lambda: enumerate_solutions([], (1,), nvars=1.5), ArityError),
    ("sample-bound-float", lambda: tropicalize_sample([], 1.5), ValueError),
    ("derivative-bound-float", lambda: list(derivative_sample([DiffPolynomial(1, 1)], 1.5)),
     ValueError),
    ("max-points-float", lambda: enumerate_solutions([], (1,), 1.5, nvars=1), ValueError),
    ("max-candidates-float",
     lambda: enumerate_solutions([], (1,), nvars=1, max_candidates=10.5), ValueError),
]


@pytest.mark.parametrize(
    "build, error", [row[1:] for row in REFUSED], ids=[row[0] for row in REFUSED]
)
def test_refused(build, error):
    with pytest.raises(error):
        build()


def test_dimension_messages():
    with pytest.raises(ArityError, match=r"^non-integer arity 1\.5$"):
        SupportSet(1.5)
    with pytest.raises(ArityError, match=r"^arity must be >= 1, got 0$"):
        ParseContext(arity=0)
    with pytest.raises(ArityError, match=r"^nvars must be >= 1, got 0$"):
        ParseContext(arity=1, nvars=0)


def test_a_bool_arity_is_an_int():
    # as `as_point` accepts bool coordinates, `as_count` accepts a bool arity
    v = VertexSet(True, [(1,)])
    assert v == VertexSet(1, [(1,)]) and type(v.arity) is int


def test_derivative_key_freezes_its_index():
    key = DerivativeKey(1, [0])
    assert key.index == (0,)
    assert hash(key) == hash(DerivativeKey(1, (0,)))
