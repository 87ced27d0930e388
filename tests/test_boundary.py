"""Non-integer lattice data and non-exact scalars are refused, never truncated.

Each rule has one owner: `as_point` for coordinates and derivative
indices, `as_count` for arities and variable counts (an int >= 1),
`as_natural` for derivative bounds, enumeration caps and series
precisions (an int >= 0), `as_axis` for the axis k of t_k (an int from 1
to the arity), `as_exponent` for the exponent of a series, Minkowski,
tropical or field power (an int >= 0), `DerivativeKey` for variable
numbers, `DiffMonomial` for monomial exponents, `FieldElement` for scalar
parts and `FieldSpec` for `d`.  Each row reaches that owner through a
different public entry point.  Values of different arities, variable
counts or fields are refused too, never combined.
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
    as_point,
    derivative_sample,
    enumerate_solutions,
    eval_monomial,
    is_solution,
    tropicalize_sample,
)

Q2 = FieldSpec(2)
ONE = PowerSeries.one(1)
X1 = DiffMonomial.variable(1, (0,))

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
    ("point-empty", lambda: as_point(()), ArityError),
    ("variable-axis-float", lambda: PowerSeries.variable(2, 1.5), ArityError),
    ("series-derive-axis-float", lambda: PowerSeries.variable(2, 1).derive(1.5), ArityError),
    ("poly-derive-axis-float", lambda: DiffPolynomial(2, 1).derive(1.5), ArityError),
    ("precision-float", lambda: PowerSeries(1, RATIONALS, (((0,), 1),), 1.5), ValueError),
    ("truncate-float", lambda: PowerSeries.one(1).truncate(1.5), ValueError),
    ("odot-power-float", lambda: VertexSet(1, [(1,)]).odot_power(1.5), ValueError),
    ("n-fold-float", lambda: SupportSet(1, [(1,)]).n_fold(1.5), ValueError),
    ("series-power-float", lambda: PowerSeries.one(1) ** 1.5, ValueError),
    ("field-power-float", lambda: RATIONALS(2) ** 1.5, ValueError),
    # mixed arities, variable counts and fields
    ("support-mixed-arity", lambda: SupportSet(1).union(SupportSet(2)), ArityError),
    ("vertex-mixed-arity", lambda: VertexSet(1).oplus(VertexSet(2)), ArityError),
    ("series-mixed-arity", lambda: PowerSeries(1) + PowerSeries(2), ArityError),
    ("series-mixed-field", lambda: PowerSeries(1) * PowerSeries(1, Q2), FieldError),
    ("poly-mixed-nvars", lambda: DiffPolynomial(1, 1) + DiffPolynomial(1, 2), ArityError),
    ("poly-mixed-field", lambda: DiffPolynomial(1, 1) * DiffPolynomial(1, 1, Q2), FieldError),
    ("key-var-out-of-range",
     lambda: DiffPolynomial(1, 1, RATIONALS, [(DiffMonomial.variable(2, (0,)), ONE)]),
     ArityError),
    ("key-index-arity", lambda: TropPolynomial(2, 1, [(X1, VertexSet.unit(2))]), ArityError),
    ("poly-coefficient-arity",
     lambda: DiffPolynomial(2, 1, RATIONALS, [(DiffMonomial.one(), ONE)]), ArityError),
    ("poly-coefficient-field", lambda: DiffPolynomial(1, 1, Q2, [(X1, ONE)]), FieldError),
    ("trop-coefficient-arity",
     lambda: TropPolynomial(2, 1, [(DiffMonomial.one(), VertexSet.unit(1))]), ArityError),
    ("trop-coefficient-empty", lambda: TropPolynomial(1, 1, [(X1, VertexSet(1))]), ValueError),
    ("evaluate-series-arity", lambda: DiffPolynomial(1, 1).evaluate([PowerSeries.one(2)]),
     ArityError),
    ("evaluate-series-field", lambda: DiffPolynomial(1, 1).evaluate([PowerSeries.one(1, Q2)]),
     FieldError),
    ("constants-from-a-series",
     lambda: DiffPolynomial(1, 1, RATIONALS, [(X1, PowerSeries.variable(1, 1))])
     .eval_at_constants(lambda var, index: RATIONALS.one), ValueError),
    ("monomial-arity-unknown", lambda: eval_monomial(DiffMonomial.one(), ()), ArityError),
    ("solution-support-count", lambda: is_solution(TropPolynomial(1, 2), [SupportSet(1)]),
     ArityError),
    ("enumerate-members-disagree",
     lambda: enumerate_solutions([TropPolynomial(2, 1)], (1,), nvars=1), ArityError),
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
