"""The value contract shared by every immutable value type.

Values are tuples of their fields underneath; to a caller they keep the
behaviour of frozen records: keyword and positional construction with
defaults, a `Class(field=...)` repr, equality and hashing by fields within
their class, immutability, pickle and copy round-trips, and no sequence
protocol (`VertexSet` alone is iterable and sized over its points).
"""

import copy
import operator
import pickle
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
    SolutionReport,
    SupportSet,
    TropPolynomial,
    VertexSet,
)

Q = FieldSpec()
Q2 = FieldSpec(2)
KEY = DerivativeKey(1, (0,))
X1 = DiffMonomial(((KEY, 1),))
ONE = PowerSeries.one(1)

# (class, positional args, the same value by keywords, its repr as a frozen
# dataclass printed it); each class has a row that leaves every default out.
CASES = [
    (FieldSpec, (), {"d": None}, "FieldSpec(d=None)"),
    (FieldSpec, (2,), {"d": 2}, "FieldSpec(d=2)"),
    (FieldElement, (Q, 3), {"field": Q, "a": 3, "b": 0},
     "FieldElement(field=FieldSpec(d=None), a=Fraction(3, 1), b=Fraction(0, 1))"),
    (FieldElement, (Q2, 1, Fraction(1, 2)), {"field": Q2, "a": 1, "b": Fraction(1, 2)},
     "FieldElement(field=FieldSpec(d=2), a=Fraction(1, 1), b=Fraction(1, 2))"),
    (PowerSeries, (1,), {"arity": 1, "field": Q, "terms": (), "precision": None},
     "PowerSeries(arity=1, field=FieldSpec(d=None), terms=(), precision=None)"),
    (PowerSeries, (2, Q, (((1, 0), 2),), 3),
     {"arity": 2, "field": Q, "terms": (((1, 0), 2),), "precision": 3},
     "PowerSeries(arity=2, field=FieldSpec(d=None), terms=(((1, 0), FieldElement("
     "field=FieldSpec(d=None), a=Fraction(2, 1), b=Fraction(0, 1))),), precision=3)"),
    (DiffMonomial, (), {"exponents": ()}, "DiffMonomial(exponents=())"),
    (DiffMonomial, (((KEY, 2),),), {"exponents": ((KEY, 2),)},
     "DiffMonomial(exponents=((DerivativeKey(var=1, index=(0,)), 2),))"),
    (DiffPolynomial, (1, 1), {"arity": 1, "nvars": 1, "field": Q, "terms": ()},
     "DiffPolynomial(arity=1, nvars=1, field=FieldSpec(d=None), terms=())"),
    (DiffPolynomial, (1, 1, Q, ((X1, ONE),)),
     {"arity": 1, "nvars": 1, "field": Q, "terms": ((X1, ONE),)},
     "DiffPolynomial(arity=1, nvars=1, field=FieldSpec(d=None), terms=((DiffMonomial("
     "exponents=((DerivativeKey(var=1, index=(0,)), 1),)), PowerSeries(arity=1, "
     "field=FieldSpec(d=None), terms=(((0,), FieldElement(field=FieldSpec(d=None), "
     "a=Fraction(1, 1), b=Fraction(0, 1))),), precision=None)),))"),
    (VertexSet, (1,), {"arity": 1, "points": ()}, "VertexSet(arity=1, points=())"),
    (VertexSet, (2, [(1, 4), (4, 1), (2, 3)]), {"arity": 2, "points": [(4, 1), (1, 4)]},
     "VertexSet(arity=2, points=((1, 4), (4, 1)))"),
    (SupportSet, (1,), {"arity": 1, "explicit": (), "cones": ()},
     "SupportSet(arity=1, explicit=(), cones=())"),
    (SupportSet, (2, [(1, 1), (3, 3)], [(2, 0)]),
     {"arity": 2, "explicit": [(1, 1)], "cones": [(2, 0)]},
     "SupportSet(arity=2, explicit=((1, 1),), cones=((2, 0),))"),
    (TropPolynomial, (1, 1), {"arity": 1, "nvars": 1, "terms": ()},
     "TropPolynomial(arity=1, nvars=1, terms=())"),
    (TropPolynomial, (1, 1, ((DiffMonomial(), VertexSet.unit(1)),)),
     {"arity": 1, "nvars": 1, "terms": ((DiffMonomial(), VertexSet.unit(1)),)},
     "TropPolynomial(arity=1, nvars=1, terms=((DiffMonomial(exponents=()), "
     "VertexSet(arity=1, points=((0,),))),))"),
    (SolutionReport, (VertexSet(1), (((0,), (0, 1)),), True),
     {"evaluation": VertexSet(1), "witnesses": (((0,), (0, 1)),), "solution": True},
     "SolutionReport(evaluation=VertexSet(arity=1, points=()), "
     "witnesses=(((0,), (0, 1)),), solution=True)"),
    (ParseContext, (2,), {"arity": 2, "nvars": 1, "field": Q},
     "ParseContext(arity=2, nvars=1, field=FieldSpec(d=None))"),
    (ParseContext, (2, 3, Q2), {"arity": 2, "nvars": 3, "field": Q2},
     "ParseContext(arity=2, nvars=3, field=FieldSpec(d=2))"),
]

VALUES = [cls(*args) for cls, args, _, _ in CASES]
IDS = [f"{type(v).__name__}-{i}" for i, v in enumerate(VALUES)]


def test_every_value_type_is_covered():
    assert {type(v).__name__ for v in VALUES} == {
        "FieldSpec", "FieldElement", "PowerSeries", "DiffMonomial", "DiffPolynomial",
        "VertexSet", "SupportSet", "TropPolynomial", "SolutionReport", "ParseContext"}


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_construction_and_repr(cls, args, kwargs, text):
    v = cls(*args)
    assert v == cls(**kwargs) and type(v) is cls
    assert repr(v) == text


def fields(v):
    return tuple(getattr(v, name) for name in type(v)._fields)


@pytest.mark.parametrize("v", VALUES, ids=IDS)
def test_equality_and_hash_by_fields_within_the_class(v):
    twin = type(v)(*fields(v))
    assert v == twin and not v != twin and hash(v) == hash(twin)
    # a frozen dataclass hashes the tuple of its fields, and equals nothing else
    assert hash(v) == hash(fields(v))
    assert v != fields(v) and not v == fields(v) and fields(v) != v
    assert all(v != w for w in VALUES if type(w) is not type(v))


@pytest.mark.parametrize("v", VALUES, ids=IDS)
def test_pickle_and_copy_round_trip(v):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(v, protocol))
        assert back == v and type(back) is type(v)
    for back in (copy.copy(v), copy.deepcopy(v)):
        assert back == v and type(back) is type(v) and repr(back) == repr(v)


@pytest.mark.parametrize("v", VALUES, ids=IDS)
def test_immutable(v):
    name = type(v)._fields[0]
    before = repr(v)
    with pytest.raises(AttributeError):
        setattr(v, name, None)
    with pytest.raises(AttributeError):
        v.extra = 1
    assert repr(v) == before


# The operators each class defines itself; the others must not fall back
# to tuple concatenation or repetition.
OWN_OPERATORS = {FieldElement: "+*", PowerSeries: "+*", DiffPolynomial: "+*", DiffMonomial: "*"}


@pytest.mark.parametrize("v", VALUES, ids=IDS)
def test_no_sequence_protocol(v):
    own = OWN_OPERATORS.get(type(v), "")
    refused = [operator.getitem, operator.lt, operator.le, operator.gt, operator.ge,
               lambda a, b: () + a, lambda a, b: (1,) * a, lambda a, b: (0,) + a]
    if type(v) is not VertexSet:
        refused += [lambda a, b: len(a), lambda a, b: iter(a), lambda a, b: 0 in a,
                    lambda a, b: [*a]]
    if "+" not in own:
        refused += [operator.add, lambda a, b: a + ()]
    if "*" not in own:
        refused += [lambda a, b: a * 2]
    if type(v) is not FieldElement:  # 2 * element is a field product
        refused += [lambda a, b: 2 * a]
    for op in refused:
        with pytest.raises(TypeError):
            op(v, 0 if op is operator.getitem else v)
    if type(v) is not VertexSet:
        assert bool(v) is True


def test_vertex_set_is_a_collection_of_its_points():
    v = VertexSet(2, [(1, 4), (2, 3), (4, 1)])
    assert list(v) == [(1, 4), (4, 1)] and len(v) == 2
    assert (1, 4) in v and (2, 3) not in v and 2 not in v and v.arity == 2
    assert v and not VertexSet(2)
    for back in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v)):
        assert list(back) == list(v)
