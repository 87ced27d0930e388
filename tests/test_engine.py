"""The derivation engine against the validated one-derivation oracle.

`DiffPolynomial.derive`, `theta`, `derivative_sample` and
`tropicalize_sample` all run on integer numerators; each is checked here
against chains of `oracles.derive_validated`, which derives one validated
term at a time over `Fraction` coefficients, and against vertex sets built
through the validating `VertexSet` constructor.  The inputs mix Q and
Q(sqrt 2), exact and truncated coefficients, and non-unit denominators.
"""

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropdiff import (
    DerivativeKey,
    DiffMonomial,
    DiffPolynomial,
    FieldSpec,
    PowerSeries,
    PrecisionError,
    TropPolynomial,
    VertexSet,
    derivative_sample,
    tropicalize_sample,
)
from tropdiff import diffpoly
from tropdiff.diffpoly import MAX_SAMPLE_SIZE
from tropdiff.errors import SampleCapError

from oracles import derive_validated

Q, Q2 = FieldSpec(), FieldSpec(2)
BUDGET = settings(max_examples=40, deadline=None, derandomize=True)
FRACTIONS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def polys(draw, truncated=True):
    """A polynomial of arity 1-3 in 1-2 variables over Q or Q(sqrt 2)."""
    field = draw(st.sampled_from((Q, Q2)))
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 2))

    def point(hi):
        return tuple(draw(st.integers(0, hi)) for _ in range(m))

    terms = []
    for _ in range(draw(st.integers(0, 3))):
        mono = DiffMonomial((DerivativeKey(draw(st.integers(1, n)), point(2)),
                             draw(st.integers(1, 2)))
                            for _ in range(draw(st.integers(0, 2))))
        coef = [(point(3), field(draw(FRACTIONS), draw(FRACTIONS) if field.d else 0))
                for _ in range(draw(st.integers(1, 3)))]
        precision = draw(st.sampled_from((None, None, 1, 2, 4))) if truncated else None
        terms.append((mono, PowerSeries(m, field, coef, precision)))
    return DiffPolynomial(m, n, field, terms)


def chains(poly, bound):
    """theta(I)(poly) for ||I||_inf <= bound in product order, by validated derivations."""
    out = {}
    for idx in itertools.product(range(bound + 1), repeat=poly.arity):
        k = max((i for i, j in enumerate(idx) if j), default=None)
        if k is None:
            out[idx] = poly
        else:
            prev = idx[:k] + (idx[k] - 1,) + idx[k + 1:]
            out[idx] = derive_validated(out[prev], k + 1)
    return out


def trop_validated(poly):
    return TropPolynomial(poly.arity, poly.nvars, [
        (mono, VertexSet(poly.arity, [p for p, _ in coef.terms])) for mono, coef in poly.terms])


@BUDGET
@given(polys())
def test_derive_and_theta_match_validated_chains(p):
    for k in range(1, p.arity + 1):
        assert p.derive(k) == derive_validated(p, k)
    for idx, want in chains(p, 2).items():
        assert p.theta(idx) == want


@BUDGET
@given(polys(), st.integers(0, 2))
def test_sample_entries_match_validated_chains(p, bound):
    assert list(derivative_sample([p, p], bound)) == 2 * list(chains(p, bound).values())


@BUDGET
@given(polys(truncated=False), st.integers(0, 2))
def test_tropicalized_sample_matches_validated_chains(p, bound):
    want = tuple(trop_validated(q) for q in chains(p, bound).values())
    assert tropicalize_sample([p], bound) == want


@BUDGET
@given(polys(), st.integers(0, 2))
def test_truncated_coefficients_are_refused_and_the_cap_comes_first(p, bound):
    truncated = any(c.precision is not None for _, c in p.terms)
    if truncated:
        with pytest.raises(PrecisionError):
            tropicalize_sample([p], bound)
    over = [p] * (MAX_SAMPLE_SIZE // (bound + 1) ** p.arity + 1)
    with mock.patch.object(diffpoly, "_derive_form") as derive:
        with pytest.raises(SampleCapError):
            tropicalize_sample(over, bound)
        with pytest.raises(SampleCapError):
            next(derivative_sample(over, bound))
    assert not derive.called


@st.composite
def completions(draw):
    """A polynomial with two exact completions: random tails at degrees >= N on each O(t^N)."""
    p = draw(polys())

    def complete():
        terms = []
        for mono, coef in p.terms:
            tail = []
            if coef.precision is not None:
                for _ in range(draw(st.integers(0, 3))):
                    point = [draw(st.integers(0, 2)) for _ in range(p.arity)]
                    point[draw(st.integers(0, p.arity - 1))] += coef.precision
                    tail.append((tuple(point), p.field(draw(FRACTIONS),
                                                       draw(FRACTIONS) if p.field.d else 0)))
            terms.append((mono, PowerSeries(p.arity, p.field, coef.terms + tuple(tail))))
        return DiffPolynomial(p.arity, p.nvars, p.field, terms)

    return p, complete(), complete()


def assert_agrees_with_completions(p, full1, full2, bound):
    """Unknown is not zero: what the engine reports of theta(J)P is true of
    every exact completion of P, and a monomial on which two completions
    differ is kept as unknown, never reported absent."""
    exact1, exact2 = chains(full1, bound), chains(full2, bound)
    for idx, got in zip(exact1, derivative_sample([p], bound)):
        known = dict(got.terms)
        for mono in {m for q in (got, exact1[idx], exact2[idx]) for m in q.monomials()}:
            a, b = exact1[idx].coefficient(mono), exact2[idx].coefficient(mono)
            if a != b:
                assert mono in known and known[mono].precision is not None, (idx, mono)
            if mono not in known:
                assert a.is_zero and b.is_zero, (idx, mono)
                continue
            coef = known[mono]
            for full in (a, b):
                assert (full if coef.precision is None else full.truncate(coef.precision)) == coef


@BUDGET
@given(completions(), st.integers(0, 2))
def test_truncated_sample_agrees_with_both_completions(case, bound):
    assert_agrees_with_completions(*case, bound)


def test_a_sum_of_parts_keeps_the_least_precision():
    # theta(1) of a*x[0] + b*x[1] gives x[1] the parts a, of precision 4, and
    # b', of precision 1: the tail of b reaches t^1, so x[1] is known below 1 only
    def poly(a, b):
        return DiffPolynomial(1, 1, Q, [(DiffMonomial.variable(1, (0,)), a),
                                        (DiffMonomial.variable(1, (1,)), b)])

    a, b = (PowerSeries(1, Q, [((e,), Q(1)) for e in range(n)]) for n in (4, 2))

    def tail(n, c):  # terms at degrees >= n
        return PowerSeries(1, Q, [((n,), Q(c)), ((n + 3,), Q(1))])

    p = poly(a.truncate(4), b.truncate(2))
    assert_agrees_with_completions(p, poly(a + tail(4, 1), b + tail(2, 1)),
                                   poly(a + tail(4, 3), b + tail(2, 3)), 2)
