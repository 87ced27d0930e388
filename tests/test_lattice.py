import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropdiff import ArityError, as_point, member_newton, minimal_elements, vertices_of_finite

from gen import convex_position_set, rand_point, rand_points
from oracles import (
    grid_box,
    member_2d,
    member_newton_fraction,
    staircase_hull_2d,
    vertices_by_definition,
)

points_2d = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=0, max_size=8
)


def near_simplex(rng, m, c):
    """A point with coordinate sum c, raised by up to c/100 per coordinate."""
    cuts = sorted(rng.randint(0, c) for _ in range(m - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [c])]
    return tuple(x + rng.randint(0, c // 100) for x in parts)


class TestAsPoint:
    @pytest.mark.parametrize("bad", [(1.5,), (0.9, 2.7), ("2",), (1.0, 0), (Fraction(1),)])
    def test_non_integer_coordinates_refused(self, bad):
        with pytest.raises(ArityError):
            as_point(bad)

    @pytest.mark.parametrize("points", [[(1, 0)], []])
    def test_member_newton_query_point(self, points):
        with pytest.raises(ArityError):
            member_newton((1.5, 0), points)


class TestMemberNewton:
    def test_interior_combination(self):
        # (2,3) = 2/3*(1,4) + 1/3*(4,1)
        assert member_newton((2, 3), [(1, 4), (4, 1)]) is True

    def test_below_everything(self):
        assert member_newton((0, 0), [(1, 0)]) is False

    def test_dominated(self):
        assert member_newton((5, 2), [(1, 4), (4, 1)]) is True

    def test_empty_set(self):
        assert member_newton((3, 3), []) is False

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            member_newton((1, 2, 3), [(1, 2)])

    def test_against_planar_oracle(self):
        rng = random.Random(101)
        for _ in range(300):
            pts = rand_points(rng, 2, 8, 6)
            p = rand_point(rng, 2, 10)
            assert member_newton(p, pts) == member_2d(p, pts), (p, pts)


    def test_against_fraction_simplex_large_coordinates(self):
        # points near the hyperplane sum(x) = 10^6 and targets near a convex
        # combination of them: most cases reach the LP, with large pivots
        # and minors, and both verdicts occur.  In the last 150 cases the
        # points lie on sum(x) = 3, scaled by a multiple of the weights'
        # total, and the target is an exact combination of 2..m+1 of them:
        # ratios tie, and degenerate pivots hand over to Bland's rule
        rng = random.Random(2024)
        seen = {True: 0, False: 0}
        for case in range(450):
            exact = case >= 300
            m = rng.randint(1, 5)
            c = 3 if exact else 10**6
            pts = [near_simplex(rng, m, c) for _ in range(rng.randint(1, 25))]
            at = rng.sample(range(len(pts)), min(len(pts), rng.randint(2, m + 1)))
            weights = [rng.randint(1, 1000) for _ in at]
            total = sum(weights)
            if exact:
                scale = total * (10**6 // (c * total))
                pts = [tuple(scale * x for x in q) for q in pts]
            picks = [pts[i] for i in at]
            noise = 0 if exact else 10**4
            p = tuple(
                max(0, sum(w * q[k] for w, q in zip(weights, picks)) // total
                    + rng.randint(-noise, noise))
                for k in range(m)
            )
            got = member_newton(p, pts)
            assert got == member_newton_fraction(p, pts), (p, pts)
            seen[got] += 1
        assert min(seen.values()) >= 75, seen
        # the cases a shortcut once answered before the LP: queries that
        # dominate a column (the LP decides them), queries below every
        # column in one coordinate (the LP's coordinate test), and the empty
        # set and single columns
        for case in range(150):
            m = rng.randint(1, 5)
            kind = case % 3
            size = rng.randint(1, 25) if kind < 2 else case % 2
            pts = [near_simplex(rng, m, 10**6) for _ in range(size)]
            if kind == 0:
                p = tuple(x + rng.randint(0, 10**4) for x in rng.choice(pts))
            elif kind == 1:  # above every column but in coordinate k, or anywhere
                p = list(near_simplex(rng, m, 10**6)) if case % 2 else list(map(max, zip(*pts)))
                k = rng.randrange(m)
                p[k] = rng.randint(0, min(q[k] for q in pts) - 1)
            else:
                base = pts[0] if pts else near_simplex(rng, m, 10**6)
                p = tuple(max(0, x + rng.randint(-10**4, 10**4)) for x in base)
            got = member_newton(p, pts)
            assert got == member_newton_fraction(p, pts), (p, pts)
            # each kind is built as meant: N(pts) holds p iff p dominates
            dominated = any(all(a <= b for a, b in zip(q, p)) for q in pts)
            assert got is (kind != 1 and dominated), (p, pts)


class TestVerticesOfFinite:
    def test_staircase_fixture(self):
        assert vertices_of_finite([(1, 4), (2, 3), (3, 3), (4, 1)]) == ((1, 4), (4, 1))

    def test_singleton(self):
        assert vertices_of_finite([(0, 0)]) == ((0, 0),)

    def test_midpoint_dropped(self):
        assert vertices_of_finite([(2, 0), (1, 1), (0, 2)]) == ((0, 2), (2, 0))

    def test_empty(self):
        assert vertices_of_finite([]) == ()

    def test_definition_replay_m2(self):
        rng = random.Random(55)
        for _ in range(100):
            pts = rand_points(rng, 2, 7, 6)
            assert vertices_of_finite(pts) == vertices_by_definition(pts, member_2d)

    def test_definition_replay_m3_to_m5_large_coordinates(self):
        # staircase sets like the benchmark's: points in convex position on
        # sum(x) = c (the vertices), integral midpoints of pairs of them and
        # points dominating one of them, shuffled, coordinates up to 10^6.
        # Equal ratios abound, so degenerate pivots hand over to Bland's rule
        rng = random.Random(1977)
        for m, count, side, scale in [(3, 12, 12, 3000), (4, 12, 5, 20000),
                                      (5, 10, 3, 40000)] * 4:
            surface, pts = convex_position_set(rng, m, count, side, scale,
                                               midpoints=8, dominated=4)
            got = vertices_of_finite(pts)
            assert got == tuple(sorted(surface))
            assert got == vertices_by_definition(pts, member_newton_fraction)


class TestStaircaseHull:
    def test_staircase_fixture(self):
        assert staircase_hull_2d([(1, 4), (2, 3), (3, 3), (4, 1)]) == ((1, 4), (4, 1))

    def test_two_incomparable(self):
        assert staircase_hull_2d([(0, 5), (5, 0)]) == ((0, 5), (5, 0))

    def test_collinear_dropped(self):
        assert staircase_hull_2d([(1, 4), (2, 3), (4, 1)]) == ((1, 4), (4, 1))

    def test_arity_error(self):
        with pytest.raises(ArityError):
            staircase_hull_2d([(1, 2, 3)])


class TestInvariants:
    def test_domination_shortcut(self):
        rng = random.Random(7)
        for _ in range(500):
            m = rng.choice([1, 2, 3])
            pts = rand_points(rng, m, 6, 5, kmin=1)
            base = rng.choice(pts)
            p = tuple(b + rng.randint(0, 3) for b in base)
            assert member_newton(p, pts) is True

    @settings(max_examples=100, deadline=None)
    @given(points_2d)
    def test_antichain(self, pts):
        v = vertices_of_finite(pts)
        for a in v:
            for b in v:
                if a != b:
                    assert not all(x <= y for x, y in zip(a, b))

    @settings(max_examples=100, deadline=None)
    @given(points_2d)
    def test_idempotence(self, pts):
        v = vertices_of_finite(pts)
        assert vertices_of_finite(v) == v

    def test_newton_polygon_preserved_on_grid(self):
        rng = random.Random(23)
        cases = [(1, 5, 20), (2, 5, 20), (3, 3, 10)]
        for m, hi, reps in cases:
            for _ in range(reps):
                pts = rand_points(rng, m, hi, 4)
                v = vertices_of_finite(pts)
                for p in grid_box(pts):
                    assert member_newton(p, pts) == member_newton(p, v)

    def test_oracle_equivalence_m2(self):
        rng = random.Random(99)
        for _ in range(200):
            pts = rand_points(rng, 2, 10, 6)
            assert staircase_hull_2d(pts) == vertices_of_finite(pts)

    def test_minimal_elements_antichain(self):
        # an antichain of exactly the points with no other point below them,
        # and every input point lies above one of them
        def below(a, b):
            return a != b and all(x <= y for x, y in zip(a, b))

        rng = random.Random(3)
        for _ in range(200):
            m = rng.randint(1, 5)
            pts = rand_points(rng, m, 5, 12)
            mins = minimal_elements(pts)
            assert not any(below(a, b) for a in mins for b in mins)
            assert set(mins) == {p for p in pts if not any(below(q, p) for q in pts)}
            assert all(any(a == p or below(a, p) for a in mins) for p in pts)
