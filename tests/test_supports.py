import itertools
import random

import pytest

from tropdiff import (
    ArityError,
    SupportSet,
    VertexSet,
    member_newton,
    print_support,
)
from tropdiff.textio import support_to_json

from gen import rand_point, rand_series, rand_support
from oracles import grid_box, orthant_contained_box, vertices_by_surrogates


def S(m, explicit=(), cones=()):
    return SupportSet(m, tuple(explicit), tuple(cones))


class TestNormalize:
    def test_explicit_absorbed_by_cone(self):
        assert S(2, [(2, 2)], [(1, 1)]) == S(2, [], [(1, 1)])

    def test_non_integer_points_refused(self):
        for explicit, cones in [([(1.5,)], []), ([], [(0.5,)]), ([("2",)], [])]:
            with pytest.raises(ArityError):
                SupportSet(1, tuple(explicit), tuple(cones))

    def test_dedupe(self):
        got = SupportSet(2, ((0, 3), (0, 3)))
        assert got.explicit == ((0, 3),) and got.cones == ()

    def test_generator_dominated(self):
        got = S(2, [], [(1, 1), (2, 0), (2, 3)])
        assert got.cones == ((1, 1), (2, 0))

    def test_orthant_promotion(self):
        # explicit origin plus the two axis cones denote the full orthant
        assert S(2, [(0, 0)], [(1, 0), (0, 1)]) == S(2, [], [(0, 0)])

    def test_promotion_cascade(self):
        assert S(2, [(2, 0)], [(3, 0), (2, 1)]) == S(2, [], [(2, 0)])

    def test_gap_not_promoted(self):
        got = S(2, [(1, 0)], [(2, 0)])
        assert got.explicit == ((1, 0),) and got.cones == ((2, 0),)

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            S(2, [(1, 2, 3)])

    def test_promotion_cost_independent_of_coordinates(self):
        # the retired box scan visits about B^3 points here
        b = 10 ** 6
        cones = [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 2), (b, b, b, 0)]
        assert S(4, [(0, 0, 0, 1)], cones) == S(4, [], [(0, 0, 0, 1), (b, b, b, 0)])

    def test_promotion_matches_box_scan(self):
        # p's orthant lies in the set iff a generator of the normal form lies below p
        rng = random.Random(43)
        verdicts = {True: 0, False: 0}
        for _ in range(600):
            m = rng.randint(1, 3)
            p = rand_point(rng, m, 3)
            cones = []
            explicit = {rand_point(rng, m, 5) for _ in range(rng.randint(0, 3))}
            if rng.random() < 0.85:
                # axis cones leave a finite box above p uncovered; fill it
                # completely or with a gap, so both verdicts occur
                reach = [rng.randint(1, 3) for _ in range(m)]
                cones = [tuple(x + (reach[k] if i == k else 0) for i, x in enumerate(p))
                         for k in range(m)]
                cones += [rand_point(rng, m, 6) for _ in range(rng.randint(0, 2))]
                hole = [tuple(x + d for x, d in zip(p, ds))
                        for ds in itertools.product(*(range(r) for r in reach))]
                if rng.random() < 0.5:
                    hole.remove(rng.choice(hole))
                explicit.update(hole)
            gens = S(m, explicit, cones).cones
            got = any(all(a <= b for a, b in zip(g, p)) for g in gens)
            assert got == orthant_contained_box(p, explicit, cones), (p, explicit, cones)
            verdicts[got] += 1
        assert min(verdicts.values()) >= 150, verdicts


class TestUnion:
    def test_two_points(self):
        assert S(2, [(1, 0)]).union(S(2, [(0, 1)])) == S(2, [(1, 0), (0, 1)])

    def test_identity(self):
        s = S(2, [(1, 2)], [(3, 0)])
        assert s.union(SupportSet.empty(2)) == s

    def test_explicit_absorbed(self):
        assert S(2, [(0, 2)]).union(S(2, [], [(0, 1)])) == S(2, [], [(0, 1)])


class TestMinkowski:
    def test_square(self):
        x = S(2, [(1, 0), (0, 1)])
        assert x.minkowski(x) == S(2, [(2, 0), (1, 1), (0, 2)])

    def test_identity(self):
        s = S(2, [(1, 2)], [(0, 3)])
        assert s.minkowski(SupportSet.origin(2)) == s

    def test_cone_translated(self):
        assert S(2, [], [(1, 0)]).minkowski(S(2, [(0, 2)])) == S(2, [], [(1, 2)])

    def test_annihilator(self):
        s = S(2, [(1, 2)], [(0, 3)])
        assert s.minkowski(SupportSet.empty(2)).is_empty


class TestNFold:
    def test_zero_power_is_origin(self):
        assert S(2, [(5, 7)]).n_fold(0) == SupportSet.origin(2)

    def test_one(self):
        s = S(2, [(1, 0)], [(0, 2)])
        assert s.n_fold(1) == s

    def test_square(self):
        assert S(2, [(1, 0), (0, 1)]).n_fold(2) == S(2, [(2, 0), (1, 1), (0, 2)])


class TestTropDerivative:
    def test_points_shift_and_drop(self):
        got = S(2, [(2, 0), (1, 1), (0, 2)]).trop_derivative((1, 0))
        assert got == S(2, [(1, 0), (0, 1)])

    def test_zero_shift_identity(self):
        s = S(2, [(1, 2)], [(0, 3)])
        assert s.trop_derivative((0, 0)) == s

    def test_cone_clamped(self):
        assert S(2, [], [(2, 3)]).trop_derivative((3, 0)) == S(2, [], [(0, 3)])


class TestVertices:
    def test_staircase_fixture(self):
        got = S(2, [(1, 4), (2, 3), (3, 3), (4, 1)]).vertices()
        assert got == VertexSet(2, ((1, 4), (4, 1)))

    def test_empty(self):
        assert SupportSet.empty(2).vertices().is_empty

    def test_two_cones(self):
        got = S(2, [], [(0, 1), (1, 0)]).vertices()
        assert got == VertexSet(2, ((0, 1), (1, 0)))

    def test_cone_point_beats_explicit(self):
        got = S(2, [(0, 0)], [(1, 1)]).vertices()
        assert got == VertexSet(2, ((0, 0),))


class TestVal:
    def test_shifted_square(self):
        s = S(2, [(2, 0), (1, 1), (0, 2)])
        assert s.val((1, 0)) == VertexSet(2, ((1, 0), (0, 1)))

    def test_zero_index(self):
        s = S(2, [(1, 4), (2, 3), (4, 1)])
        assert s.val((0, 0)) == s.vertices()

    def test_everything_dropped(self):
        s = S(2, [(2, 0), (1, 1), (0, 2)])
        assert s.val((5, 5)).is_empty

    def test_matches_vertices_of_normalized_derivative(self):
        rng = random.Random(47)
        for _ in range(300):
            m = rng.randint(1, 4)
            s = rand_support(rng, m, hi=6, kmax=5, cone_prob=0.8)
            j = rand_point(rng, m, 4)
            assert s.val(j) == s.trop_derivative(j).vertices(), (s, j)


class TestValMemo:
    def test_memo_is_invisible(self):
        s = S(2, [(1, 4), (2, 3)], [(3, 1)])
        before = (hash(s), repr(s), print_support(s), support_to_json(s))
        s.val((1, 0))
        s.val((0, 2))
        fresh = S(2, [(1, 4), (2, 3)], [(3, 1)])
        assert s == fresh and fresh == s
        after = (hash(s), repr(s), print_support(s), support_to_json(s))
        assert after == before
        assert after == (hash(fresh), repr(fresh), print_support(fresh),
                         support_to_json(fresh))

    def test_list_and_tuple_shifts_agree(self):
        s = S(2, [(2, 0), (1, 1), (0, 2)])
        assert s.val([1, 0]) == s.val((1, 0)) == VertexSet(2, ((1, 0), (0, 1)))

    @pytest.mark.parametrize("bad", [(-1, 0), (0, -1), (1,), (1, 0, 0), ()])
    def test_invalid_shift_raises_on_every_call(self, bad):
        s = S(2, [(2, 0), (1, 1)], [(0, 3)])
        for _ in range(2):
            with pytest.raises(ArityError):
                s.val(bad)
            s.val((1, 0))
            s.val((0, 0))

    def test_float_shift_raises_and_stores_nothing(self):
        s = S(1, [(1,), (3,)])
        for _ in range(2):
            with pytest.raises(ArityError):
                s.val([1.5])
        assert s.val([1]) == VertexSet(1, ((0,),))
        with pytest.raises(ArityError):
            s.val([1.5])
        with pytest.raises(ArityError):
            s.val([1.0])


def _permuted(perm, points):
    return tuple(tuple(p[k] for k in perm) for p in points)


class TestPermutations:
    def test_vertices_and_val_commute_with_coordinate_permutations(self):
        rng = random.Random(59)
        for _ in range(200):
            m = rng.randint(1, 4)
            s = rand_support(rng, m, hi=5, kmax=5, cone_prob=0.8)
            perm = list(range(m))
            rng.shuffle(perm)
            t = S(m, _permuted(perm, s.explicit), _permuted(perm, s.cones))
            assert t.vertices() == VertexSet(m, _permuted(perm, s.vertices())), (s, perm)
            for _ in range(3):
                j = rand_point(rng, m, 3)
                (pj,) = _permuted(perm, (j,))
                assert t.val(pj) == VertexSet(m, _permuted(perm, s.val(j))), (s, perm, j)


class TestMember:
    def test_in_cone(self):
        assert S(2, [], [(1, 1)]).member((3, 3))

    def test_below(self):
        assert not S(2, [(1, 0)]).member((0, 0))

    def test_explicit_hit(self):
        assert S(2, [(1, 2)], [(4, 0)]).member((1, 2))


def _grid_equal(a: SupportSet, b: SupportSet, pad: int = 2) -> bool:
    pts = a.explicit + a.cones + b.explicit + b.cones
    if not pts:
        return a.is_empty == b.is_empty
    for p in grid_box(pts, pad):
        if a.member(p) != b.member(p):
            return False
    return True


class TestSemiringOnDenotedSets:
    def test_axioms_random(self):
        rng = random.Random(42)
        for _ in range(150):
            m = rng.choice([1, 2, 3])
            x, y, z = (rand_support(rng, m) for _ in range(3))
            empty = SupportSet.empty(m)
            origin = SupportSet.origin(m)
            assert x.union(y) == y.union(x)
            assert x.minkowski(y) == y.minkowski(x)
            assert x.union(y.union(z)) == x.union(y).union(z)
            assert x.minkowski(y.minkowski(z)) == x.minkowski(y).minkowski(z)
            assert x.minkowski(y.union(z)) == x.minkowski(y).union(x.minkowski(z))
            assert x.union(empty) == x
            assert x.minkowski(empty) == empty
            assert x.minkowski(origin) == x
            assert x.union(x) == x

    def test_normalization_preserves_denotation(self):
        rng = random.Random(71)
        for _ in range(200):
            m = rng.choice([1, 2, 3])
            raw_expl = [rand_point(rng, m, 5) for _ in range(rng.randint(0, 4))]
            raw_cones = [rand_point(rng, m, 5) for _ in range(rng.randint(0, 3))]
            s = SupportSet(m, tuple(raw_expl), tuple(raw_cones))

            def raw_member(p):
                return p in raw_expl or any(
                    all(g[k] <= p[k] for k in range(m)) for g in raw_cones
                )

            for p in grid_box(raw_expl + raw_cones or [(0,) * m], pad=2):
                assert s.member(p) == raw_member(p), (raw_expl, raw_cones, p)

    def test_normal_form_is_semantic(self):
        # equal denotations on a covering grid imply equal normal forms
        rng = random.Random(17)
        for _ in range(150):
            m = rng.choice([1, 2, 3])
            x = rand_support(rng, m)
            y = rand_support(rng, m)
            assert (x == y) == _grid_equal(x, y), (x, y)

    def test_derivative_composition(self):
        rng = random.Random(5)
        for _ in range(150):
            m = rng.choice([1, 2, 3])
            s = rand_support(rng, m)
            i = rand_point(rng, m, 2)
            j = rand_point(rng, m, 2)
            ij = tuple(a + b for a, b in zip(i, j))
            assert s.trop_derivative(j).trop_derivative(i) == s.trop_derivative(ij)

    def test_derivative_commutes_with_series_support(self):
        rng = random.Random(29)
        for _ in range(100):
            m = rng.choice([1, 2])
            phi = rand_series(rng, m, hi=3, kmax=4)
            j = rand_point(rng, m, 2)
            assert phi.theta(j).support() == phi.support().trop_derivative(j)

    def test_vertices_are_members_antichain_and_polygon_preserving(self):
        rng = random.Random(31)
        for _ in range(60):
            m = rng.choice([1, 2])
            s = rand_support(rng, m)
            v = s.vertices()
            for p in v.points:
                assert s.member(p)
            pts = s.explicit + s.cones
            for p in grid_box(pts):
                assert member_newton(p, pts) == member_newton(p, v.points)

    def test_vertices_match_surrogate_oracle(self):
        # the retired per-candidate LP with g+e_k surrogates for each cone
        rng = random.Random(37)
        for _ in range(300):
            m = rng.randint(1, 4)
            s = rand_support(rng, m, hi=8, kmax=6, cone_prob=0.8)
            expected = vertices_by_surrogates(m, s.explicit, s.cones)
            assert s.vertices().points == expected, s
