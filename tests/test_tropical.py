import random

import pytest

from tropdiff import ArityError, SupportSet, VertexSet

from gen import rand_support, rand_vertex_set
from oracles import grid_box


def V(m, *pts):
    return VertexSet(m, tuple(pts))


class TestConstruction:
    def test_canonicalized(self):
        v = V(2, (1, 4), (2, 3), (3, 3), (4, 1))
        assert v.points == ((1, 4), (4, 1))

    def test_fixed_point(self):
        rng = random.Random(11)
        for _ in range(100):
            v = rand_vertex_set(rng, rng.choice([1, 2, 3]))
            assert VertexSet(v.arity, v.points) == v

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            V(2, (1, 2, 3))

    def test_non_integer_points_refused(self):
        with pytest.raises(ArityError):
            VertexSet(2, [(0.9, 2.7)])


class TestOplus:
    def test_absorbs_segment_point(self):
        assert V(2, (1, 4), (4, 1)).oplus(V(2, (2, 3))) == V(2, (1, 4), (4, 1))

    def test_zero_element(self):
        s = V(2, (0, 2), (1, 0))
        assert VertexSet.empty(2).oplus(s) == s

    def test_idempotent(self):
        s = V(2, (0, 2), (1, 0))
        assert s.oplus(s) == s


class TestOdot:
    def test_square(self):
        s = V(2, (1, 0), (0, 1))
        assert s.odot(s) == V(2, (2, 0), (0, 2))

    def test_unit(self):
        s = V(2, (0, 2), (1, 1))
        assert VertexSet.unit(2).odot(s) == s

    def test_annihilator(self):
        s = V(2, (0, 2), (1, 1))
        assert VertexSet.empty(2).odot(s).is_empty


class TestOdotPower:
    def test_square(self):
        assert V(2, (1, 0), (0, 1)).odot_power(2) == V(2, (2, 0), (0, 2))

    def test_one(self):
        s = V(2, (3, 0), (0, 3))
        assert s.odot_power(1) == s

    def test_zero_is_unit(self):
        assert V(2, (3, 0)).odot_power(0) == VertexSet.unit(2)

    def test_matches_left_fold_of_odot(self):
        rng = random.Random(16)
        for m in (1, 2, 3):
            cases = [VertexSet.empty(m)] + [rand_vertex_set(rng, m) for _ in range(30)]
            for v in cases:
                fold = VertexSet.unit(m)
                for n in range(6):
                    assert v.odot_power(n) == fold, (v, n)
                    fold = fold.odot(v)


class TestSemiringAxioms:
    def test_random_triples(self):
        rng = random.Random(12)
        for _ in range(150):
            m = rng.choice([1, 2, 3])
            a, b, c = (rand_vertex_set(rng, m) for _ in range(3))
            zero, one = VertexSet.empty(m), VertexSet.unit(m)
            assert a.oplus(b) == b.oplus(a)
            assert a.odot(b) == b.odot(a)
            assert a.oplus(b.oplus(c)) == a.oplus(b).oplus(c)
            assert a.odot(b.odot(c)) == a.odot(b).odot(c)
            assert a.odot(b.oplus(c)) == a.odot(b).oplus(a.odot(c))
            assert a.oplus(zero) == a
            assert a.odot(one) == a
            assert a.odot(zero) == zero
            assert a.oplus(a) == a


class TestVertHomomorphism:
    def test_union_and_minkowski_laws(self):
        rng = random.Random(13)
        for _ in range(150):
            m = rng.choice([1, 2, 3])
            x = rand_support(rng, m)
            y = rand_support(rng, m)
            assert x.union(y).vertices() == x.vertices().oplus(y.vertices())
            assert x.minkowski(y).vertices() == x.vertices().odot(y.vertices())

    def test_four_way_equalities(self):
        # Vert(Vert(X) * Y) = Vert(X * Vert(Y)) = Vert(Vert(X) * Vert(Y)) = Vert(X * Y)
        rng = random.Random(14)
        for _ in range(100):
            m = rng.choice([1, 2])
            x = rand_support(rng, m)
            y = rand_support(rng, m)
            vx = SupportSet(m, x.vertices().points)
            vy = SupportSet(m, y.vertices().points)
            for op in (SupportSet.union, SupportSet.minkowski):
                full = op(x, y).vertices()
                assert op(vx, y).vertices() == full
                assert op(x, vy).vertices() == full
                assert op(vx, vy).vertices() == full

    def test_power_law(self):
        rng = random.Random(15)
        for _ in range(60):
            m = rng.choice([1, 2])
            x = rand_support(rng, m)
            for n in range(4):
                assert x.n_fold(n).vertices() == x.vertices().odot_power(n)


class TestNewtonPolygonEquivalence:
    def test_equal_vertices_iff_equal_grid_membership(self):
        from tropdiff import member_newton

        rng = random.Random(16)
        for _ in range(100):
            m = rng.choice([1, 2])
            x = SupportSet(m, tuple(rand_vertex_set(rng, m).points))
            # y: same polygon with padding points, or an unrelated set
            if rng.random() < 0.5 and not x.is_empty:
                extra = []
                for p in x.explicit:
                    extra.append(tuple(c + rng.randint(0, 2) for c in p))
                y = SupportSet(m, x.explicit + tuple(extra))
            else:
                y = SupportSet(m, tuple(rand_vertex_set(rng, m).points))
            same_vertices = x.vertices() == y.vertices()
            pts = x.explicit + y.explicit
            if not pts:
                assert same_vertices
                continue
            same_grid = all(
                member_newton(p, x.explicit) == member_newton(p, y.explicit)
                for p in grid_box(pts)
            )
            assert same_vertices == same_grid
