"""E8 root data and Weyl orbits."""

import pytest

from e8jacobi.e8 import (FUNDAMENTAL_WEIGHTS, SIMPLE_ROOTS,
                         WEYL_GROUP_ORDER, d8_dominant, d8_representatives,
                         e8_vectors_of_norm, reflect)

from helpers import dot2, weyl_orbit


class TestRootData:
    def test_simple_roots_norm_two(self):
        for alpha in SIMPLE_ROOTS:
            assert dot2(alpha, alpha) == 2

    def test_duality(self):
        for i, lam in enumerate(FUNDAMENTAL_WEIGHTS):
            for j, alpha in enumerate(SIMPLE_ROOTS):
                assert dot2(lam, alpha) == (1 if i == j else 0)

    def test_reflection_involution(self):
        v = FUNDAMENTAL_WEIGHTS[3]
        for alpha in SIMPLE_ROOTS:
            assert reflect(reflect(v, alpha), alpha) == v


class TestLattice:
    def test_roots_enumeration(self):
        roots = e8_vectors_of_norm(2)
        assert len(roots) == 240
        assert len(e8_vectors_of_norm(1)) == 0
        assert len(e8_vectors_of_norm(3)) == 0
        assert len(e8_vectors_of_norm(4)) == 2160
        # closed under negation
        assert all(tuple(-x for x in v) in set(roots) for v in roots)

    def test_even_lattice(self):
        for norm in (2, 4):
            for v in e8_vectors_of_norm(norm):
                assert sum(x * x for x in v) == 4 * norm
                assert sum(v) % 4 == 0


class TestOrbits:
    def test_orbit_sizes(self):
        sizes = {1: 2160, 2: 17280, 7: 6720, 8: 240}
        for j, expected in sizes.items():
            orbit = weyl_orbit(j)
            assert len(orbit) == expected
            assert WEYL_GROUP_ORDER % len(orbit) == 0

    def test_orbit_of_highest_root_is_root_system(self):
        assert weyl_orbit(8) == tuple(e8_vectors_of_norm(2))

    def test_orbit_built_once_per_j(self):
        # exact integer data: one immutable tuple per j, kept
        orbit = weyl_orbit(7)
        assert type(orbit) is tuple
        assert weyl_orbit(7) is orbit

    def test_orbit_closed_under_reflections(self):
        orbit = set(weyl_orbit(7))
        for v in list(orbit)[::100]:
            for alpha in SIMPLE_ROOTS:
                assert reflect(v, alpha) in orbit

    def test_orbit_norm_constant(self):
        for j in (1, 7, 8):
            orbit = weyl_orbit(j)
            lam = FUNDAMENTAL_WEIGHTS[j - 1]
            n = dot2(lam, lam)
            assert all(dot2(v, v) == n for v in orbit)

    @pytest.mark.parametrize("j, norm", [(1, 4), (2, 8), (7, 6)])
    def test_orbit_is_lattice_shell(self, j, norm):
        # a reference built without reflections: the lattice vectors of
        # the weight's norm, less twice the roots at norm 8
        shell = set(e8_vectors_of_norm(norm))
        if norm == 8:
            shell -= {tuple(2 * x for x in r) for r in e8_vectors_of_norm(2)}
        assert weyl_orbit(j) == tuple(sorted(shell))

    @pytest.mark.parametrize("j", [1, 2, 7, 8])
    def test_matches_closure_under_reflect(self, j):
        # breadth-first closure under `reflect` in all eight simple roots
        start = FUNDAMENTAL_WEIGHTS[j - 1]
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for alpha in SIMPLE_ROOTS:
                    w = reflect(v, alpha)
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        assert weyl_orbit(j) == tuple(sorted(seen))


class TestD8Orbits:
    @pytest.mark.parametrize("j, count", [(8, 2), (1, 3), (7, 3), (2, 4)])
    def test_representatives_match_the_orbit(self, j, count):
        # the W(D8)-orbits into which the Weyl orbit splits, read off
        # the orbit itself
        reps = d8_representatives(j)
        assert len(reps) == count
        assert reps == tuple(sorted({d8_dominant(v) for v in weyl_orbit(j)}))

    def test_dominant_form_is_a_d8_invariant(self):
        # a permutation with an even sign change keeps the class, one
        # sign change more keeps it only when a coordinate is 0
        import random
        rng = random.Random(1)
        for v in weyl_orbit(2)[::97] + weyl_orbit(1)[::31]:
            d = d8_dominant(v)
            assert list(d[:7]) == sorted(map(abs, v), reverse=True)[:7]
            assert d[6] >= abs(d[7])
            w = list(v)
            rng.shuffle(w)
            i, k = rng.sample(range(8), 2)
            w[i], w[k] = -w[i], -w[k]
            assert d8_dominant(tuple(w)) == d
            w[i] = -w[i]
            assert (d8_dominant(tuple(w)) == d) == (0 in v)

    def test_representative_counts(self):
        assert [len(d8_representatives(j)) for j in range(1, 9)] == \
            [3, 4, 5, 8, 7, 5, 3, 2]
