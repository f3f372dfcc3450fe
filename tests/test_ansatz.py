"""Monomial enumeration and ansatz construction."""

import itertools

from e8jacobi.ansatz import _monomials, build_ansatz, enumerate_monomials
from e8jacobi.grading import AB, BiDegree, S_ALPHABET, ab

from helpers import enumerate_monomials_reference


def brute_force_monomials(alphabet, target):
    """Independent enumeration: bounded exponent boxes, exact filter.  Each
    index generator is capped by the index; E4 and E6 (index 0, weights 4
    and 6) are capped by the weight left after the index generators."""
    if target.index < 0:
        return []
    width = len(alphabet)
    index_pos = [i for i, d in enumerate(alphabet.degrees) if d.index > 0]
    free_pos = [i for i, d in enumerate(alphabet.degrees) if d.index == 0]
    out = []
    for part in itertools.product(*(
            range(target.index // alphabet.degrees[i].index + 1)
            for i in index_pos)):
        exps = [0] * width
        for i, e in zip(index_pos, part):
            exps[i] = e
        deg = alphabet.monomial_degree(exps)
        if deg.index != target.index:
            continue
        left = target.weight - deg.weight
        for free in itertools.product(*(
                range(left // alphabet.degrees[i].weight + 1)
                for i in free_pos)):
            for i, e in zip(free_pos, free):
                exps[i] = e
            if alphabet.monomial_degree(exps) == target:
                out.append(tuple(exps))
    return sorted(out, reverse=True)


class TestEnumeration:
    def test_known_counts(self):
        assert len(enumerate_monomials(ab, BiDegree(-16, 5))) == 6
        assert len(enumerate_monomials(ab, BiDegree(-26, 7))) == 13
        assert enumerate_monomials(S_ALPHABET, BiDegree(8, 0)) == []
        assert enumerate_monomials(ab, BiDegree(0, 0)) == \
            [(0,) * len(ab)]
        assert enumerate_monomials(ab, BiDegree(3, 2)) == []

    def test_matches_brute_force(self):
        targets = [BiDegree(-16, 5), BiDegree(-8, 2), BiDegree(0, 3),
                   BiDegree(4, 1), BiDegree(-2, 2), BiDegree(-15, 3),
                   BiDegree(8, 0), BiDegree(-4, 0)]
        for t in targets:
            got = enumerate_monomials(ab, t)
            assert got == brute_force_monomials(ab, t), t
        for t in [BiDegree(16, 5), BiDegree(4, 0), BiDegree(10, 2)]:
            got = enumerate_monomials(S_ALPHABET, t)
            assert got == brute_force_monomials(S_ALPHABET, t), t

    def test_matches_search_per_target(self):
        """The index parts memoised per (alphabet, index), filled with E4
        and E6 per weight, give the tuples of one search per target, for
        every weight -6m - 2..6m + 14 (odd ones too) of every index m <= 10
        over the three alphabets."""
        for alphabet in (ab, AB, S_ALPHABET):
            for m in range(11):
                for k in range(-6 * m - 2, 6 * m + 15):
                    target = BiDegree(k, m)
                    assert _monomials(alphabet, target) == \
                        enumerate_monomials_reference(alphabet, target), \
                        (alphabet.name, target)

    def test_all_monomials_on_target(self):
        target = BiDegree(-20, 6)
        for exps in enumerate_monomials(ab, target):
            assert ab.monomial_degree(exps) == target

    def test_deterministic_order(self):
        a = enumerate_monomials(ab, BiDegree(-16, 5))
        b = enumerate_monomials(ab, BiDegree(-16, 5))
        assert a == b == sorted(a, reverse=True)


class TestAnsatz:
    def test_unknowns_follow_enumeration(self):
        mons = enumerate_monomials(ab, BiDegree(-16, 5))
        ansatz = build_ansatz(ab, BiDegree(-16, 5))
        assert ansatz.terms == {mon: {i: 1} for i, mon in enumerate(mons)}

    def test_empty_target(self):
        assert not build_ansatz(ab, BiDegree(3, 1)).terms
