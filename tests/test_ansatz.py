"""Monomial enumeration and ansatz construction."""

import itertools

from e8jacobi.ansatz import build_ansatz, enumerate_monomials
from e8jacobi.grading import AB, BiDegree, S_ALPHABET, ab


def brute_force_monomials(alphabet, target):
    """Independent enumeration: bounded exponent boxes, exact filter."""
    caps = []
    for sym, deg in zip(alphabet.symbols, alphabet.degrees):
        if deg.index > 0:
            caps.append(target.index // deg.index if target.index >= 0 else -1)
        else:
            # E4/E6: weight budget once every index generator is fixed;
            # generous static cap (weights here never exceed |5m|+4)
            caps.append((abs(target.weight) + 30 * abs(target.index)) // 4)
    if any(c < 0 for c in caps):
        return []
    out = []
    for exps in itertools.product(*(range(c + 1) for c in caps)):
        if alphabet.monomial_degree(exps) == target:
            out.append(exps)
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
        shifted = build_ansatz(ab, BiDegree(-16, 5), first=7)
        assert shifted.terms == {mon: {7 + i: 1}
                                 for i, mon in enumerate(mons)}

    def test_empty_target(self):
        assert build_ansatz(ab, BiDegree(3, 1)).is_zero()
