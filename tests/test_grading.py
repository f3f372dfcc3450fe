"""Polynomial and graded-ring arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from e8jacobi.grading import (AB, AlphabetMismatchError, BiDegree,
                              GradingError, Frac, Poly, S_ALPHABET, ab,
                              delta_poly)

E4 = Poly.gen(AB, "E4")
E6 = Poly.gen(AB, "E6")
A1 = Poly.gen(AB, "A1")
A2 = Poly.gen(AB, "A2")


class TestBiDegree:
    def test_arithmetic(self):
        assert BiDegree(4, 1) + BiDegree(-8, 2) == BiDegree(-4, 3)
        assert BiDegree(4, 1) - BiDegree(6, 0) == BiDegree(-2, 1)
        assert BiDegree(4, 1).scaled(3) == BiDegree(12, 3)

    def test_alphabet_degrees(self):
        assert AB.degree("E4") == BiDegree(4, 0)
        assert AB.degree("B6") == BiDegree(6, 6)
        assert ab.degree("a2") == BiDegree(-8, 2)
        assert ab.degree("a3") == BiDegree(-14, 3)
        assert ab.degree("a4") == BiDegree(-20, 4)
        assert ab.degree("b1") == BiDegree(0, 1)
        assert ab.degree("b6") == BiDegree(-30, 6)

    def test_alphabet_orders(self):
        assert AB.symbols == ("E4", "E6", "A1", "A2", "A3", "A4", "A5",
                              "B2", "B3", "B4", "B6")
        assert ab.symbols == ("E4", "E6", "a2", "a3", "a4",
                              "b1", "b2", "b3", "b4", "b5", "b6")
        assert S_ALPHABET.symbols == AB.symbols[1:]


class TestPoly:
    def test_constructors(self):
        assert Poly.zero(AB).is_zero()
        assert Poly.const(AB, 3).bidegree() == BiDegree(0, 0)
        assert (E4 ** 2).bidegree() == BiDegree(8, 0)
        assert len(E4 + 3 * E4) == 1

    def test_homogeneous_addition_guard(self):
        with pytest.raises(GradingError):
            E4 + E6
        # same weight, different index
        with pytest.raises(GradingError):
            Poly.gen(AB, "A1") + Poly.gen(AB, "A2")

    def test_alphabet_guard(self):
        with pytest.raises(AlphabetMismatchError):
            E4 * Poly.gen(ab, "b1")

    def test_ring_identities(self):
        p = 2 * E4 ** 3 * A2 - 7 * E6 ** 2 * A2 + 3 * E4 ** 2 * A1 ** 2
        assert p - p == Poly.zero(AB)
        assert p * Poly.const(AB, 1) == p
        assert (p * E6) / 3 == p * E6.scale(Fraction(1, 3))
        assert (E4 + 2 * E4) ** 3 == 27 * E4 ** 3

    def test_divexact(self):
        num = (E4 ** 2 - 16 * E4 * E6.divexact(E6) * E4) * A1
        assert num.divexact(E4) * E4 == num
        # E4*A2 - A1^2 is not divisible by E4
        assert (E4 * A2 - A1 ** 2).divexact(E4) is None
        assert Poly.zero(AB).divexact(E4) == Poly.zero(AB)
        with pytest.raises(ZeroDivisionError):
            E4.divexact(Poly.zero(AB))

    def test_map_alphabet(self):
        p = E6 * A1 ** 2
        q = p.map_alphabet(S_ALPHABET)
        assert q.alphabet is S_ALPHABET
        assert q.map_alphabet(AB) == p
        with pytest.raises(AlphabetMismatchError):
            (E4 * E6).map_alphabet(S_ALPHABET)

    def test_delta_poly(self):
        d = delta_poly(AB)
        assert 1728 * d == E4 ** 3 - E6 ** 2
        assert d.bidegree() == BiDegree(12, 0)


_small = st.integers(min_value=-30, max_value=30)


@st.composite
def homogeneous_poly(draw, alphabet=AB, max_terms=4):
    """Random homogeneous polynomial: common monomial times constants."""
    base = tuple(draw(st.integers(0, 2)) for _ in alphabet.symbols)
    nterms = draw(st.integers(1, max_terms))
    terms = {}
    for _ in range(nterms):
        extra = list(base)
        # redistribute degree among symbols of equal bidegree is hard;
        # instead scale the same monomial (still exercises arithmetic)
        terms[tuple(extra)] = Fraction(draw(_small) or 1, draw(st.integers(1, 9)))
    return Poly(alphabet, terms)


class TestPolyProperties:
    @given(homogeneous_poly(), homogeneous_poly())
    @settings(max_examples=50, deadline=None)
    def test_multiplication_commutes(self, p, q):
        assert p * q == q * p

    @given(homogeneous_poly(), homogeneous_poly())
    @settings(max_examples=50, deadline=None)
    def test_divexact_inverts_multiplication(self, p, q):
        if p.is_zero() or q.is_zero():
            return
        assert (p * q).divexact(q) == p

    @given(homogeneous_poly())
    @settings(max_examples=50, deadline=None)
    def test_bidegree_multiplicative(self, p):
        if p.is_zero():
            return
        assert (p * p).bidegree() == p.bidegree().scaled(2)


class TestFrac:
    def test_normalization_strips_common_factors(self):
        f = Frac.normalized(E4 * E6 * A1, 2, 0)
        assert f.e4_pow == 1 and f.num == E6 * A1
        d = delta_poly(AB)
        g = Frac.normalized(d * A1, 0, 2)
        assert g.delta_pow == 1 and g.num == A1

    def test_field_identities(self):
        f = Frac.normalized(A1, 1, 1)
        g = Frac.normalized(E6 * A1, 0, 2)
        assert f + g == g + f
        assert (f + g) * f == f * f + g * f
        assert f ** 2 == f * f

    def test_bidegree(self):
        f = Frac.normalized(A1, 1, 1)
        assert f.bidegree() == BiDegree(4 - 4 - 12, 1)
