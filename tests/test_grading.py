"""Polynomial and graded-ring arithmetic."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from e8jacobi.ansatz import enumerate_monomials
from e8jacobi.construct import jacobi_basis, profile_weights
from e8jacobi.generators import (_lifted_columns, meromorphic_images,
                                 p16_5, sub_ab_to_AB)
from e8jacobi.grading import (AB, Alphabet, AlphabetMismatchError, BiDegree,
                              GradingError, Frac, ParamPoly, Poly,
                              S_ALPHABET, ab,
                              cancel_delta, delta_poly)

from helpers import expand_column, normalized_by_trial_division

E4 = Poly.gen(AB, "E4")
E6 = Poly.gen(AB, "E6")
A1 = Poly.gen(AB, "A1")
A2 = Poly.gen(AB, "A2")
A3 = Poly.gen(AB, "A3")


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

    def test_every_weight_is_even(self):
        # so odd weights carry no monomials, and the index profiles
        # (`profile_weights`) run over even weights only
        for alphabet in (ab, AB):
            assert [d.weight % 2 for d in alphabet.degrees] == \
                [0] * len(alphabet)


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

    def test_alphabets_compare_by_value(self):
        """A polynomial over an equal copy of ab is the same polynomial;
        AB and S differ, also on the same terms."""
        copy = Alphabet(ab.name, ab.symbols, ab.degrees)
        b1 = Poly.gen(ab, "b1")
        b1_copy = Poly(copy, dict(b1.terms))
        assert copy is not ab and b1_copy == b1 and b1 == b1_copy
        assert (b1_copy * b1).terms == (b1 * b1).terms
        one = {(0,) * len(AB): 1}
        assert Poly(AB, one) != Poly(S_ALPHABET, one)
        with pytest.raises(AlphabetMismatchError):
            Poly(AB, one) * Poly(S_ALPHABET, one)

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

    def test_divexact_of_int_coefficients_is_exact(self):
        a2 = ab.position("a2")
        one = tuple(int(i == a2) for i in range(len(ab)))
        two = tuple(2 * e for e in one)
        q = Poly(ab, {two: 3}).divexact(Poly(ab, {one: 2}))
        assert q.terms == {one: Fraction(3, 2)}
        assert type(q.terms[one]) is Fraction

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


def divexact_by_rescan(num, d):
    """Reference division: the lead of the remainder found by max() for
    every quotient term."""
    d_lead = max(d.terms)
    quotient = {}
    rem = dict(num.terms)
    while rem:
        lead = max(rem)
        diff = tuple(a - b for a, b in zip(lead, d_lead))
        if any(e < 0 for e in diff):
            return None
        qc = rem[lead] / d.terms[d_lead]
        quotient[diff] = qc
        for m, c in d.terms.items():
            t = tuple(a + b for a, b in zip(m, diff))
            s = rem.get(t, 0) - qc * c
            if s:
                rem[t] = s
            else:
                rem.pop(t, None)
    return Poly(num.alphabet, quotient)


# multi-term divisors: Delta, P_{16,5} and the numerator of a2
DIVISORS = [delta_poly(AB), p16_5(), E4 * A2 - A1 ** 2]
_exponents = st.tuples(*[st.integers(0, 2)] * len(AB))
_coefficients = st.builds(Fraction, _small.filter(bool), st.integers(1, 9))


class TestPolyProperties:
    @given(st.sampled_from(DIVISORS),
           st.dictionaries(_exponents, _coefficients, min_size=1,
                           max_size=5),
           _exponents, _coefficients)
    @settings(max_examples=60, deadline=None)
    def test_divexact_matches_rescan(self, d, q_terms, extra, c):
        """On multiples of d, and on a multiple plus one term, which a
        divisor of several terms never divides."""
        q = Poly(AB, q_terms)
        num = q * d
        assert num.divexact(d) == q == divexact_by_rescan(num, d)
        terms = dict(num.terms)
        terms[extra] = terms.get(extra, 0) + c
        off = Poly(AB, terms)
        assert off.divexact(d) is None
        assert divexact_by_rescan(off, d) is None

    @given(st.dictionaries(_exponents, _small.filter(bool), min_size=1,
                           max_size=4),
           st.dictionaries(_exponents, _small.filter(bool), min_size=1,
                           max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_divexact_of_int_multiples_is_exact(self, q_terms, d_terms):
        """Basis forms carry int coefficients: dividing an int multiple
        by an int divisor gives the cofactor back, every quotient
        coefficient a Fraction or an int, never a float."""
        q, d = Poly(AB, q_terms), Poly(AB, d_terms)
        quotient = (q * d).divexact(d)
        assert quotient == q
        assert all(type(c) in (int, Fraction)
                   for c in quotient.terms.values())

    @given(st.dictionaries(_exponents, _coefficients | _small.filter(bool),
                           max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_square_is_the_product(self, terms):
        """`square` multiplies each unordered pair of terms once and gives
        p * p, int coefficients staying int."""
        p = Poly(AB, terms)
        assert p.square().terms == (p * p).terms
        assert all(type(c) is int for c in p.square().terms.values()
                   if all(type(a) is int for a in terms.values()))

    def test_square_cancels(self):
        """The E4^2 E6^2 terms of (E4^2 - E6^2/2 + E4 E6)^2, one from the
        pair of the first two terms and one from the third squared,
        cancel."""
        p = Poly(AB, {(2, 0) + (0,) * 9: 1, (0, 2) + (0,) * 9: Fraction(-1, 2),
                      (1, 1) + (0,) * 9: 1})
        assert p.square() == p * p
        assert (2, 2) + (0,) * 9 not in p.square().terms
        assert len(p.square()) == 4

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


class TestParamPoly:
    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_substitute_sparse_vector(self, data):
        """`substitute` of a sparse {column: value} vector equals the dot
        product per monomial with every other column at 0, for linear
        forms that share columns across monomials."""
        mons = enumerate_monomials(ab, BiDegree(-16, 5))
        coeff = st.integers(-5, 5)
        terms = {m: data.draw(st.dictionaries(st.integers(0, 6), coeff))
                 for m in mons}
        values = data.draw(st.dictionaries(
            st.integers(0, 8), st.fractions(-3, 3, max_denominator=4)))
        got = ParamPoly(ab, terms).substitute(values)
        assert got == Poly(ab, {m: sum(values.get(j, 0) * v
                                       for j, v in lf.items())
                                for m, lf in terms.items()})


class TestFrac:
    def test_normalization_strips_common_factors(self):
        """Lowest terms come from `sub_ab_to_AB` alone: a common E4 and
        a common Delta leave the denominator of the image."""
        e4, e6, b1, a2 = (Poly.gen(ab, s) for s in ("E4", "E6", "b1", "a2"))
        f = sub_ab_to_AB(e4 * e6 * b1)
        assert f == Frac(-4 * E6 * A1, 0, 0)
        d = delta_poly(ab)
        g = sub_ab_to_AB(d ** 2 * a2)
        assert g == Frac(6 * (A1 ** 2 - E4 * A2) * delta_poly(AB), 1, 0)


def as_ints(num):
    """(den, terms): num's coefficients as int numerators over den."""
    den = lcm(*(c.denominator for c in num.terms.values()))
    return den, {m: c.numerator * (den // c.denominator)
                 for m, c in num.terms.items()}


# a few tails (A1..B6 exponents), so that terms share groups
_TAILS = [(0,) * 9, (1,) + (0,) * 8, (0, 2) + (0,) * 7,
          (1, 0, 0, 0, 0, 1, 0, 0, 0)]
_ab_terms = st.dictionaries(
    st.tuples(st.integers(0, 7), st.integers(0, 5), st.sampled_from(_TAILS))
    .map(lambda t: (t[0], t[1]) + t[2]),
    st.one_of(_small.filter(bool), _coefficients), min_size=1, max_size=8)


class TestDeltaCancellation:
    @given(_ab_terms, st.integers(0, 3), st.integers(0, 2),
           st.integers(0, 5))
    @settings(max_examples=80, deadline=None)
    def test_matches_trial_division(self, h_terms, k, i, delta_pow):
        """h Delta^k E4^i, h of mixed weights over several tails with int
        and Fraction coefficients, against the reference, for delta_pow
        below, at and above k."""
        num = Poly(AB, h_terms) * delta_poly(AB) ** k * E4 ** i
        den, ints = as_ints(num)
        cancelled, terms = cancel_delta(ints, delta_pow)
        want = normalized_by_trial_division(num, 0, delta_pow)
        assert cancelled == delta_pow - want.delta_pow
        assert all(type(c) is int for c in terms.values())
        assert Poly(AB, terms).scale(Fraction(1, den)) == want.num

    def test_one_group_not_summing_to_zero(self):
        # the groups of Delta h sum to 0; A3 (E4^3 - 2 E6^2) falls into
        # the group of Delta A3 and leaves it summing to -1
        h = Poly(AB, {**(E4 * A1).terms, **(E6 ** 2 * A2).terms,
                      **A3.terms})
        num = (delta_poly(AB) * h).unchecked_add(
            A3 * (E4 ** 3 - 2 * E6 ** 2))
        ints = {m: int(1728 * c) for m, c in num.terms.items()}
        assert cancel_delta(ints, 3) == (0, ints)
        assert normalized_by_trial_division(num, 0, 3) == Frac(num, 0, 3)
        lifted = num * delta_poly(AB) ** 2
        den, lifted_ints = as_ints(lifted)
        cancelled, terms = cancel_delta(lifted_ints, 5)
        assert cancelled == 2
        assert Poly(AB, terms).scale(Fraction(1, den)) == num
        assert normalized_by_trial_division(lifted, 0, 5) == Frac(num, 0, 3)

    def test_images_match_trial_division(self):
        """Every meromorphic image is in lowest terms as transcribed, and
        the image of every basis form of index <= 6 from its columns
        over the common denominator matches the reference."""
        images = meromorphic_images()
        assert len(images) == 11
        for image in images.values():
            assert image == normalized_by_trial_division(
                image.num, image.e4_pow, image.delta_pow)
        checked = 0
        for m in range(1, 7):
            for k in profile_weights(m):
                for form in jacobi_basis(k, m).forms:
                    columns, e4_pow, delta_pow = _lifted_columns(form.terms)
                    num = Poly.zero(AB)
                    for column, c in zip(columns, form.terms.values()):
                        num = num.unchecked_add(
                            Poly(AB, dict(expand_column(column))).scale(
                                Fraction(c, column[2])))
                    assert sub_ab_to_AB(form) == normalized_by_trial_division(
                        num, e4_pow, delta_pow)
                    checked += 1
        assert checked == 391
