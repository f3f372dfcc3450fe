"""Substitution maps between the two generator alphabets.

The meromorphic generators a2..a4, b1..b6 are stored as fractions over
the holomorphic alphabet (numerator over AB divided by powers of E4 and
Delta), in lowest terms as transcribed, and conversely A1..B6 are stored
as genuine polynomials over the meromorphic alphabet with every Delta
occurrence expanded via (E4^3 - E6^2)/1728.  The two tables are transcribed
independently and verified against each other by the roundtrip tests.

The ab->AB substitution (`sub_ab_to_AB`) rests on two facts.  E4 and E6
map to themselves, and Delta = (E4^3 - E6^2)/1728 is prime and prime to
E4, to E6 and to every normalized numerator, so a monomial's normalized
image follows from that of its index part (its a2..b6 exponents) by
exponent arithmetic alone.  An index-part image is a product of
generator images, each normalized with E4 exponent >= 1: its numerator
is divisible neither by E4 nor by Delta.  E4 is a ring variable and
Delta is prime, so neither divides a product of such numerators either,
and the product is normalized as it stands: the numerators multiply and
the denominator exponents add, with no check.  So the E4 and Delta
powers of an index-part image come by exponent arithmetic
(`_rest_powers`), and only the lifted images are memoised: each index
part's numerator times a power of Delta, `int` terms over one integer
denominator in four columns, E4 exponent ascending, that hold each
exponent tail as one shared tuple (`_lifted_terms`); a reader that
needs only the terms below some E4 power stops at the first at it.
`_lifted_columns` gives the images of a list of monomials over one
common denominator, one column per monomial: a column is the memoised
terms of its index part with the E4 and E6 shifts of its monomial, and
the construction reads its linear system straight off those columns
without expanding them, each column up to the E4 power of the common
denominator.  `_sum_columns`, the one summing loop, adds them up in
integers, weighted by a concrete polynomial's coefficients, into one
dict of `int` terms over one integer L, all of them or those below a
cut.  The sum may be divisible by E4 and by Delta.

Membership reads only the terms below E4^a, a the E4 power of the
denominator: the E4^(a-l) Q_l that must be P^l S_l.  `e4_split` is the
one split of an image into the Q_l and R, for `construct.certify`,
`construct.certificate_identity` and the derived R alike; the Q_l, like
P^l and S_l, are free of E4, so it gives them over S.  R, the rest and
nearly all of the image (8,130 of the 8,196 terms of the basis forms of
index <= 6), is read only when a certificate's remainder is.  So
`_image` sums the columns up to E4^a unless it is asked for the full
image (`sub_ab_to_AB`, R), and it settles the Delta power without the
terms above.  Delta vanishes at
E4 = s^2, E6 = s^3; at such a point, with fixed values of A1..B6, mod a
prime, the value of the sum T is a sum over the form's monomials, since
evaluation is a ring map (`_off_delta`).  Were T divisible by Delta,
its value there would be 0, so a nonzero value proves that there is no
Delta to cancel.  A zero value proves nothing: T is then summed whole
and Delta cancelled from it (`grading.cancel_delta`, with no polynomial
division), as far as it goes or down to a given power, so correctness
never rests on the point.  At or above the columns' own Delta power
there is nothing to cancel and no test to make.  `_image` keeps the
last image and serves it by one rule: to the same form object, at the
image's own Delta power, and a cut image only to a cut call.  So
`certificate_identity` reuses `certify`'s image, and R sums the columns
anew unless `certify` cancelled a Delta.  `sub_ab_to_AB` also
cancels E4 before the terms become Fractions.  No other fraction is
brought to lowest terms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, gcd, inf, lcm
from operator import itemgetter
from typing import Dict, Optional, Tuple

from .grading import (AB, AlphabetMismatchError, Frac, Poly, ab, cancel_delta,
                      delta_poly)

F = Fraction


def _ab_gens():
    return {s: Poly.gen(ab, s) for s in ab.symbols}


def _AB_gens():
    return {s: Poly.gen(AB, s) for s in AB.symbols}


@cache
def meromorphic_images() -> Dict[str, Frac]:
    """a_i, b_j as fractions num / (E4^p Delta^q) over AB, each in lowest
    terms as written: no numerator is divisible by Delta, and each has a
    term free of E4."""
    g = _AB_gens()
    E4, E6 = g["E4"], g["E6"]
    A1, A2, A3, A4, A5 = g["A1"], g["A2"], g["A3"], g["A4"], g["A5"]
    B2, B3, B4, B6 = g["B2"], g["B3"], g["B4"], g["B6"]

    return {
        "E4": Frac(E4, 0, 0),
        "E6": Frac(E6, 0, 0),
        "a2": Frac(6 * (-E4 * A2 + A1 ** 2), 1, 1),
        "a3": Frac(
            (-7 * E4 ** 2 * E6 * A3 - 20 * E4 ** 3 * B3
             - 9 * E4 * E6 * A1 * A2 + 30 * E4 ** 2 * A1 * B2
             + 6 * E6 * A1 ** 3) / 9,
            2, 2),
        "a4": Frac(
            ((E4 ** 6 - E4 ** 3 * E6 ** 2) * A4
             + (56 * E4 ** 5 - 56 * E4 ** 2 * E6 ** 2) * A1 * A3
             - 27 * E4 ** 5 * A2 ** 2
             - 90 * E4 ** 3 * E6 * A2 * B2
             - 75 * E4 ** 4 * B2 ** 2
             + (180 * E4 ** 4 - 36 * E4 * E6 ** 2) * A1 ** 2 * A2
             + 240 * E4 ** 2 * E6 * A1 ** 2 * B2
             + (-210 * E4 ** 3 + 18 * E6 ** 2) * A1 ** 4) / 864,
            3, 3),
        "b1": Frac(-4 * A1, 1, 0),
        "b2": Frac(F(5, 6) * (E4 ** 2 * B2 - E6 * A1 ** 2), 2, 1),
        "b3": Frac(
            (-7 * E4 ** 5 * A3 - 20 * E4 ** 3 * E6 * B3
             - 9 * E4 ** 4 * A1 * A2 + 30 * E4 ** 2 * E6 * A1 * B2
             + (16 * E4 ** 3 - 10 * E6 ** 2) * A1 ** 3) / 108,
            3, 2),
        "b4": Frac(
            ((-5 * E4 ** 7 + 5 * E4 ** 4 * E6 ** 2) * B4
             + (80 * E4 ** 6 - 80 * E4 ** 3 * E6 ** 2) * A1 * B3
             + 9 * E4 ** 5 * E6 * A2 ** 2
             + 30 * E4 ** 6 * A2 * B2
             + 25 * E4 ** 4 * E6 * B2 ** 2
             - 48 * E4 ** 4 * E6 * A1 ** 2 * A2
             + (-140 * E4 ** 5 + 60 * E4 ** 2 * E6 ** 2) * A1 ** 2 * B2
             + (74 * E4 ** 3 * E6 - 10 * E6 ** 3) * A1 ** 4) / 1728,
            4, 3),
        "b5": Frac(
            ((-21 * E4 ** 7 + 21 * E4 ** 4 * E6 ** 2) * A5
             - 294 * E4 ** 6 * A2 * A3
             - 770 * E4 ** 4 * E6 * B2 * A3
             - 840 * E4 ** 4 * E6 * A2 * B3
             - 2200 * E4 ** 5 * B2 * B3
             + 168 * E4 ** 5 * A1 ** 2 * A3
             + 480 * E4 ** 3 * E6 * A1 ** 2 * B3
             - 621 * E4 ** 5 * A1 * A2 ** 2
             + 3525 * E4 ** 4 * A1 * B2 ** 2
             + 1224 * E4 ** 4 * A1 ** 3 * A2
             - 240 * E4 ** 2 * E6 * A1 ** 3 * B2
             + (-456 * E4 ** 3 + 24 * E6 ** 2) * A1 ** 5) / 72,
            5, 3),
        "b6": Frac(
            ((-20 * E4 ** 12 + 40 * E4 ** 9 * E6 ** 2
              - 20 * E4 ** 6 * E6 ** 4) * B6
             + (-189 * E4 ** 10 * E6 + 378 * E4 ** 7 * E6 ** 3
                - 189 * E4 ** 4 * E6 ** 5) * A1 * A5
             + (-9 * E4 ** 10 * E6 + 9 * E4 ** 7 * E6 ** 3) * A2 * A4
             + (-15 * E4 ** 11 + 15 * E4 ** 8 * E6 ** 2) * B2 * A4
             + (-180 * E4 ** 11 + 180 * E4 ** 8 * E6 ** 2) * A2 * B4
             + (-300 * E4 ** 9 * E6 + 300 * E4 ** 6 * E6 ** 3) * B2 * B4
             + (22 * E4 ** 9 * E6 - 22 * E4 ** 6 * E6 ** 3) * A1 ** 2 * A4
             + (150 * E4 ** 10 + 120 * E4 ** 7 * E6 ** 2
                - 270 * E4 ** 4 * E6 ** 4) * A1 ** 2 * B4
             + (196 * E4 ** 10 * E6 - 196 * E4 ** 7 * E6 ** 3) * A3 ** 2
             + (1120 * E4 ** 11 - 1120 * E4 ** 8 * E6 ** 2) * A3 * B3
             + (1600 * E4 ** 9 * E6 - 1600 * E4 ** 6 * E6 ** 3) * B3 ** 2
             + (-2982 * E4 ** 9 * E6 + 2982 * E4 ** 6 * E6 ** 3) * A1 * A2 * A3
             + (-2520 * E4 ** 10 - 4410 * E4 ** 7 * E6 ** 2
                + 6930 * E4 ** 4 * E6 ** 4) * A1 * B2 * A3
             + (3360 * E4 ** 10 - 10920 * E4 ** 7 * E6 ** 2
                + 7560 * E4 ** 4 * E6 ** 4) * A1 * A2 * B3
             + (-19800 * E4 ** 8 * E6 + 19800 * E4 ** 5 * E6 ** 3) * A1 * B2 * B3
             + (2016 * E4 ** 8 * E6 - 2016 * E4 ** 5 * E6 ** 3) * A1 ** 3 * A3
             + (-5920 * E4 ** 9 + 7360 * E4 ** 6 * E6 ** 2
                - 1440 * E4 ** 3 * E6 ** 4) * A1 ** 3 * B3
             + (405 * E4 ** 9 * E6 + 162 * E4 ** 6 * E6 ** 3) * A2 ** 3
             + (1215 * E4 ** 10 + 1620 * E4 ** 7 * E6 ** 2) * A2 ** 2 * B2
             + 4725 * E4 ** 8 * E6 * A2 * B2 ** 2
             + (1125 * E4 ** 9 + 1500 * E4 ** 6 * E6 ** 2) * B2 ** 3
             + (-9477 * E4 ** 8 * E6 + 5103 * E4 ** 5 * E6 ** 3) * A1 ** 2 * A2 ** 2
             + (-9180 * E4 ** 9 - 5400 * E4 ** 6 * E6 ** 2) * A1 ** 2 * A2 * B2
             + (20925 * E4 ** 7 * E6 - 33075 * E4 ** 4 * E6 ** 3) * A1 ** 2 * B2 ** 2
             + (20304 * E4 ** 7 * E6 - 9072 * E4 ** 4 * E6 ** 3) * A1 ** 4 * A2
             + (12780 * E4 ** 8 + 5400 * E4 ** 5 * E6 ** 2
                + 540 * E4 ** 2 * E6 ** 4) * A1 ** 4 * B2
             + (-11076 * E4 ** 6 * E6 + 1512 * E4 ** 3 * E6 ** 3
                - 36 * E6 ** 5) * A1 ** 6) / 13436928,
            6, 5),
    }


@cache
def holomorphic_images() -> Dict[str, Poly]:
    """A_i, B_j as polynomials over the meromorphic alphabet."""
    g = _ab_gens()
    E4, E6 = g["E4"], g["E6"]
    a2, a3, a4 = g["a2"], g["a3"], g["a4"]
    b1, b2, b3, b4, b5, b6 = (g["b1"], g["b2"], g["b3"],
                              g["b4"], g["b5"], g["b6"])
    D = delta_poly(ab)

    return {
        "E4": E4,
        "E6": E6,
        "A1": -(E4 * b1) / 4,
        "A2": (3 * E4 * b1 ** 2 - 8 * D * a2) / 48,
        "A3": (-21 * E4 * b1 ** 3 - 12 * D * E4 * b3 + D * E6 * a3
               - 72 * D * a2 * b1) / 1344,
        "A4": (D * E4 ** 2 * a2 ** 2 + 9 * E4 * b1 ** 4
               - 288 * D * E4 * b1 * b3 + 144 * D * E4 * b2 ** 2
               - 24 * D * E6 * a2 * b2 + 24 * D * E6 * a3 * b1
               + 1296 * D * a2 * b1 ** 2 + 1152 * D ** 2 * a4) / 2304,
        "A5": (3 * D * E4 ** 2 * a2 ** 2 * b1 - 63 * E4 * b1 ** 5
               + 216 * D * E4 * b1 ** 2 * b3 - 144 * D * E4 * b1 * b2 ** 2
               - 24 * D * E6 * a2 * b1 * b2 + 110 * D * E6 * a3 * b1 ** 2
               - 1200 * D * a2 * b1 ** 3 - 128 * D ** 2 * E4 * b5
               - 1344 * D ** 2 * a2 * b3 + 2112 * D ** 2 * a3 * b2) / 64512,
        "B2": (5 * E6 * b1 ** 2 + 96 * D * b2) / 80,
        "B3": (-D * E4 ** 2 * a3 - 60 * E6 * b1 ** 3 + 12 * D * E6 * b3
               - 1728 * D * b1 * b2) / 3840,
        "B4": (-24 * D * E4 ** 2 * a2 * b2 + 36 * D * E4 ** 2 * a3 * b1
               + D * E4 * E6 * a2 ** 2 + 135 * E6 * b1 ** 4
               - 432 * D * E6 * b1 * b3 + 144 * D * E6 * b2 ** 2
               + 5184 * D * b1 ** 2 * b2 - 6912 * D ** 2 * b4) / 34560,
        "B6": (-D * E4 ** 2 * E6 * a4 * b1 ** 2
               + 72 * D * E4 ** 2 * a2 * b1 ** 2 * b2
               - 216 * D * E4 ** 2 * a3 * b1 ** 3
               - 9 * D * E4 * E6 * a2 ** 2 * b1 ** 2
               + 135 * E6 * b1 ** 6
               - 96 * D ** 2 * E4 ** 2 * a2 * b4
               + 72 * D ** 2 * E4 ** 2 * a3 * b3
               - 144 * D ** 2 * E4 ** 2 * a4 * b2
               + 12 * D ** 2 * E4 * E6 * a2 * a4
               - 3 * D ** 2 * E4 * E6 * a3 ** 2
               - 144 * D ** 2 * E4 * a2 ** 2 * b2
               + 288 * D ** 2 * E4 * a2 * a3 * b1
               + 12 * D ** 2 * E6 * a2 ** 3
               + 12 * D * E6 ** 2 * b1 ** 2 * b4
               - 216 * D * E6 * b1 ** 3 * b3
               + 7776 * D * b1 ** 4 * b2
               - 2592 * D ** 2 * E6 * b1 * b5
               + 1152 * D ** 2 * E6 * b2 * b4
               - 432 * D ** 2 * E6 * b3 ** 2
               + 10368 * D ** 2 * b1 ** 2 * b4
               - 124416 * D ** 3 * b6) / 552960,
    }


@cache
def p16_5() -> Poly:
    """The distinguished weight-16 index-5 polynomial; E4-free over AB."""
    g = _AB_gens()
    E6 = g["E6"]
    A1, A2, A3, A5 = g["A1"], g["A2"], g["A3"], g["A5"]
    B2, B3, B4 = g["B2"], g["B3"], g["B4"]
    return (864 * A1 ** 3 * A2 + 3825 * A1 * B2 ** 2
            - 770 * E6 * A3 * B2 - 840 * E6 * A2 * B3
            + 60 * E6 * A1 * B4 + 21 * E6 ** 2 * A5)


@cache
def _image_power(symbol: str, e: int) -> Tuple[int, Poly]:
    """A generator image's numerator to the e-th power as (den, num), the
    power being num / den over E4 and Delta (see `_rest_powers`): the
    numerator is cleared to ints once and raised in ints."""
    base = meromorphic_images()[symbol].num
    den = lcm(*(c.denominator for c in base.terms.values()))
    num = Poly(AB, {m: c.numerator * (den // c.denominator)
                    for m, c in base.terms.items()})
    return den ** e, num ** e


@cache
def _delta_power(k: int) -> Poly:
    """1728^k Delta^k = (E4^3 - E6^2)^k over AB, with int coefficients."""
    return Poly(AB, {(3 * (k - i), 2 * i) + (0,) * (len(AB) - 2):
                     (-1) ** i * comb(k, i) for i in range(k + 1)})


# Both alphabets lead with E4, E6; the index part ("rest") of a monomial
# over ab is its a2..b6 exponents, the tail after those two.
_INDEX_SYMBOLS = ab.symbols[2:]
_shared_tail = cache(lambda tail: tail)     # one tuple per tail value


@cache
def _rest_powers(rest: tuple) -> Tuple[int, int]:
    """The E4 and Delta powers of the normalized image of a2^.. b6^..:
    the generators' denominator exponents, times the rest's exponents,
    summed (see the module docstring)."""
    images = [meromorphic_images()[s] for s in _INDEX_SYMBOLS]
    return (sum(e * f.e4_pow for e, f in zip(rest, images)),
            sum(e * f.delta_pow for e, f in zip(rest, images)))


@cache
def _lifted_terms(rest: tuple, gap: int) -> Tuple[int, tuple]:
    """The normalized numerator of a2^.. b6^.. times Delta^gap, the
    generators' numerator powers multiplied, as (den, terms): over den,
    the lcm of the coefficient denominators, terms is four columns, E4
    exponents ascending, E6 exponents, `_shared_tail` tails and ints."""
    den, num = 1, Poly(AB, {(0,) * len(AB): 1})
    for symbol, e in zip(_INDEX_SYMBOLS, rest):
        if e:
            d, power = _image_power(symbol, e)
            den *= d
            num = num * power
    if gap:
        num = num * _delta_power(gap)
        den *= 1728 ** gap
    g = gcd(den, *num.terms.values())
    terms = sorted(((m[0], m[1], _shared_tail(m[2:]), c // g)
                    for m, c in num.terms.items()), key=itemgetter(0))
    return den // g, tuple(zip(*terms))


def _lifted_columns(mons, lift: int = 0) -> Tuple[list, int, int]:
    """(columns, e4_pow, delta_pow): over E4^e4_pow Delta^delta_pow, the
    image of monomial j is column j = (E4 shift, E6 shift, den, terms),
    terms the `_lifted_terms` columns of its index part, over den.

    A monomial is E4^a E6^b times its index part (its a2..b6 exponents),
    whose normalized image is N/(E4^p Delta^q), with p and q from
    `_rest_powers`.  E4 and E6 map to themselves, and
    Delta = (E4^3 - E6^2)/1728 is prime and prime to E4, to E6 and to the
    normalized numerator N, so the monomial's own normalized image is
    E4^(a - min(a, p)) E6^b N / (E4^(p - min(a, p)) Delta^q): exponent
    arithmetic, with no product and no division.  The common
    denominator takes the maxima of those powers, and of `lift` for
    Delta; each N, lifted by Delta^(delta_pow - q), is built once per
    distinct part and gap and memoised (`_lifted_terms`).
    """
    items = [(m[0], m[1], m[2:], *_rest_powers(m[2:])) for m in mons]
    e4 = max((max(p - a, 0) for a, _, _, p, _ in items), default=0)
    dl = max([lift, *(q for *_, q in items)])
    return ([(a + e4 - p, b, *_lifted_terms(rest, dl - q))
             for a, b, rest, p, q in items], e4, dl)


def _weighted_columns(p: Poly, lift: int) -> Tuple[list, int, int, int]:
    """(columns, L, e4_pow, delta_pow): p's `_lifted_columns`, each with
    the int weight w in place of its den, so that p's image is the sum
    of the columns' terms times their weights over
    L E4^e4_pow Delta^delta_pow, with delta_pow = max(lift, q), q the
    largest Delta power of p's monomial images.  The weight of p's
    coefficient v over its column's den is the int pair (v.numerator,
    v.denominator den), L is the lcm of their reduced denominators and
    w = v.numerator L / (v.denominator den).  A polynomial over another
    alphabet raises AlphabetMismatchError."""
    if p.alphabet != ab:
        raise AlphabetMismatchError("not over ab: %s" % p.alphabet.name)
    columns, e4, dl = _lifted_columns(p.terms, lift)
    weights = [(v.numerator, v.denominator * column[2])
               for column, v in zip(columns, p.terms.values())]
    L = lcm(*(den // gcd(num, den) for num, den in weights))
    return ([(s4, b, num * L // den, terms) for (s4, b, _, terms), (num, den)
             in zip(columns, weights)], L, e4, dl)


def _sum_columns(columns: list, cut: float = inf) -> dict:
    """The nonzero `int` terms of the weighted columns' sum at E4 exponent
    below `cut` (all of them by default): each column's terms ascend in
    E4 exponent, so its loop stops at the first one at the cut."""
    out: dict = {}
    for s4, b, w, terms in columns:
        stop = cut - s4
        for e4_exp, e6_exp, tail, c in zip(*terms):
            if e4_exp >= stop:
                break
            key = (e4_exp + s4, e6_exp + b) + tail
            out[key] = out.get(key, 0) + c * w
    return {key: c for key, c in out.items() if c}


# The point of the Delta test: E4 = s^2 and E6 = s^3, where
# Delta = (E4^3 - E6^2)/1728 vanishes, and fixed values of A1..B6, all
# mod the prime 2^61 - 1 (digits of gamma, pi, e and square roots).
_PRIME = (1 << 61) - 1
_S = 57721566490
_TAIL = (31415926535, 27182818284, 14142135623, 17320508075, 22360679774,
         16180339887, 26457513110, 31622776601, 24494897427)


@cache
def _numerator_values() -> tuple:
    """The value at the point of each of the generators a2..b6's
    numerators over AB.  Every coefficient denominator of the tables
    divides a power of 6, so it is a unit mod the prime."""
    images = meromorphic_images()
    values = []
    for symbol in _INDEX_SYMBOLS:
        total = 0
        for m, c in images[symbol].num.terms.items():
            x = c.numerator * pow(c.denominator, -1, _PRIME) \
                * pow(_S, 2 * m[0] + 3 * m[1], _PRIME)
            for t, e in zip(_TAIL, m[2:]):
                x = x * pow(t, e, _PRIME) % _PRIME
            total += x
        values.append(total % _PRIME)
    return tuple(values)


@cache
def _part_value(rest: tuple) -> int:
    """The value at the point of the normalized numerator of
    a2^.. b6^.., N/den with N the terms of its `_lifted_terms` at gap 0:
    the product of its generators' numerator values, so independent of
    N's terms."""
    value = 1
    for v, e in zip(_numerator_values(), rest):
        value = value * pow(v, e, _PRIME) % _PRIME
    return value


def _off_delta(p: Poly, L: int, e4: int, dl: int) -> bool:
    """Whether the value at the point of T, the numerator of p's image
    over L E4^e4 Delta^dl, is nonzero, which proves that Delta does not
    divide T.

    Evaluation at the point is a ring map, and T is the sum over p's
    monomials E4^a E6^b (index part), with coefficient v, of
    L v E4^(a + e4 - p') E6^b N/den Delta^(dl - q), N/den, p' and q the
    normalized numerator and the powers of the index part's image.  So
    T's value is the sum, over the monomials with q = dl (Delta^(dl - q)
    is 0 at the point otherwise), of the product of the int L v,
    s^(2(a + e4 - p') + 3b) and the part's value (`_part_value`): O(1)
    per monomial, whatever the image's size.  If Delta divided T, T
    would be (E4^3 - E6^2) U with U integral (Gauss's lemma, as
    E4^3 - E6^2 is primitive), and its value would be 0."""
    total = 0
    for m, v in p.terms.items():
        p4, q = _rest_powers(m[2:])
        if q == dl:
            total += v.numerator * (L // v.denominator) \
                * pow(_S, 2 * (m[0] + e4 - p4) + 3 * m[1], _PRIME) \
                * _part_value(m[2:])
    return total % _PRIME != 0


# (form, image, full) of the last `_image` call that found an image:
# served again only to the same form object at the image's own Delta
# power, and a cut image only to a call for a cut one
_last_image: tuple = (None, None, None)


def _image(p: Poly, n: Optional[int] = None, full: bool = False
           ) -> Optional[Tuple[dict, int, int, int]]:
    """(terms, L, a, n'): p's image as `int` terms T over
    L E4^a Delta^n', with Delta cancelled from T down to n, or as far as
    it goes when n is None; None when a given n is not reached.  Above
    the largest Delta power of p's monomial images the image is lifted
    to Delta^n instead.

    Unless `full` is set, T holds only its terms below E4^a, the
    E4^(a-l) Q_l that membership reads (`construct.certify`,
    `construct.certificate_identity`), whenever the Delta power comes
    without the terms above: an n at or above the columns' Delta power
    needs no cancelling, and a nonzero value of T at a point of
    Delta = 0 (`_off_delta`) proves that there is none to cancel.
    Otherwise, and when `full` is set, T is summed whole, Delta is
    cancelled from it (`cancel_delta`) and the full image is returned.

    The last image is memoised with its form and served again by one
    rule: to the same object (compared with `is`), for n = n', and
    either held full or asked for cut.  Any other call, n None included,
    builds anew.  Callers must not mutate the terms."""
    global _last_image
    form, image, held_full = _last_image
    if form is p and n == image[3] and (held_full or not full):
        return image
    columns, L, a, dl = _weighted_columns(p, n or 0)
    if not full and (n == dl or _off_delta(p, L, a, dl)):
        if n not in (None, dl):
            return None
        image = (_sum_columns(columns, a), L, a, dl)
        _last_image = (p, image, False)
        return image
    k, terms = cancel_delta(_sum_columns(columns),
                            dl if n is None else dl - n)
    if n is not None and dl - k != n:
        return None
    image = terms, L, a, dl - k
    _last_image = (p, image, True)
    return image


def sub_ab_to_AB(p: Poly) -> Frac:
    """Replace every meromorphic generator by its holomorphic-side image,
    in lowest terms: Delta is cancelled by `_image`, and the common power
    of E4 is read off the exponents of its terms (dividing by Delta
    leaves it as it is); each term then becomes a Fraction over L.
    """
    out, L, e4, dl = _image(p, full=True)
    if not out:
        return Frac(Poly.zero(AB), 0, 0)
    k4 = min(e4, min(key[0] for key in out))
    return Frac(Poly(AB, {(key[0] - k4,) + key[1:]: Fraction(c, L)
                          for key, c in out.items()}),
                e4 - k4, dl)


def e4_split(terms: Dict[tuple, int], a: int) -> Tuple[Dict[int, dict], dict]:
    """(qs, r): num/E4^a over AB, num given by its nonzero terms, as
    sum_l Q_l/E4^l + R, in one pass; the one E4 split of an image.

    Writing num = sum_j E4^j N_j with every N_j free of E4, Q_l is
    N_{a-l} and R = sum_{j>=a} E4^{j-a} N_j.  `qs` maps each l with a
    nonzero Q_l to its terms over S (the E4 exponent dropped), and `r`
    holds R's terms over AB.  E4 leads AB, so j is the first exponent
    of each term.
    """
    qs: Dict[int, dict] = {}
    r: dict = {}
    for m, c in terms.items():
        if m[0] < a:
            qs.setdefault(a - m[0], {})[m[1:]] = c
        else:
            r[(m[0] - a,) + m[1:]] = c
    return qs, r
