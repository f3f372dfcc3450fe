"""Substitution maps between the two generator alphabets.

The meromorphic generators a2..a4, b1..b6 are stored as normalized
fractions over the holomorphic alphabet (numerator over AB divided by
powers of E4 and Delta), and conversely A1..B6 are stored as genuine
polynomials over the meromorphic alphabet with every Delta occurrence
expanded via (E4^3 - E6^2)/1728.  The two tables are transcribed
independently and verified against each other by the roundtrip tests.

The ab->AB substitution (`sub_ab_to_AB`) rests on two facts.  E4 and E6
map to themselves, and Delta = (E4^3 - E6^2)/1728 is prime and prime to
E4, to E6 and to every normalized numerator, so a monomial's normalized
image follows from that of its index part (its a2..b6 exponents) by
exponent arithmetic alone.  The index-part images are memoised, and so
is each one's numerator lifted by a power of Delta; a whole polynomial is
one pass that adds shifted copies of them into one dict of terms.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple, Union

from .grading import (AB, AlphabetMismatchError, Frac, ParamPoly, Poly, ab,
                      delta_poly)

F = Fraction


def _ab_gens():
    return {s: Poly.gen(ab, s) for s in ab.symbols}


def _AB_gens():
    return {s: Poly.gen(AB, s) for s in AB.symbols}


def _build_meromorphic_images() -> Dict[str, Frac]:
    """a_i, b_j as normalized fractions num / (E4^p Delta^q) over AB."""
    g = _AB_gens()
    E4, E6 = g["E4"], g["E6"]
    A1, A2, A3, A4, A5 = g["A1"], g["A2"], g["A3"], g["A4"], g["A5"]
    B2, B3, B4, B6 = g["B2"], g["B3"], g["B4"], g["B6"]

    images = {
        "E4": Frac.normalized(E4, 0, 0),
        "E6": Frac.normalized(E6, 0, 0),
        "a2": Frac.normalized(6 * (-E4 * A2 + A1 ** 2), 1, 1),
        "a3": Frac.normalized(
            (-7 * E4 ** 2 * E6 * A3 - 20 * E4 ** 3 * B3
             - 9 * E4 * E6 * A1 * A2 + 30 * E4 ** 2 * A1 * B2
             + 6 * E6 * A1 ** 3) / 9,
            2, 2),
        "a4": Frac.normalized(
            ((E4 ** 6 - E4 ** 3 * E6 ** 2) * A4
             + (56 * E4 ** 5 - 56 * E4 ** 2 * E6 ** 2) * A1 * A3
             - 27 * E4 ** 5 * A2 ** 2
             - 90 * E4 ** 3 * E6 * A2 * B2
             - 75 * E4 ** 4 * B2 ** 2
             + (180 * E4 ** 4 - 36 * E4 * E6 ** 2) * A1 ** 2 * A2
             + 240 * E4 ** 2 * E6 * A1 ** 2 * B2
             + (-210 * E4 ** 3 + 18 * E6 ** 2) * A1 ** 4) / 864,
            3, 3),
        "b1": Frac.normalized(-4 * A1, 1, 0),
        "b2": Frac.normalized(F(5, 6) * (E4 ** 2 * B2 - E6 * A1 ** 2), 2, 1),
        "b3": Frac.normalized(
            (-7 * E4 ** 5 * A3 - 20 * E4 ** 3 * E6 * B3
             - 9 * E4 ** 4 * A1 * A2 + 30 * E4 ** 2 * E6 * A1 * B2
             + (16 * E4 ** 3 - 10 * E6 ** 2) * A1 ** 3) / 108,
            3, 2),
        "b4": Frac.normalized(
            ((-5 * E4 ** 7 + 5 * E4 ** 4 * E6 ** 2) * B4
             + (80 * E4 ** 6 - 80 * E4 ** 3 * E6 ** 2) * A1 * B3
             + 9 * E4 ** 5 * E6 * A2 ** 2
             + 30 * E4 ** 6 * A2 * B2
             + 25 * E4 ** 4 * E6 * B2 ** 2
             - 48 * E4 ** 4 * E6 * A1 ** 2 * A2
             + (-140 * E4 ** 5 + 60 * E4 ** 2 * E6 ** 2) * A1 ** 2 * B2
             + (74 * E4 ** 3 * E6 - 10 * E6 ** 3) * A1 ** 4) / 1728,
            4, 3),
        "b5": Frac.normalized(
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
        "b6": Frac.normalized(
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
    return images


def _build_holomorphic_images() -> Dict[str, Poly]:
    """A_i, B_j as polynomials over the meromorphic alphabet."""
    g = _ab_gens()
    E4, E6 = g["E4"], g["E6"]
    a2, a3, a4 = g["a2"], g["a3"], g["a4"]
    b1, b2, b3, b4, b5, b6 = (g["b1"], g["b2"], g["b3"],
                              g["b4"], g["b5"], g["b6"])
    D = delta_poly(ab)

    images = {
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
    return images


_MEROMORPHIC_IMAGES: Dict[str, Frac] = {}
_HOLOMORPHIC_IMAGES: Dict[str, Poly] = {}


def meromorphic_images() -> Dict[str, Frac]:
    if not _MEROMORPHIC_IMAGES:
        _MEROMORPHIC_IMAGES.update(_build_meromorphic_images())
    return _MEROMORPHIC_IMAGES


def holomorphic_images() -> Dict[str, Poly]:
    if not _HOLOMORPHIC_IMAGES:
        _HOLOMORPHIC_IMAGES.update(_build_holomorphic_images())
    return _HOLOMORPHIC_IMAGES


_P16_5: List[Poly] = []


def p16_5() -> Poly:
    """The distinguished weight-16 index-5 polynomial; E4-free over AB."""
    if not _P16_5:
        g = _AB_gens()
        E6 = g["E6"]
        A1, A2, A3, A5 = g["A1"], g["A2"], g["A3"], g["A5"]
        B2, B3, B4 = g["B2"], g["B3"], g["B4"]
        _P16_5.append(864 * A1 ** 3 * A2 + 3825 * A1 * B2 ** 2
                      - 770 * E6 * A3 * B2 - 840 * E6 * A2 * B3
                      + 60 * E6 * A1 * B4 + 21 * E6 ** 2 * A5)
    return _P16_5[0]


_P12_5_AB_OVER_E4: List[Poly] = []


def p12_5_over_ab() -> Poly:
    """The weight-12 index-5 quotient form as a polynomial over ab."""
    if not _P12_5_AB_OVER_E4:
        g = _ab_gens()
        E4, E6 = g["E4"], g["E6"]
        a2, a3 = g["a2"], g["a3"]
        b1, b2, b3, b4, b5 = g["b1"], g["b2"], g["b3"], g["b4"], g["b5"]
        D = delta_poly(ab)
        _P12_5_AB_OVER_E4.append(
            (24 * D * E4 ** 2 * E6 * a2 * b1 * b2
             - 18 * D * E4 ** 2 * E6 * a3 * b1 ** 2
             + 20736 * D * E4 ** 2 * a2 * b1 ** 3
             + 5 * D * E4 * E6 ** 2 * a2 ** 2 * b1
             - 28440 * E6 ** 2 * b1 ** 5
             - 336 * D ** 2 * E4 * E6 * a2 * a3
             + 4824 * D * E6 ** 2 * b1 ** 2 * b3
             - 1008 * D * E6 ** 2 * b1 * b2 ** 2
             - 991872 * D * E6 * b1 ** 3 * b2
             - 13436928 * D * b1 ** 5
             - 384 * D ** 2 * E6 ** 2 * b5
             + 27648 * D ** 2 * E6 * b1 * b4
             + 76032 * D ** 2 * E6 * b2 * b3
             - 12690432 * D ** 2 * b1 * b2 ** 2) / 9216)
    return _P12_5_AB_OVER_E4[0]


_FRAC_POWER_CACHE: Dict[Tuple[str, int], Frac] = {}


def _image_power(symbol: str, e: int) -> Frac:
    key = (symbol, e)
    f = _FRAC_POWER_CACHE.get(key)
    if f is None:
        base = meromorphic_images()[symbol]
        f = base ** e
        _FRAC_POWER_CACHE[key] = f
    return f


# Both alphabets lead with E4, E6; the index part ("rest") of a monomial
# over ab is its a2..b6 exponents, the tail after those two.
_INDEX_SYMBOLS = ab.symbols[2:]
_REST_IMAGE_CACHE: Dict[tuple, Frac] = {}


def _rest_image(rest: tuple) -> Frac:
    """The normalized image of a2^.. b6^.. over AB, built once per rest."""
    f = _REST_IMAGE_CACHE.get(rest)
    if f is None:
        f = Frac(Poly.const(AB, 1), 0, 0)
        for symbol, e in zip(_INDEX_SYMBOLS, rest):
            if e:
                f = f * _image_power(symbol, e)
        _REST_IMAGE_CACHE[rest] = f
    return f


_LIFTED_CACHE: Dict[Tuple[tuple, int], list] = {}


def _lifted_terms(rest: tuple, gap: int) -> list:
    """(E4 exponent, E6 exponent, tail, coefficient) for each term of the
    rest's normalized numerator times Delta^gap."""
    key = (rest, gap)
    terms = _LIFTED_CACHE.get(key)
    if terms is None:
        num = _rest_image(rest).num
        if gap:
            num = num * delta_poly(AB) ** gap
        terms = [(m[0], m[1], m[2:], c) for m, c in num.terms.items()]
        _LIFTED_CACHE[key] = terms
    return terms


class ParamFrac:
    """Parametric analogue of Frac: a ParamPoly numerator over AB with a
    common denominator E4^e4_pow * Delta^delta_pow."""

    __slots__ = ("num", "e4_pow", "delta_pow")

    def __init__(self, num: ParamPoly, e4_pow: int, delta_pow: int):
        self.num = num
        self.e4_pow = e4_pow
        self.delta_pow = delta_pow


def sub_ab_to_AB(p: Union[Poly, ParamPoly]) -> Union[Frac, ParamFrac]:
    """Replace every meromorphic generator by its holomorphic-side image.

    A monomial is E4^a E6^b times its index part (its a2..b6 exponents);
    the normalized image N/(E4^p Delta^q) of the index part is built once
    per distinct part and memoised.  E4 and E6 map to themselves, and
    Delta = (E4^3 - E6^2)/1728 is prime and prime to E4, to E6 and to the
    normalized numerator N, so the monomial's own normalized image is
    E4^(a - min(a, p)) E6^b N / (E4^(p - min(a, p)) Delta^q): exponent
    arithmetic, with no product and no trial division.  Over the common
    denominator E4^e4_pow Delta^delta_pow (the maxima of those powers),
    each N is lifted once by Delta^(delta_pow - q), shifted by the E4 and
    E6 exponents and added in place into one dict of output terms.

    A concrete polynomial gives the normalized Frac of that sum, one
    normalization for the whole input.  A parametric polynomial gives a
    ParamFrac whose terms hold linear forms and whose exponents are those
    maxima, so Delta^delta_pow times the input has denominator E4^e4_pow.
    A polynomial over another alphabet raises AlphabetMismatchError.
    """
    if p.alphabet != ab:
        raise AlphabetMismatchError("not over ab: %s" % p.alphabet.name)
    parametric = isinstance(p, ParamPoly)
    items = [(m[0], m[1], m[2:], v) for m, v in p.terms.items()]
    images = {rest: _rest_image(rest) for _, _, rest, _ in items}
    e4 = max((max(images[rest].e4_pow - a, 0) for a, _, rest, _ in items),
             default=0)
    dl = max((f.delta_pow for f in images.values()), default=0)
    out: dict = {}
    for a, b, rest, v in items:
        f = images[rest]
        shift = a + e4 - f.e4_pow
        for e4_exp, e6_exp, tail, c in _lifted_terms(rest, dl - f.delta_pow):
            key = (e4_exp + shift, e6_exp + b) + tail
            if parametric:
                # An ansatz column has coefficient 1; skipping the Fraction
                # product for it is most of this loop's time.
                lf = out.get(key)
                if lf is None:
                    out[key] = {j: c if x == 1 else c * x
                                for j, x in v.items()}
                    continue
                for j, x in v.items():
                    s = lf.get(j)
                    if s is None:
                        lf[j] = c if x == 1 else c * x
                    else:
                        s += c * x
                        if s:
                            lf[j] = s
                        else:
                            del lf[j]
            else:
                s = out.get(key)
                out[key] = c * v if s is None else s + c * v
    if parametric:
        return ParamFrac(ParamPoly(AB, out), e4, dl)
    return Frac.normalized(Poly(AB, out), e4, dl)


def sub_AB_to_ab(p: Poly) -> Poly:
    """Replace every holomorphic generator by its polynomial over ab."""
    images = holomorphic_images()
    power_cache: Dict[Tuple[str, int], Poly] = {}
    result = Poly.zero(ab)
    for m, c in p.terms.items():
        term = Poly.const(ab, c)
        for symbol, e in zip(AB.symbols, m):
            if e:
                key = (symbol, e)
                q = power_cache.get(key)
                if q is None:
                    q = images[symbol] ** e
                    power_cache[key] = q
                term = term * q
        result = result.unchecked_add(term)
    return result


def e4_split(f) -> Tuple[list, object]:
    """Decompose num/E4^p (delta_pow must be 0) as sum_l Q_l/E4^l + R.

    Writing num = sum_j E4^j N_j with every N_j free of E4, the parts are
    Q_l = N_{p-l} for l = 1..l1 (l1 the largest l with N_{p-l} nonzero)
    and R = sum_{j>=p} E4^{j-p} N_j.  Works for Frac (returns Poly parts)
    and ParamFrac (returns ParamPoly parts).
    """
    parametric = isinstance(f, ParamFrac)
    if f.delta_pow != 0:
        raise ValueError("e4_split requires delta_pow == 0")
    p = f.e4_pow
    alphabet = f.num.alphabet
    pos = alphabet.position("E4")
    by_e4: Dict[int, dict] = {}
    for m, c in f.num.terms.items():
        j = m[pos]
        stripped = tuple(0 if i == pos else e for i, e in enumerate(m))
        by_e4.setdefault(j, {})[stripped] = c
    make = (lambda terms: ParamPoly(alphabet, terms)) if parametric \
        else (lambda terms: Poly(alphabet, terms))
    qs = []
    for l in range(1, p + 1):
        qs.append(make(by_e4.get(p - l, {})))
    while qs and qs[-1].is_zero():
        qs.pop()
    r_terms: dict = {}
    for j, terms in by_e4.items():
        if j < p:
            continue
        for m, c in terms.items():
            lifted = tuple(e + (j - p if i == pos else 0)
                           for i, e in enumerate(m))
            r_terms[lifted] = c
    return qs, make(r_terms)
