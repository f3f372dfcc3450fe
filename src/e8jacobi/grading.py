"""Exact bigraded sparse polynomial arithmetic over fixed generator alphabets.

Everything here is exact: coefficients are arbitrary-precision rationals
(`fractions.Fraction`), exponents are plain integers.  A polynomial is a
sparse mapping from exponent vectors to nonzero coefficients.  All values
are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import (Iterable, Iterator, Mapping, NamedTuple, Optional,
                    Sequence, Union)

Rational = Union[int, Fraction]


class GradingError(ValueError):
    """Operands violate the bigrading (e.g. inhomogeneous addition)."""


class AlphabetMismatchError(ValueError):
    """Operands live over different generator alphabets."""


class BiDegree(NamedTuple):
    """(modular weight, Jacobi index).  Weight may be negative, index >= 0."""

    weight: int
    index: int

    def __add__(self, other):
        return BiDegree(self.weight + other.weight, self.index + other.index)

    def __sub__(self, other):
        return BiDegree(self.weight - other.weight, self.index - other.index)

    def scaled(self, e: int) -> "BiDegree":
        return BiDegree(self.weight * e, self.index * e)


@dataclass(frozen=True)
class Alphabet:
    """An ordered list of generator symbols with their bidegrees."""

    name: str
    symbols: tuple
    degrees: tuple

    def __post_init__(self):
        if len(self.symbols) != len(self.degrees):
            raise ValueError("symbols and degrees must have equal length")
        object.__setattr__(self, "_pos", {s: i for i, s in enumerate(self.symbols)})

    def __len__(self) -> int:
        return len(self.symbols)

    def position(self, symbol: str) -> int:
        return self._pos[symbol]

    def degree(self, symbol: str) -> BiDegree:
        return self.degrees[self._pos[symbol]]

    def monomial_degree(self, exps) -> BiDegree:
        w = 0
        i = 0
        for e, d in zip(exps, self.degrees):
            if e:
                w += e * d.weight
                i += e * d.index
        return BiDegree(w, i)

    def fingerprint(self) -> str:
        return self.name + ":" + ",".join(
            "%s(%d,%d)" % (s, d.weight, d.index)
            for s, d in zip(self.symbols, self.degrees)
        )


def _abdeg(symbol: str) -> BiDegree:
    if symbol in ("E4", "E6"):
        return BiDegree(4 if symbol == "E4" else 6, 0)
    kind, m = symbol[0], int(symbol[1:])
    if kind == "A":
        return BiDegree(4, m)
    if kind == "B":
        return BiDegree(6, m)
    if kind == "a":
        return BiDegree(4 - 6 * m, m)
    if kind == "b":
        return BiDegree(6 - 6 * m, m)
    raise ValueError(symbol)


def _alphabet(name: str, symbols: Iterable[str]) -> Alphabet:
    syms = tuple(symbols)
    return Alphabet(name, syms, tuple(_abdeg(s) for s in syms))


#: Holomorphic-side alphabet: E4, E6 and the nine index-carrying forms of
#: weight 4 (A-series) and 6 (B-series).
AB = _alphabet("AB", ["E4", "E6", "A1", "A2", "A3", "A4", "A5",
                      "B2", "B3", "B4", "B6"])

#: Meromorphic-side alphabet: E4, E6 and the nine index-m forms of weight
#: 4-6m (a-series) and 6-6m (b-series).
ab = _alphabet("ab", ["E4", "E6", "a2", "a3", "a4",
                      "b1", "b2", "b3", "b4", "b5", "b6"])

#: AB with E4 removed; the coefficient alphabet for E4-free polynomials.
S_ALPHABET = _alphabet("S", ["E6", "A1", "A2", "A3", "A4", "A5",
                             "B2", "B3", "B4", "B6"])


def _rekey(terms: Mapping[tuple, object], source: Alphabet,
           target: Alphabet) -> dict:
    """`terms` with each exponent vector over `source` re-expressed over
    `target`.  Symbols missing from the target must not actually occur
    (zero exponent everywhere)."""
    positions = [target.position(s) if s in target.symbols else None
                 for s in source.symbols]
    width = len(target)
    out: dict = {}
    for m, v in terms.items():
        exps = [0] * width
        for e, p in zip(m, positions):
            if p is None:
                if e:
                    raise AlphabetMismatchError(
                        "symbol not present in target alphabet")
            else:
                exps[p] = e
        out[tuple(exps)] = v
    return out


def _as_fraction(c: Rational) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


class Poly:
    """Sparse polynomial over a fixed alphabet with exact rational coefficients.

    Terms map exponent tuples to nonzero Fractions.  The canonical term
    order is descending exponent-vector lex in alphabet order (all
    polynomials handled here are bigrade-homogeneous, so the graded part
    of the order is trivial within one polynomial).
    """

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms: Mapping[tuple, Fraction]):
        self.alphabet = alphabet
        self.terms = {m: c for m, c in terms.items() if c}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "Poly":
        return cls(alphabet, {})

    @classmethod
    def const(cls, alphabet: Alphabet, c: Rational) -> "Poly":
        c = _as_fraction(c)
        if not c:
            return cls.zero(alphabet)
        return cls(alphabet, {(0,) * len(alphabet): c})

    @classmethod
    def gen(cls, alphabet: Alphabet, symbol: str) -> "Poly":
        exps = [0] * len(alphabet)
        exps[alphabet.position(symbol)] = 1
        return cls(alphabet, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, alphabet: Alphabet, exps: tuple, c: Rational = 1) -> "Poly":
        return cls(alphabet, {tuple(exps): _as_fraction(c)})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def sorted_terms(self):
        """Terms in canonical (descending lex) order."""
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def bidegree(self) -> Optional[BiDegree]:
        """The common bidegree of all terms; None for the zero polynomial.

        Raises GradingError if the polynomial is inhomogeneous.
        """
        deg = None
        for m in self.terms:
            d = self.alphabet.monomial_degree(m)
            if deg is None:
                deg = d
            elif d != deg:
                raise GradingError("inhomogeneous polynomial: %s vs %s" % (deg, d))
        return deg

    def gen_exponent_range(self, symbol: str):
        """(min, max) exponent of one generator across all terms."""
        pos = self.alphabet.position(symbol)
        exps = [m[pos] for m in self.terms]
        return (min(exps), max(exps)) if exps else (0, 0)

    # -- arithmetic ---------------------------------------------------

    def _check_alphabet(self, other: "Poly"):
        if self.alphabet is not other.alphabet:
            if self.alphabet.fingerprint() != other.alphabet.fingerprint():
                raise AlphabetMismatchError(
                    "%s vs %s" % (self.alphabet.name, other.alphabet.name))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.alphabet, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_alphabet(other)
        if self.terms and other.terms and self.bidegree() != other.bidegree():
            raise GradingError("cannot add polynomials of different bidegree")
        return self.unchecked_add(other)

    def unchecked_add(self, other: "Poly") -> "Poly":
        """Addition without the homogeneity precondition (internal use)."""
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Poly(self.alphabet, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.alphabet, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.alphabet, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c: Rational) -> "Poly":
        c = _as_fraction(c)
        if not c:
            return Poly.zero(self.alphabet)
        return Poly(self.alphabet, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_alphabet(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                c = c1 * c2
                s = out.get(m)
                if s is None:
                    out[m] = c
                else:
                    s = s + c
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        return Poly(self.alphabet, out)

    __rmul__ = __mul__

    def __truediv__(self, c: Rational):
        return self.scale(Fraction(1, 1) / _as_fraction(c))

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative power")
        result = Poly.const(self.alphabet, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.alphabet, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.alphabet.fingerprint() == other.alphabet.fingerprint()
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.alphabet.name, frozenset(self.terms.items())))

    # -- division -----------------------------------------------------

    def divexact(self, d: "Poly") -> Optional["Poly"]:
        """Exact quotient self / d, or None if d does not divide self.

        Single-divisor multivariate division: the leading term of the
        running remainder must always be cancellable by the leading term
        of d, otherwise the division fails.
        """
        self._check_alphabet(d)
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return Poly.zero(self.alphabet)
        d_lead = max(d.terms)
        d_lc = d.terms[d_lead]
        quotient: dict = {}
        rem = dict(self.terms)
        while rem:
            lead = max(rem)
            diff = tuple(a - b for a, b in zip(lead, d_lead))
            if any(e < 0 for e in diff):
                return None
            qc = rem[lead] / d_lc
            quotient[diff] = qc
            for m, c in d.terms.items():
                t = tuple(a + b for a, b in zip(m, diff))
                s = rem.get(t, Fraction(0)) - qc * c
                if s:
                    rem[t] = s
                else:
                    rem.pop(t, None)
        return Poly(self.alphabet, quotient)

    # -- conversion ---------------------------------------------------

    def map_alphabet(self, target: Alphabet) -> "Poly":
        """Re-express over another alphabet (see `_rekey`)."""
        return Poly(target, _rekey(self.terms, self.alphabet, target))

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = []
            if c != 1 or not any(m):
                factors.append(str(c))
            for s, e in zip(self.alphabet.symbols, m):
                if e == 1:
                    factors.append(s)
                elif e:
                    factors.append("%s^%d" % (s, e))
            parts.append("*".join(factors))
        return " + ".join(parts)


#: A homogeneous linear form in the unknowns: column position -> coefficient.
LinForm = Mapping[int, Rational]


def linform_add(a: LinForm, b: LinForm) -> dict:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k)
        if s is None:
            out[k] = v
        else:
            s = s + v
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def linform_scale(a: LinForm, c: Rational) -> dict:
    if not c:
        return {}
    return {k: c * v for k, v in a.items()}


class ParamPoly:
    """Polynomial whose coefficients are homogeneous linear forms in the
    undetermined coefficients of an ansatz.

    An unknown is a column position (see `ansatz.build_ansatz`).  Linear
    forms keep the type of their coefficients: integer forms multiplied by
    a polynomial with integral coefficients stay `int`, which keeps
    `substitute` an integer dot product per monomial.
    """

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms: Mapping[tuple, LinForm]):
        self.alphabet = alphabet
        self.terms = {m: dict(lf) for m, lf in terms.items() if lf}

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "ParamPoly":
        return cls(alphabet, {})

    def is_zero(self) -> bool:
        return not self.terms

    def mul_poly(self, p: Poly) -> "ParamPoly":
        """Multiply by a concrete polynomial over the same alphabet; its
        integral coefficients multiply as `int`s."""
        coeffs = [(m2, c.numerator if c.denominator == 1 else c)
                  for m2, c in p.terms.items()]
        out: dict = {}
        for m1, lf in self.terms.items():
            for m2, c in coeffs:
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = linform_add(out.get(m, {}), linform_scale(lf, c))
                if not out[m]:
                    del out[m]
        return ParamPoly(self.alphabet, out)

    def substitute(self, values: Sequence[Rational]) -> Poly:
        """Evaluate every unknown, column j taking values[j]: one dot
        product per monomial."""
        return Poly(self.alphabet,
                    {m: sum(values[j] * v for j, v in lf.items())
                     for m, lf in self.terms.items()})

    def map_alphabet(self, target: Alphabet) -> "ParamPoly":
        """Re-express over another alphabet (see `_rekey`)."""
        return ParamPoly(target, _rekey(self.terms, self.alphabet, target))


@dataclass(frozen=True)
class Frac:
    """Normalized fraction num / (E4^e4_pow * Delta^delta_pow) over AB.

    Delta is never a ring symbol; it only ever appears expanded as the
    polynomial (E4^3 - E6^2)/1728 or as the denominator exponent here.
    Construct through `normalized` to maintain the divisibility invariants.
    """

    num: Poly
    e4_pow: int
    delta_pow: int

    @staticmethod
    def normalized(num: Poly, e4_pow: int, delta_pow: int) -> "Frac":
        if num.is_zero():
            return Frac(num, 0, 0)
        if e4_pow < 0 or delta_pow < 0:
            raise ValueError("denominator exponents must be >= 0")
        # E4 is a single generator, so E4-divisibility is an exponent check.
        pos = num.alphabet.position("E4")
        while e4_pow > 0:
            if all(m[pos] >= 1 for m in num.terms):
                num = Poly(num.alphabet,
                           {tuple(e - (1 if i == pos else 0)
                                  for i, e in enumerate(m)): c
                            for m, c in num.terms.items()})
                e4_pow -= 1
            else:
                break
        if delta_pow > 0:
            delta = delta_poly(num.alphabet)
            while delta_pow > 0:
                q = num.divexact(delta)
                if q is None:
                    break
                num = q
                delta_pow -= 1
        return Frac(num, e4_pow, delta_pow)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Frac.normalized(self.num * other, self.e4_pow, self.delta_pow)
        return Frac.normalized(self.num * other.num,
                               self.e4_pow + other.e4_pow,
                               self.delta_pow + other.delta_pow)

    __rmul__ = __mul__

    def __add__(self, other: "Frac") -> "Frac":
        e4 = max(self.e4_pow, other.e4_pow)
        dl = max(self.delta_pow, other.delta_pow)
        alphabet = self.num.alphabet
        delta = delta_poly(alphabet)
        e4g = Poly.gen(alphabet, "E4")
        a = self.num * e4g ** (e4 - self.e4_pow) * delta ** (dl - self.delta_pow)
        b = other.num * e4g ** (e4 - other.e4_pow) * delta ** (dl - other.delta_pow)
        return Frac.normalized(a.unchecked_add(b), e4, dl)

    def __pow__(self, e: int) -> "Frac":
        result = Frac(Poly.const(self.num.alphabet, 1), 0, 0)
        for _ in range(e):
            result = result * self
        return result

    def bidegree(self) -> Optional[BiDegree]:
        d = self.num.bidegree()
        if d is None:
            return None
        return BiDegree(d.weight - 4 * self.e4_pow - 12 * self.delta_pow,
                        d.index)


_DELTA_CACHE: dict = {}


def delta_poly(alphabet: Alphabet) -> Poly:
    """The cusp form (E4^3 - E6^2)/1728 as a polynomial, bidegree (12, 0)."""
    key = alphabet.fingerprint()
    p = _DELTA_CACHE.get(key)
    if p is None:
        e4 = Poly.gen(alphabet, "E4")
        e6 = Poly.gen(alphabet, "E6")
        p = (e4 ** 3 - e6 ** 2) / 1728
        _DELTA_CACHE[key] = p
    return p
