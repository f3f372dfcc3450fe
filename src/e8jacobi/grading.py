"""Exact bigraded sparse polynomial arithmetic over fixed generator alphabets.

Everything here is exact: coefficients are arbitrary-precision integers
or rationals (`int` or `fractions.Fraction`), exponents are plain
integers.  The coefficient rule: an `int` stays an `int` through `+`,
`-`, `*`, `**`, `square` and `scale`, until a division (`/`, `divexact`)
or a transcribed denominator makes it a `Fraction`.  A polynomial is a
sparse mapping from exponent vectors to nonzero coefficients.  All values
are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from heapq import heapify, heappop, heappush
from itertools import accumulate
from operator import add
from typing import Iterable, Mapping, NamedTuple, Optional, Tuple, Union

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


def _exact(c) -> Rational:
    """An int (not a bool) or a Fraction as it is, else an exact Fraction."""
    return c if type(c) is int or isinstance(c, Fraction) else Fraction(c)


class Poly:
    """Sparse polynomial over a fixed alphabet with exact rational coefficients.

    Terms map exponent tuples to nonzero coefficients, each an `int` or a
    `Fraction`: `gen` holds the `int` 1, and an `int` stays one until a
    division or a transcribed denominator (the module's coefficient rule).
    An `int` and the equal `Fraction` compare, hash and print alike, so
    no result depends on which one a term holds.  The canonical term
    order is descending exponent-vector lex in alphabet order (all
    polynomials handled here are bigrade-homogeneous, so the graded part
    of the order is trivial within one polynomial).
    """

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms: Mapping[tuple, Rational]):
        self.alphabet = alphabet
        self.terms = {m: c for m, c in terms.items() if c}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "Poly":
        return cls(alphabet, {})

    @classmethod
    def const(cls, alphabet: Alphabet, c: Rational) -> "Poly":
        c = _exact(c)
        if not c:
            return cls.zero(alphabet)
        return cls(alphabet, {(0,) * len(alphabet): c})

    @classmethod
    def gen(cls, alphabet: Alphabet, symbol: str) -> "Poly":
        exps = [0] * len(alphabet)
        exps[alphabet.position(symbol)] = 1
        return cls(alphabet, {tuple(exps): 1})

    @classmethod
    def monomial(cls, alphabet: Alphabet, exps: tuple, c: Rational = 1) -> "Poly":
        return cls(alphabet, {tuple(exps): _exact(c)})

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
        if self.alphabet is not other.alphabet \
                and self.alphabet != other.alphabet:
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
        c = _exact(c)
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
                m = tuple(map(add, m1, m2))
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
        return self.scale(Fraction(1, 1) / _exact(c))

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative power")
        result = Poly(self.alphabet, {(0,) * len(self.alphabet): 1})
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base.square() if e > 1 else base
            e >>= 1
        return result

    def square(self) -> "Poly":
        """self * self, each unordered pair of terms multiplied once: the
        products of terms i < j, doubled, plus the squares of the terms,
        so n(n+1)/2 products for n terms instead of n^2."""
        items = list(self.terms.items())
        out: dict = {}
        for i, (m1, c1) in enumerate(items):
            for m2, c2 in items[i + 1:]:
                m = tuple(map(add, m1, m2))
                s = out.get(m)
                out[m] = c1 * c2 if s is None else s + c1 * c2
        out = {m: 2 * c for m, c in out.items()}
        for m1, c1 in items:
            m = tuple(map(add, m1, m1))
            s = out.get(m)
            out[m] = c1 * c1 if s is None else s + c1 * c1
        return Poly(self.alphabet, out)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.alphabet, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return ((self.alphabet is other.alphabet
                 or self.alphabet == other.alphabet)
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.alphabet.name, frozenset(self.terms.items())))

    # -- division -----------------------------------------------------

    def divexact(self, d: "Poly") -> Optional["Poly"]:
        """Exact quotient self / d, or None if d does not divide self.

        Single-divisor multivariate division: the leading term of the
        running remainder must always be cancellable by the leading term
        of d, otherwise the division fails.  The leads come from a heap of
        negated exponent vectors; an entry whose term has cancelled since
        it was pushed is skipped.  The lex order is a monomial order, so
        every new term lies below the current lead, and a lead once
        cancelled never comes back.
        """
        self._check_alphabet(d)
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return Poly.zero(self.alphabet)
        d_lead = max(d.terms)
        # an exact reciprocal: two int leads would divide to a float
        d_inv = 1 / Fraction(d.terms[d_lead])
        quotient: dict = {}
        rem = dict(self.terms)
        heap = [tuple(-e for e in m) for m in rem]
        heapify(heap)
        while heap:
            lead = tuple(-e for e in heappop(heap))
            lc = rem.get(lead)
            if lc is None:
                continue
            diff = tuple(a - b for a, b in zip(lead, d_lead))
            if any(e < 0 for e in diff):
                return None
            qc = lc * d_inv
            quotient[diff] = qc
            for m, c in d.terms.items():
                t = tuple(a + b for a, b in zip(m, diff))
                s = rem.get(t)
                if s is None:
                    rem[t] = -qc * c
                    heappush(heap, tuple(-e for e in t))
                else:
                    s -= qc * c
                    if s:
                        rem[t] = s
                    else:
                        del rem[t]
        return Poly(self.alphabet, quotient)

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


class ParamPoly:
    """Polynomial whose coefficients are homogeneous linear forms in the
    undetermined coefficients of an ansatz.

    An unknown is a column position (see `ansatz.build_ansatz`).  Only
    the basis forms, sparse nullspace vectors, go through `substitute`;
    `construct.system` builds the construction's rows straight from the
    memoised monomial images (`generators._lifted_columns`) and the
    terms of P^l over S (`construct._p_power`).  `mul_poly` and
    `linsolve.coefficient_equations` are the reference those rows are
    tested against; int coefficients multiply as ints.
    """

    def __init__(self, alphabet: Alphabet, terms: Mapping[tuple, LinForm]):
        self.alphabet = alphabet
        self.terms = {m: dict(lf) for m, lf in terms.items() if lf}

    def mul_poly(self, p: Poly) -> "ParamPoly":
        """Multiply by a concrete polynomial over the same alphabet; int
        coefficients multiply as ints."""
        out: dict = {}
        for m1, lf in self.terms.items():
            for m2, c in p.terms.items():
                acc = out.setdefault(tuple(a + b for a, b in zip(m1, m2)), {})
                for j, v in lf.items():
                    s = acc.get(j, 0) + c * v
                    if s:
                        acc[j] = s
                    else:
                        del acc[j]
        return ParamPoly(self.alphabet, out)

    @cached_property
    def _columns(self) -> dict:
        """Each column's (monomial, coefficient) terms; `terms` is fixed."""
        cols: dict = {}
        for m, lf in self.terms.items():
            for j, v in lf.items():
                cols.setdefault(j, []).append((m, v))
        return cols

    def substitute(self, values: Mapping[int, Rational]) -> Poly:
        """Evaluate at the sparse vector `values` ({column: value}, other
        columns 0): each value times its column's terms."""
        out: dict = {}
        for j, x in values.items():
            for m, v in self._columns.get(j, ()):
                out[m] = out.get(m, 0) + x * v
        return Poly(self.alphabet, out)


@dataclass(frozen=True)
class Frac:
    """The fraction num / (E4^e4_pow * Delta^delta_pow) over AB, as a
    plain record.

    Delta is never a ring symbol; it only ever appears expanded as the
    polynomial (E4^3 - E6^2)/1728 or as the denominator exponent here.
    The generator tables hold their fractions in lowest terms as
    transcribed, and `generators.sub_ab_to_AB` is the one place that
    builds a Frac in lowest terms (`construct.certify` cancels Delta
    from the same integer terms with `cancel_delta`).
    """

    num: Poly
    e4_pow: int
    delta_pow: int


@cache
def delta_poly(alphabet: Alphabet) -> Poly:
    """The cusp form (E4^3 - E6^2)/1728 as a polynomial, bidegree (12, 0)."""
    e4 = Poly.gen(alphabet, "E4")
    e6 = Poly.gen(alphabet, "E6")
    return (e4 ** 3 - e6 ** 2) / 1728


def cancel_delta(terms: Mapping[tuple, int], limit: int) -> Tuple[int, dict]:
    """(k, terms / Delta^k) for the largest k <= limit such that Delta^k
    divides the polynomial with these nonzero `int` terms, over an
    alphabet that leads with E4, E6; the quotient's terms are `int`s.
    For k = 0 the input comes back as it is.

    Write a term E4^a E6^b T (T the tail, the other exponents) as
    E4^A E6^r u^j with r = b mod 2, j = (b - r)/2, u = E6^2/E4^3 and
    A = a + 3j, and group the terms by (T, 4a + 6b, r), which fixes
    E4^A E6^r T: each group is E4^A E6^r T g(u) for a polynomial g.
    Since Delta = E4^3 (1 - u)/1728, multiplying by Delta sends each
    group into the group (T, 4a + 6b + 12, r) and no two groups into the
    same one.  So Delta divides the polynomial iff it divides each group,
    that is iff (1 - u) divides each g, iff each g(1), the sum of the
    group's coefficients, is 0.  The quotient's group is then
    E4^(A-3) E6^r T 1728 h(u) with h = g/(1 - u), whose coefficients are
    the prefix sums of g's: h_j = g_lo + ... + g_j for j from g's lowest
    power lo to one below its top power hi.  Its E4 exponents
    A - 3 - 3j are at least A - 3hi, that of g's top term, so >= 0.
    The prefix sums begin with g_lo and end with -g_hi, both nonzero, so
    each quotient group is again a dense list with nonzero ends, one
    entry shorter.  The factors 1728 are applied once, at the end.
    """
    if limit <= 0 or not terms:
        return 0, terms
    groups: dict = {}
    for m, c in terms.items():
        b = m[1]
        groups.setdefault((m[2:], 4 * m[0] + 6 * b, b & 1), {})[b >> 1] = c
    if any(sum(g.values()) for g in groups.values()):
        return 0, terms
    dense = []
    for key, g in groups.items():
        lo = min(g)
        dense.append((key, lo, [g.get(j, 0) for j in range(lo, max(g) + 1)]))
    k = 0
    while True:                     # here every group sums to 0
        dense = [(key, lo, list(accumulate(cs[:-1])))
                 for key, lo, cs in dense]
        k += 1
        if k == limit or any(sum(cs) for _, _, cs in dense):
            break
    scale = 1728 ** k
    out = {}
    for (tail, weight, r), lo, cs in dense:
        a = (weight - 6 * r) // 4 - 3 * k - 3 * lo
        b = r + 2 * lo
        for c in cs:
            if c:
                out[(a, b) + tail] = c * scale
            a -= 3
            b += 2
    return k, out
