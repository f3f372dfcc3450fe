"""Enumeration of all monomials of a given bidegree and ansatz building.

An ansatz has one unknown per monomial, and an unknown is a column
position: the i-th monomial in enumeration order is column i.

Enumeration fills E4 and E6 into each index part: an exponent vector of
the index-carrying generators alone, of the target's index.  The parts
of one index are enumerated once, by a search in which the exponent of
each generator is capped by the remaining index, and a part is kept for
each weight whose residue is 4a + 6b with a, b >= 0.  This is equivalent
to extracting one coefficient of the obvious generating series, without
having to pick a series truncation.
"""

from __future__ import annotations

from functools import cache
from typing import List, Tuple

from .grading import Alphabet, BiDegree, ParamPoly


def _weight_fillings(weight: int, has_e4: bool) -> List[tuple]:
    """The exponents (a, b) of E4 and E6 with 4a + 6b == weight, or (b,)
    of E6 alone without E4."""
    return [(rest // 4, b)[not has_e4:] for b in range(weight // 6 + 1)
            for rest in [weight - 6 * b]
            if rest % 4 == 0 and (has_e4 or not rest)]


def enumerate_monomials(alphabet: Alphabet, target: BiDegree) -> List[tuple]:
    """All exponent vectors of the exact bidegree, in canonical order.

    The list is finite because every generator has index >= 0 and the
    index-0 generators (E4, E6) have positive weight.  Each call returns
    a fresh list; the search runs once per (alphabet, bidegree), since
    the construction and the cache both enumerate every target.
    """
    return list(_monomials(alphabet, BiDegree(*target)))


@cache
def _index_parts(alphabet: Alphabet, index: int) -> Tuple[tuple, ...]:
    """(exponents, weight) of each monomial of the given index in the
    index-carrying generators, which follow E4 and E6 in every alphabet."""
    parts = [((), 0, index)]    # (exponents, weight, index left)
    for deg in alphabet.degrees:
        if deg.index > 0:
            parts = [(exps + (e,), weight + e * deg.weight,
                      left - e * deg.index)
                     for exps, weight, left in parts
                     for e in range(left // deg.index + 1)]
    return tuple((exps, weight) for exps, weight, left in parts if not left)


@cache
def _monomials(alphabet: Alphabet, target: BiDegree) -> Tuple[tuple, ...]:
    has_e4 = "E4" in alphabet.symbols
    mons = [filling + exps
            for exps, weight in _index_parts(alphabet, target.index)
            for filling in _weight_fillings(target.weight - weight, has_e4)]
    mons.sort(reverse=True)
    return tuple(mons)


def build_ansatz(alphabet: Alphabet, target: BiDegree) -> ParamPoly:
    """One unknown per monomial: the i-th monomial in enumeration order
    has the coefficient of column i."""
    mons = enumerate_monomials(alphabet, target)
    return ParamPoly(alphabet, {m: {i: 1} for i, m in enumerate(mons)})
