"""Enumeration of all monomials of a given bidegree and ansatz building.

An ansatz has one unknown per monomial, and an unknown is a column
position: the i-th monomial in enumeration order is column i.

Enumeration is a bounded depth-first search over exponent vectors: the
exponent of any index-carrying generator is capped by the remaining
index, and the residual weight left for E4/E6 must be expressible as
4a + 6b with a, b >= 0.  This is equivalent to extracting one
coefficient of the obvious generating series, without having to pick a
series truncation.
"""

from __future__ import annotations

from functools import cache
from typing import List, Tuple

from .grading import Alphabet, BiDegree, ParamPoly


def _weight_fillings(weight: int, has_e4: bool) -> List[tuple]:
    """All (a, b) with 4a + 6b == weight (a forced to 0 without E4)."""
    if weight < 0:
        return []
    out = []
    if has_e4:
        for b in range(weight // 6 + 1):
            rest = weight - 6 * b
            if rest % 4 == 0:
                out.append((rest // 4, b))
    else:
        if weight % 6 == 0:
            out.append((0, weight // 6))
    return out


def enumerate_monomials(alphabet: Alphabet, target: BiDegree) -> List[tuple]:
    """All exponent vectors of the exact bidegree, in canonical order.

    The list is finite because every generator has index >= 0 and the
    index-0 generators (E4, E6) have positive weight.  Each call returns
    a fresh list; the search runs once per (alphabet, bidegree), since
    the construction and the cache both enumerate every target.
    """
    return list(_monomials(alphabet, BiDegree(*target)))


@cache
def _monomials(alphabet: Alphabet, target: BiDegree) -> Tuple[tuple, ...]:
    n = len(alphabet)
    symbols = alphabet.symbols
    degrees = alphabet.degrees
    has_e4 = "E4" in symbols
    e4_pos = symbols.index("E4") if has_e4 else None
    e6_pos = symbols.index("E6")
    indexed = [(i, degrees[i]) for i in range(n)
               if degrees[i].index > 0]

    results = []
    exps = [0] * n

    def descend(pos: int, index_left: int, weight_left: int):
        if pos == len(indexed):
            for a, b in _weight_fillings(weight_left, has_e4) \
                    if index_left == 0 else []:
                full = exps[:]
                if has_e4:
                    full[e4_pos] = a
                full[e6_pos] = b
                results.append(tuple(full))
            return
        i, deg = indexed[pos]
        max_e = index_left // deg.index
        for e in range(max_e + 1):
            exps[i] = e
            descend(pos + 1, index_left - e * deg.index,
                    weight_left - e * deg.weight)
        exps[i] = 0

    if target.index >= 0:
        descend(0, target.index, target.weight)
    results.sort(reverse=True)
    return tuple(results)


def build_ansatz(alphabet: Alphabet, target: BiDegree) -> ParamPoly:
    """One unknown per monomial: the i-th monomial in enumeration order
    has the coefficient of column i."""
    mons = enumerate_monomials(alphabet, target)
    return ParamPoly(alphabet, {m: {i: 1} for i, m in enumerate(mons)})
